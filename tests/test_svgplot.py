import pytest

from coinwalk import svgplot

LABELS = {"title": "t", "xlabel": "x", "ylabel": "y"}


def test_no_series_rejected():
    with pytest.raises(ValueError, match="at least one series"):
        svgplot.line_chart([], **LABELS)


def test_flat_series_is_centred():
    # a zero-height data range is widened to +-0.5, so the line sits mid-plot
    svg = svgplot.line_chart([("flat", [0, 1, 2], [0.5, 0.5, 0.5])], **LABELS)
    assert 'points="70.00,295.00 350.00,295.00 630.00,295.00"' in svg


def test_negative_memory_diagram_steps_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        svgplot.memory_diagram(-1)
