"""Hand-emitted static SVG charts: no plotting dependency, diffable output.

All charts use a fixed 800x600 viewBox and deterministic float formatting,
so identical inputs yield byte-identical files.
"""

from __future__ import annotations

from typing import Sequence

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 170
MARGIN_TOP = 50
MARGIN_BOTTOM = 60

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#e377c2")


def _fmt(x: float) -> str:
    return format(float(x), ".2f")


def _tick_label(x: float) -> str:
    return format(float(x), ".4g")


def _el(tag: str, text=None, **attrs) -> str:
    """One element, self-closing without text; attributes in keyword order, ``_`` as ``-``."""
    head = "".join(f' {name.replace("_", "-")}="{value}"' for name, value in attrs.items())
    return f"<{tag}{head}/>" if text is None else f"<{tag}{head}>{text}</{tag}>"


def _document(parts: list[str]) -> str:
    """The ``<svg>`` root and white background around ``parts``, one per line."""
    root = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
            f'width="{WIDTH}" height="{HEIGHT}">')
    background = _el("rect", width=WIDTH, height=HEIGHT, fill="white")
    return "\n".join([root, background, *parts, "</svg>"]) + "\n"


def _data_range(values) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-15:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


class _Frame:
    """Maps data coordinates into the fixed plot rectangle."""

    def __init__(self, xs, ys):
        self.x0, self.x1 = _data_range(xs)
        self.y0, self.y1 = _data_range(ys)

    def px(self, x: float) -> float:
        span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        return MARGIN_LEFT + span * (x - self.x0) / (self.x1 - self.x0)

    def py(self, y: float) -> float:
        span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        return HEIGHT - MARGIN_BOTTOM - span * (y - self.y0) / (self.y1 - self.y0)


def polyline_points(xs: Sequence[float], ys: Sequence[float], frame: _Frame) -> str:
    return " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in zip(xs, ys))


def line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render named (x, y) series as polylines with axes and a legend."""
    if not series:
        raise ValueError("need at least one series")
    frame = _Frame([x for _, xs, _ in series for x in xs],
                   [y for _, _, ys in series for y in ys])
    x_axis_y = HEIGHT - MARGIN_BOTTOM
    parts = [
        _el("text", title, x=WIDTH // 2, y=28, text_anchor="middle", font_size=18,
            font_family="sans-serif"),
        # axes
        _el("line", x1=MARGIN_LEFT, y1=x_axis_y, x2=WIDTH - MARGIN_RIGHT, y2=x_axis_y,
            stroke="black"),
        _el("line", x1=MARGIN_LEFT, y1=MARGIN_TOP, x2=MARGIN_LEFT, y2=x_axis_y, stroke="black"),
    ]
    for k in range(5):
        fx = frame.x0 + (frame.x1 - frame.x0) * k / 4
        fy = frame.y0 + (frame.y1 - frame.y0) * k / 4
        px, py = _fmt(frame.px(fx)), frame.py(fy)
        parts += [
            _el("line", x1=px, y1=x_axis_y, x2=px, y2=x_axis_y + 5, stroke="black"),
            _el("text", _tick_label(fx), x=px, y=x_axis_y + 20, text_anchor="middle",
                font_size=12, font_family="sans-serif"),
            _el("line", x1=MARGIN_LEFT - 5, y1=_fmt(py), x2=MARGIN_LEFT, y2=_fmt(py),
                stroke="black"),
            _el("text", _tick_label(fy), x=MARGIN_LEFT - 8, y=_fmt(py + 4), text_anchor="end",
                font_size=12, font_family="sans-serif"),
        ]
    parts += [
        _el("text", xlabel, x=(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) // 2, y=HEIGHT - 15,
            text_anchor="middle", font_size=14, font_family="sans-serif"),
        _el("text", ylabel, x=20, y=HEIGHT // 2, text_anchor="middle", font_size=14,
            font_family="sans-serif", transform=f"rotate(-90 20 {HEIGHT // 2})"),
    ]

    # series + legend
    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        lx, ly = WIDTH - MARGIN_RIGHT + 15, MARGIN_TOP + 20 * idx
        parts += [
            _el("polyline", data_name=name, fill="none", stroke=color, stroke_width=1.5,
                points=polyline_points(xs, ys, frame)),
            _el("line", x1=lx, y1=ly, x2=lx + 25, y2=ly, stroke=color, stroke_width=1.5),
            _el("text", name, x=lx + 32, y=ly + 4, font_size=12, font_family="sans-serif"),
        ]
    return _document(parts)


def memory_diagram(n: int) -> str:
    """Two-track step diagram: classical walk above, quantum walk below.

    One ``<g class="column">`` per step 0..n; horizontal arrows carry the
    classical and quantum kernels, vertical arrows the reshuffling map that
    rebuilds each quantum distribution from the classical track.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    top_y, bot_y = 180, 440
    # letter, row, circle fill and stroke, label of the arrow into step + 1
    tracks = (("C", top_y, "#dbe9f6", "#1f77b4", "classical kernel"),
              ("Q", bot_y, "#f6dbdb", "#d62728", "quantum kernel {}"))
    spacing = (WIDTH - 140) / max(n, 1)
    parts = [
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" '
        'markerHeight="7" orient="auto-start-reverse"><path d="M 0 0 L 10 5 L 0 10 z" '
        'fill="black"/></marker></defs>',
        _el("text", "Classical track (top) feeding the quantum track (bottom)", x=WIDTH // 2,
            y=40, text_anchor="middle", font_size=18, font_family="sans-serif"),
        *(_el("text", f"{letter}RW", x=30, y=y + 5, font_size=14, font_family="sans-serif")
          for letter, y, *_ in tracks),
    ]
    for step in range(n + 1):
        cx = 70 + spacing * step if n else WIDTH / 2
        parts.append(f'<g class="column" id="step-{step}">')
        for letter, y, fill, stroke, _ in tracks:
            parts.append(_el("circle", cx=_fmt(cx), cy=y, r=16, fill=fill, stroke=stroke))
            parts.append(_el("text", f"{letter}{step}", x=_fmt(cx), y=y + 4,
                             text_anchor="middle", font_size=11, font_family="sans-serif"))
        parts.append(_el("line", x1=_fmt(cx), y1=top_y + 20, x2=_fmt(cx), y2=bot_y - 20,
                         stroke="black", stroke_dasharray="4 3", marker_end="url(#arrow)"))
        parts.append(_el("text", f"reshuffle {step}", x=_fmt(cx + 6), y=(top_y + bot_y) // 2,
                         font_size=11, font_family="sans-serif"))
        parts.append("</g>")
        if step < n:
            nx = 70 + spacing * (step + 1)
            for _, y, _, _, kernel in tracks:
                parts.append(_el("line", x1=_fmt(cx + 20), y1=y, x2=_fmt(nx - 20), y2=y,
                                 stroke="black", marker_end="url(#arrow)"))
                parts.append(_el("text", kernel.format(step + 1), x=_fmt((cx + nx) / 2),
                                 y=y - 10, text_anchor="middle", font_size=11,
                                 font_family="sans-serif"))
    return _document(parts)
