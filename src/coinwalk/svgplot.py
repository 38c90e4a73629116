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
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    frame = _Frame(all_x, all_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
        f'font-size="18" font-family="sans-serif">{title}</text>',
    ]

    # axes
    x_axis_y = HEIGHT - MARGIN_BOTTOM
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{x_axis_y}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{x_axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{x_axis_y}" stroke="black"/>'
    )
    for k in range(5):
        fx = frame.x0 + (frame.x1 - frame.x0) * k / 4
        fy = frame.y0 + (frame.y1 - frame.y0) * k / 4
        px, py = frame.px(fx), frame.py(fy)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{x_axis_y}" x2="{_fmt(px)}" '
            f'y2="{x_axis_y + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{x_axis_y + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{_tick_label(fx)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(py)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{_tick_label(fy)}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) // 2}" '
        f'y="{HEIGHT - 15}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 20 {HEIGHT // 2})">'
        f"{ylabel}</text>"
    )

    # series + legend
    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        parts.append(
            f'<polyline data-name="{name}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{polyline_points(xs, ys, frame)}"/>'
        )
        ly = MARGIN_TOP + 20 * idx
        lx = WIDTH - MARGIN_RIGHT + 15
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 25}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def memory_diagram(n: int) -> str:
    """Two-track step diagram: classical walk above, quantum walk below.

    One ``<g class="column">`` per step 0..n; horizontal arrows carry the
    classical and quantum kernels, vertical arrows the reshuffling map that
    rebuilds each quantum distribution from the classical track.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    top_y, bot_y = 180, 440
    usable = WIDTH - 140
    spacing = usable / max(n, 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        "<defs>"
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="black"/></marker>'
        "</defs>",
        f'<text x="{WIDTH // 2}" y="40" text-anchor="middle" font-size="18" '
        'font-family="sans-serif">Classical track (top) feeding the quantum '
        "track (bottom)</text>",
        f'<text x="30" y="{top_y + 5}" font-size="14" font-family="sans-serif">CRW</text>',
        f'<text x="30" y="{bot_y + 5}" font-size="14" font-family="sans-serif">QRW</text>',
    ]
    for step in range(n + 1):
        cx = 70 + spacing * step if n else WIDTH / 2
        col = [
            f'<g class="column" id="step-{step}">',
            f'<circle cx="{_fmt(cx)}" cy="{top_y}" r="16" fill="#dbe9f6" stroke="#1f77b4"/>',
            f'<text x="{_fmt(cx)}" y="{top_y + 4}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">C{step}</text>',
            f'<circle cx="{_fmt(cx)}" cy="{bot_y}" r="16" fill="#f6dbdb" stroke="#d62728"/>',
            f'<text x="{_fmt(cx)}" y="{bot_y + 4}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">Q{step}</text>',
            f'<line x1="{_fmt(cx)}" y1="{top_y + 20}" x2="{_fmt(cx)}" '
            f'y2="{bot_y - 20}" stroke="black" stroke-dasharray="4 3" '
            'marker-end="url(#arrow)"/>',
            f'<text x="{_fmt(cx + 6)}" y="{(top_y + bot_y) // 2}" font-size="11" '
            f'font-family="sans-serif">reshuffle {step}</text>',
            "</g>",
        ]
        parts.extend(col)
        if step < n:
            nx = 70 + spacing * (step + 1)
            parts.append(
                f'<line x1="{_fmt(cx + 20)}" y1="{top_y}" x2="{_fmt(nx - 20)}" '
                f'y2="{top_y}" stroke="black" marker-end="url(#arrow)"/>'
            )
            parts.append(
                f'<text x="{_fmt((cx + nx) / 2)}" y="{top_y - 10}" '
                'text-anchor="middle" font-size="11" '
                'font-family="sans-serif">classical kernel</text>'
            )
            parts.append(
                f'<line x1="{_fmt(cx + 20)}" y1="{bot_y}" x2="{_fmt(nx - 20)}" '
                f'y2="{bot_y}" stroke="black" marker-end="url(#arrow)"/>'
            )
            parts.append(
                f'<text x="{_fmt((cx + nx) / 2)}" y="{bot_y - 10}" '
                'text-anchor="middle" font-size="11" '
                f'font-family="sans-serif">quantum kernel {step + 1}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
