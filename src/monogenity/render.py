"""Polygon drawing: fixed-width ASCII grids and deterministic SVG.

Both renderers consume a PolygonFigure, so tests can feed synthetic
point sets without going through the pure-field pipeline.
"""

from __future__ import annotations

import math

from . import __version__
from .classify import pure_prime_analysis
from .errors import ValidationError
from .general import index_lattice_points
from .polygon import NewtonPolygon, principal_part
from .record import TupleRecord
from .zpoly import PureFieldParams, candidate_index_primes, to_string


class PolygonFigure(TupleRecord):
    title: str
    points: tuple[tuple[int, int], ...]  # (i, v) pairs
    polygon: NewtonPolygon
    index_points: tuple[tuple[int, int], ...]
    side_labels: tuple[str, ...]


def figure_from_polygon(title: str, points, polygon: NewtonPolygon) -> PolygonFigure:
    principal = principal_part(polygon)
    labels = tuple(
        f"S{k + 1}: slope {s.slope_text()}, length {s.length}, degree {s.degree}"
        for k, s in enumerate(polygon.sides)
    )
    return PolygonFigure(
        title=title,
        points=tuple(points),
        polygon=polygon,
        index_points=tuple(index_lattice_points(principal)),
        side_labels=labels,
    )


def figure_for(params: PureFieldParams, q: int) -> PolygonFigure:
    """Figure for the polygon of x**(p**r) - m at the prime q."""
    if q not in candidate_index_primes(params):
        raise ValidationError(
            f"{q} divides neither p nor m; there is no interesting polygon to draw"
        )
    analysis = pure_prime_analysis(params, q)
    report = analysis.reports[0]
    title = (
        f"{params.polynomial_text()} at q={q}, base phi = {to_string(report.phi)}"
    )
    return figure_from_polygon(title, report.points, report.polygon)


# ---------------------------------------------------------------------------
# ASCII

_WIDTH = 80
_MAX_ROWS = 24


def render_ascii(fig: PolygonFigure) -> str:
    """Plot on a fixed 80-column grid.

    o valued point, * hull vertex, x counted index lattice point,
    . envelope. Marks overwrite in that precedence order.
    """
    xs = [i for i, _ in fig.points] or [0]
    ys = [v for _, v in fig.points] or [0]
    xmax = max(max(xs), 1)
    ymax = max(max(ys), 1)
    rows = min(ymax, _MAX_ROWS)
    margin = 6
    cols = _WIDTH - margin - 2

    def col(x: int) -> int:
        return margin + (x * cols) // xmax

    def row(y: int) -> int:
        return rows - (y * rows) // ymax

    grid = [[" "] * _WIDTH for _ in range(rows + 1)]
    order = {"*": 4, "o": 3, "x": 2, ".": 1, " ": 0}

    def put(x: int, y: int, ch: str) -> None:
        c, r = col(x), row(y)
        if order[ch] >= order[grid[r][c]]:
            grid[r][c] = ch

    for side in fig.polygon.sides:
        for x in range(side.start.i, side.end.i + 1):
            y = (side.start.v * side.e - (x - side.start.i) * side.h) // side.e
            put(x, max(0, y), ".")
    for x, y in fig.index_points:
        put(x, y, "x")
    for i, v in fig.points:
        if v <= ymax:
            put(i, v, "o")
    for vertex in fig.polygon.vertices:
        put(vertex.i, vertex.v, "*")

    lines = [fig.title]
    lines.extend(fig.side_labels)
    for r in range(rows + 1):
        y_here = (rows - r) * ymax // rows
        label = f"{y_here:>4} |" if r in (0, rows) or rows <= 12 else "     |"
        lines.append((label + "".join(grid[r][margin:])).rstrip())
    lines.append("     +" + "-" * cols)
    lines.append(f"      0{'':{cols - len(str(xmax)) - 1}}{xmax}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG

_LOG_KNEE = 32


def _x_unit(x: int, linear: bool) -> float:
    if linear or x <= _LOG_KNEE:
        return float(x)
    return _LOG_KNEE + 8.0 * math.log2(x / _LOG_KNEE)


def render_svg(fig: PolygonFigure, linear_x: bool = False) -> str:
    """Deterministic SVG 1.1: same input and version, same bytes.

    The x axis switches to a logarithmic scale beyond abscissa 32 so
    high-degree polygons stay legible; linear_x forces a linear axis.
    """
    pad = 40.0
    sx = 18.0
    sy = 22.0
    xs = [i for i, _ in fig.points] or [1]
    ys = [v for _, v in fig.points] or [1]
    xmax = max(max(xs), 1)
    ymax = max(max(ys), 1)
    width = pad * 2 + _x_unit(xmax, linear_x) * sx
    height = pad * 2 + ymax * sy

    def px(x: int) -> float:
        return pad + _x_unit(x, linear_x) * sx

    def py(y) -> float:
        return height - pad - float(y) * sy

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(width)}" height="{fmt(height)}" '
        f'viewBox="0 0 {fmt(width)} {fmt(height)}" '
        f'data-generator="monogenity {__version__}">',
        f"<title>{fig.title}</title>",
        f'<rect x="0" y="0" width="{fmt(width)}" height="{fmt(height)}" fill="white"/>',
        f'<line x1="{fmt(pad)}" y1="{fmt(py(0))}" x2="{fmt(width - pad / 2)}" '
        f'y2="{fmt(py(0))}" stroke="black" stroke-width="1"/>',
        f'<line x1="{fmt(pad)}" y1="{fmt(py(0))}" x2="{fmt(pad)}" '
        f'y2="{fmt(pad / 2)}" stroke="black" stroke-width="1"/>',
    ]
    for x, y in fig.index_points:
        cx, cy = px(x), py(y)
        parts.append(
            f'<path d="M {fmt(cx - 3)} {fmt(cy - 3)} L {fmt(cx + 3)} {fmt(cy + 3)} '
            f'M {fmt(cx - 3)} {fmt(cy + 3)} L {fmt(cx + 3)} {fmt(cy - 3)}" '
            f'stroke="#888888" stroke-width="1" class="index-point"/>'
        )
    if fig.polygon.sides:
        coords = " ".join(
            f"{fmt(px(v.i))},{fmt(py(v.v))}" for v in fig.polygon.vertices
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f4e9c" stroke-width="2"/>'
        )
    for i, v in fig.points:
        parts.append(f'<circle cx="{fmt(px(i))}" cy="{fmt(py(v))}" r="2.5" fill="#c03020"/>')
    for vertex in fig.polygon.vertices:
        parts.append(
            f'<circle cx="{fmt(px(vertex.i))}" cy="{fmt(py(vertex.v))}" r="3.5" '
            f'fill="none" stroke="#1f4e9c" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{fmt(px(vertex.i) + 5)}" y="{fmt(py(vertex.v) - 5)}" '
            f'font-size="10" font-family="monospace">({vertex.i},{vertex.v})</text>'
        )
    for k, side in enumerate(fig.polygon.sides):
        mid_x = (px(side.start.i) + px(side.end.i)) / 2
        mid_y = (py(side.start.v) + py(side.end.v)) / 2
        parts.append(
            f'<text x="{fmt(mid_x + 4)}" y="{fmt(mid_y - 4)}" font-size="10" '
            f'font-family="monospace" fill="#1f4e9c">S{k + 1}: {side.slope_text()}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
