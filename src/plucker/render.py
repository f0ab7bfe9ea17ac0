"""Static SVG pictures: a polygon on the lattice grid and a weighted fan,
placed side by side for the CLI.  The grid is one SVG pattern, so a
picture's size depends on the vertex counts alone, not on the areas, and
a panel larger than _MAX_SIDE on a side is scaled down to fit it."""
from __future__ import annotations

import math

from .lattice import LatticePolygon, Point

_CELL = 28
_PAD = 24
_MAX_SIDE = 2048
_STYLE = (
    "fill:#4a7fb5;fill-opacity:0.35;stroke:#1f4e79;stroke-width:2"
)
# A panel is its width, its height and the body lines of its picture.
_Panel = tuple[int, int, list[str]]
# One lattice cell.  A panel puts its box's lattice points at _PAD plus
# multiples of _CELL, where the tile corners fall; a tile clips what it draws
# to the inner half of its edge lines and a quarter of each corner dot.
_GRID = (
    f'<defs><pattern id="grid" x="{_PAD}" y="{_PAD}" width="{_CELL}" height="{_CELL}" '
    f'patternUnits="userSpaceOnUse"><rect width="{_CELL}" height="{_CELL}" fill="none" '
    'stroke="#ddd" stroke-width="1"/>'
    + "".join(f'<circle cx="{x}" cy="{y}" r="2" fill="#999"/>' for x in (0, _CELL) for y in (0, _CELL))
    + "</pattern></defs>"
)


def _polygon_panel(P: LatticePolygon, title: str) -> _Panel:
    """One polygon on its lattice grid, with a one-cell margin."""
    (xl, yl), (xh, yh) = P.bounding_box()
    xl -= 1
    yl -= 1
    xh += 1
    yh += 1
    w = (xh - xl) * _CELL + 2 * _PAD
    h = (yh - yl) * _CELL + 2 * _PAD

    def tx(x):
        return _PAD + (x - xl) * _CELL

    def ty(y):
        return h - _PAD - (y - yl) * _CELL

    pts = " ".join(f"{tx(x)},{ty(y)}" for x, y in P.vertices)
    parts = [
        f'<rect width="{w}" height="{h}" fill="white"/>',
        # the box's grid, a dot's radius wider on each side for whole edge dots
        f'<rect x="{_PAD - 2}" y="{_PAD - 2}" width="{w - 2 * _PAD + 4}" '
        f'height="{h - 2 * _PAD + 4}" fill="url(#grid)"/>',
        f'<polygon points="{pts}" style="{_STYLE}"/>',
    ]
    for x, y in P.vertices:
        parts.append(f'<circle cx="{tx(x)}" cy="{ty(y)}" r="4" fill="#1f4e79"/>')
    parts.append(
        f'<text x="{_PAD}" y="16" font-family="monospace" font-size="13">{title}</text>'
    )
    return w, h, parts


def _fan_panel(fan: dict[Point, int], title: str) -> _Panel:
    """Weighted rays from the origin, labelled by their weights."""
    size = 240
    c = size / 2
    ray_len = size / 2 - 36
    parts = [
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{c}" x2="{size}" y2="{c}" stroke="#eee"/>',
        f'<line x1="{c}" y1="0" x2="{c}" y2="{size}" stroke="#eee"/>',
    ]
    for (u, v), w in sorted(fan.items()):
        n = math.hypot(u, v)
        ex = c + ray_len * u / n
        ey = c - ray_len * v / n
        parts.append(
            f'<line x1="{c}" y1="{c}" x2="{ex:.1f}" y2="{ey:.1f}" '
            'stroke="#b33" stroke-width="2"/>'
        )
        lx = c + (ray_len + 14) * u / n
        ly = c - (ray_len + 14) * v / n
        parts.append(
            f'<text x="{lx:.1f}" y="{ly + 4:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{w}</text>'
        )
    parts.append(f'<circle cx="{c}" cy="{c}" r="3" fill="#333"/>')
    parts.append(f'<text x="8" y="16" font-family="monospace" font-size="13">{title}</text>')
    return size, size, parts


def svg_report(
    P: LatticePolygon, fan: dict[Point, int], dual: LatticePolygon
) -> str:
    """Polygon, dual fan and dual polygon side by side.  A panel whose
    larger side M exceeds _MAX_SIDE is drawn at scale s = _MAX_SIDE / M
    and declares its sides times s, rounded up; the grid tiles are in the
    panel's user space, so they scale with it."""
    panels = [
        _polygon_panel(P, "Newton polygon"),
        _fan_panel(fan, "dual tropical fan"),
        _polygon_panel(dual, "dual Newton polygon"),
    ]
    gap = 12
    x = 0
    parts = []
    height = 0
    for w, h, body in panels:
        transform = f"translate({x},0)"
        side = max(w, h)
        if side > _MAX_SIDE:
            transform += f" scale({_MAX_SIDE / side!r})"
            w, h = -(-w * _MAX_SIDE // side), -(-h * _MAX_SIDE // side)
        parts.append(f'<g transform="{transform}">' + "\n".join(body) + "\n</g>")
        x += w + gap
        height = max(height, h)
    width = x - gap
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    return "\n".join([head, _GRID, f'<rect width="{width}" height="{height}" fill="white"/>'] + parts + ["</svg>"])
