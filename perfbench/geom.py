"""Brute-force lattice geometry used to build inputs and to check outputs.

Deliberately written apart from ``plucker.lattice``: every check that
compares against these helpers compares the program with an independent
computation.
"""
from __future__ import annotations

import math

Point = tuple[int, int]

FIVE_DELTA: list[Point] = [(0, 0), (5, 0), (0, 5)]


def cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points) -> list[Point]:
    """Strictly convex CCW vertex cycle (monotone chain)."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def edges(verts: list[Point]) -> list[tuple[Point, Point]]:
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def doubled_area(verts: list[Point]) -> int:
    return abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in edges(verts)))


def inside(verts: list[Point], p: Point) -> bool:
    """p in the closed CCW polygon (at least 3 vertices)."""
    return all(cross(a, b, p) >= 0 for a, b in edges(verts))


def on_boundary(verts: list[Point], p: Point) -> bool:
    return inside(verts, p) and any(cross(a, b, p) == 0 for a, b in edges(verts))


def lattice_points(verts: list[Point]) -> list[Point]:
    """All lattice points of the polygon, lexicographic, by scanning its box."""
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    return [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if inside(verts, (x, y))
    ]


def translate(verts, t: Point) -> list[Point]:
    return [(x + t[0], y + t[1]) for x, y in verts]


def rotate(verts) -> list[Point]:
    """The order-3 exponent map (a, b) -> (b, -a-b)."""
    return [(b, -a - b) for a, b in verts]


def canonical(verts) -> tuple[Point, ...]:
    """Vertex set translated so its lexicographic minimum is the origin."""
    m = min(verts)
    return tuple(sorted((x - m[0], y - m[1]) for x, y in verts))


def same_up_to_translation(a, b) -> bool:
    return canonical(a) == canonical(b)


def primitive(v: Point) -> Point:
    g = math.gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def outer_edge_lengths(verts: list[Point]) -> dict[Point, int]:
    """Outer primitive normal -> lattice length, for each edge of a CCW polygon."""
    out: dict[Point, int] = {}
    for a, b in edges(verts):
        dx, dy = b[0] - a[0], b[1] - a[1]
        out[primitive((dy, -dx))] = math.gcd(abs(dx), abs(dy))
    return out


def contains_translate(big: list[Point], small: list[Point]) -> bool:
    """Some integer translate of ``small`` lies inside ``big`` (brute force)."""
    bx = [v[0] for v in big]
    by = [v[1] for v in big]
    sx = [v[0] for v in small]
    sy = [v[1] for v in small]
    for tx in range(min(bx) - min(sx), max(bx) - max(sx) + 1):
        for ty in range(min(by) - min(sy), max(by) - max(sy) + 1):
            if all(inside(big, (x + tx, y + ty)) for x, y in small):
                return True
    return False


def thin_triangle(k: int) -> list[Point]:
    """conv{(1,0), (2,0), (1-k, 1+2k)}: the family on which assumption 2 fails."""
    return [(1, 0), (2, 0), (1 - k, 1 + 2 * k)]


def thin_orbit_k(verts: list[Point]) -> int | None:
    """k if the polygon, or one of its two rotations, translates to the thin
    triangle of parameter k; None otherwise."""
    if len(verts) != 3:
        return None
    pk = list(verts)
    for _ in range(3):
        c = canonical(pk)
        height = max(y for _, y in c) - min(y for _, y in c)
        for k in range(height + 1):
            if canonical(thin_triangle(k)) == c:
                return k
        pk = rotate(pk)
    return None
