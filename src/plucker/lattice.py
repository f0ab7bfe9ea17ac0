"""Exact integer lattice geometry: polygons, edge tables, mixed volumes.

Everything here works over the integers (areas are stored doubled) so that
no rounding can creep into the combinatorial formulas built on top.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import repeat
from typing import Iterable, Iterator, Optional

Point = tuple[int, int]

# The six named covectors: DOWN is the functional -y, NE is x+y, LEFT is -x,
# and UP, SW, RIGHT are their negatives.
DOWN: Point = (0, -1)
NE: Point = (1, 1)
LEFT: Point = (-1, 0)
UP: Point = (0, 1)
SW: Point = (-1, -1)
RIGHT: Point = (1, 0)

LOWER_ARROWS: tuple[Point, ...] = (DOWN, NE, LEFT)
UPPER_ARROWS: tuple[Point, ...] = (UP, SW, RIGHT)
ARROWS: tuple[Point, ...] = LOWER_ARROWS + UPPER_ARROWS


class DegeneratePolygonError(ValueError):
    """Raised when an operation requires a 2-dimensional polygon."""


def cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def neg(v: Point) -> Point:
    return (-v[0], -v[1])


def add(p: Point, q: Point) -> Point:
    return (p[0] + q[0], p[1] + q[1])


def sub(p: Point, q: Point) -> Point:
    return (p[0] - q[0], p[1] - q[1])


def rotate_point(p: Point) -> Point:
    """Exponent action of the monomial map x -> 1/y, y -> x/y."""
    a, b = p
    return (b, -a - b)


def _hull_vertices(points: Iterable[Point]) -> tuple[Point, ...]:
    """Andrew's monotone chain; strictly convex CCW vertex cycle."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return (pts[0],)
    if len(pts) == 2:
        return tuple(pts)
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
    return tuple(lower[:-1] + upper[:-1])


def segment_length(a: Point, b: Point) -> int:
    return math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))


@dataclass(frozen=True)
class LatticePolygon:
    """Convex lattice polygon as a CCW vertex cycle.

    Degenerate cases (a single point, a segment) are representable and
    carry dim 0 or 1; formula-level operations reject them explicitly.
    """

    vertices: tuple[Point, ...]

    @staticmethod
    def hull(points: Iterable[Point]) -> "LatticePolygon":
        pts = list(points)
        if not pts:
            raise ValueError("cannot take the hull of an empty set")
        return LatticePolygon(_hull_vertices(pts))

    @property
    def dim(self) -> int:
        n = len(self.vertices)
        if n == 1:
            return 0
        if n == 2:
            return 1
        return 2

    def require_dim2(self) -> None:
        if self.dim < 2:
            raise DegeneratePolygonError(
                f"operation requires a 2-dimensional polygon, got dim {self.dim}"
            )

    def edges(self) -> list[tuple[Point, Point]]:
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def translate(self, t: Point) -> "LatticePolygon":
        return LatticePolygon(tuple(add(v, t) for v in self.vertices))

    def canonical(self) -> "LatticePolygon":
        """Translate so the lexicographically minimal vertex sits at the origin."""
        m = min(self.vertices)
        return self.translate((-m[0], -m[1]))

    def bounding_box(self) -> tuple[Point, Point]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def contains_point(self, p: Point) -> bool:
        verts = self.vertices
        if len(verts) == 1:
            return p == verts[0]
        if len(verts) == 2:
            a, b = verts
            if cross(a, b, p) != 0:
                return False
            lo = (min(a[0], b[0]), min(a[1], b[1]))
            hi = (max(a[0], b[0]), max(a[1], b[1]))
            return lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]
        return all(cross(a, b, p) >= 0 for a, b in self.edges())

    def __contains__(self, p: Point) -> bool:
        return self.contains_point(p)


Diagram = frozenset  # finite set of lattice points (a Newton diagram)


def doubled_area(P: LatticePolygon) -> int:
    verts = P.vertices
    if len(verts) < 3:
        return 0
    s = 0
    for (x0, y0), (x1, y1) in P.edges():
        s += x0 * y1 - x1 * y0
    return abs(s)


def volume(P: LatticePolygon) -> Fraction:
    return Fraction(doubled_area(P), 2)


def mixed_volume(P: LatticePolygon, Q: LatticePolygon) -> Fraction:
    """vol(P+Q) - vol(P) - vol(Q), an exact half-integer; P+Q is the hull
    of the pairwise vertex sums."""
    PQ = LatticePolygon.hull(add(p, q) for p in P.vertices for q in Q.vertices)
    return Fraction(doubled_area(PQ) - doubled_area(P) - doubled_area(Q), 2)


def dilate(P: LatticePolygon, k: int) -> LatticePolygon:
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    return LatticePolygon(tuple((k * x, k * y) for x, y in P.vertices))


def rotate_r(P: LatticePolygon) -> LatticePolygon:
    """Apply the order-3 exponent map (a,b) -> (b,-a-b), then translate
    the result to canonical position."""
    return LatticePolygon.hull(rotate_point(v) for v in P.vertices).canonical()


def _floors(c: int, dx: int, dy: int, xs: range) -> Iterator[int]:
    """floor((c + dy*x) / dx) for each x in xs."""
    return ((c + dy * x) // dx for x in xs)


def _columns(P: LatticePolygon, Q: tuple[Point, ...]) -> Iterator[tuple[int, int, int]]:
    """The translations t with Q + t inside P: (x, lo, hi) for each x of the
    window where Q's bounding box fits in P's, the translations at x being
    (x, lo..hi), none when lo > hi.  A CCW edge a -> b holds Q + t exactly
    when it holds q + t for the q of Q minimising cross(a, b, q), so t obeys
    the edge moved by -q: edges running right bound y from below, those
    running left from above, within the boxes; vertical edges bound the window."""
    (pxl, pyl), (pxh, pyh) = P.bounding_box()
    qxl, qxh = min(x for x, _ in Q), max(x for x, _ in Q)
    qyl, qyh = min(y for _, y in Q), max(y for _, y in Q)
    if qxh - qxl > pxh - pxl or qyh - qyl > pyh - pyl:
        return
    xs = range(pxl - qxl, pxh - qxh + 1)
    lows, highs = [repeat(pyl - qyl)], [repeat(pyh - qyh)]
    # Edge a -> b with dx = bx - ax: its line has height (c + dy*x) / dx, c = ay*dx - dy*ax,
    # and ceil(n / dx) = floor((n + dx - 1) / dx) when dx > 0.
    for (ax, ay), (bx, by) in P.edges():
        dx, dy = bx - ax, by - ay
        if dx:
            qx, qy = min(Q, key=lambda q: dx * q[1] - dy * q[0])
            c = (ay - qy) * dx - dy * (ax - qx)
            if dx > 0:
                lows.append(_floors(c + dx - 1, dx, dy, xs))
            else:
                highs.append(_floors(c, dx, dy, xs))
    yield from zip(xs, map(max, zip(*lows)), map(min, zip(*highs)))


def contains_translate(
    P: LatticePolygon, Q: "LatticePolygon | Iterable[Point]"
) -> Optional[Point]:
    """The lexicographically least integer translation t with Q + t inside
    P, or None: the lowest translation of the first column of ``_columns``
    that has one."""
    qpts = Q.vertices if isinstance(Q, LatticePolygon) else tuple(Q)
    if not qpts:
        raise ValueError("empty point set")
    return next(((x, lo) for x, lo, hi in _columns(P, qpts) if lo <= hi), None)


@lru_cache(maxsize=1)
def lattice_points(P: LatticePolygon) -> tuple[Point, ...]:
    """All lattice points of P (boundary included), in lexicographic order:
    the translations of the origin into P, listed by ``_columns``.

    The last polygon listed is remembered by value, as each search or
    sample asks again for the points it needs, and every command lists P
    alone.  Its listing stays alive after the call, so a caller that lists
    a huge polygon frees it with ``lattice_points.cache_clear()``.
    """
    return tuple((x, y) for x, lo, hi in _columns(P, ((0, 0),)) for y in range(lo, hi + 1))


def interior_lattice_points(P: LatticePolygon) -> int:
    """Count of lattice points strictly inside P, via Pick's theorem."""
    P.require_dim2()
    perimeter = sum(segment_length(p, q) for p, q in P.edges())
    return (doubled_area(P) - perimeter + 2) // 2


def _ray_angle_cmp(a: Point, b: Point) -> int:
    """CCW angular order starting from the positive x-axis."""

    def half(v: Point) -> int:
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return ha - hb
    c = a[0] * b[1] - a[1] * b[0]
    return 0 if c == 0 else (-1 if c > 0 else 1)


def sort_rays_ccw(rays: Iterable[Point]) -> list[Point]:
    return sorted(rays, key=cmp_to_key(_ray_angle_cmp))


def edge_fan(P: LatticePolygon) -> dict[Point, int]:
    """The edge table of P: outer primitive normal -> lattice length of the
    edge.  Read as a weighted fan it is the normal fan of P (the tropical
    fan of a generic curve with Newton polygon P), and the lengths sum to
    the lattice perimeter.  The value at a primitive direction g is the
    lattice length of P's face where <g, .> is maximal; g is absent
    exactly when that face is a vertex (length 0)."""
    P.require_dim2()
    lengths: dict[Point, int] = {}
    for (ax, ay), (bx, by) in P.edges():
        dx, dy = bx - ax, by - ay
        n = math.gcd(dx, dy)  # the edge's lattice length
        lengths[(dy // n, -dx // n)] = n  # keyed by its outer normal (P is CCW)
    return lengths


def standard_triangle(k: int = 1) -> LatticePolygon:
    """The triangle k * Delta with vertices (0,0), (k,0), (0,k)."""
    return LatticePolygon(((0, 0), (k, 0), (0, k)))


def rectangle(c: int, d: int) -> LatticePolygon:
    return LatticePolygon(((0, 0), (c, 0), (c, d), (0, d)))
