"""Invariants of a generic plane curve computed from its Newton polygon.

Every invariant is exact integer arithmetic on two things read off P: its
doubled area A and its edge table ``edge_fan(P)`` (outer primitive normal
-> lattice length).  ``plucker_report`` reads that pair once and derives
every field from it: the headline counts (inflection points, bitangents),
the tropical fan and Newton polygon of the dual curve with its area, the
genus, the Euler characteristic of the compactified curve and the
vertical tangents.  ``inflection_count``, ``bitangent_count`` and
``dual_area_closed`` return the report's field; ``dual_polygon`` walks
``dual_fan`` alone, without the closed area's cross-check.  ``dual_fan``
and ``vertical_tangent_count`` stay defined on a line and read the pair
themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    DOWN,
    LOWER_ARROWS,
    UP,
    UPPER_ARROWS,
    ARROWS,
    DegeneratePolygonError,
    LatticePolygon,
    Point,
    add,
    doubled_area,
    edge_fan,
    neg,
    sort_rays_ccw,
    volume,
)


class FormulaInternalError(AssertionError):
    """A structural identity (balancing, closure, double-entry area) failed.

    This would falsify either the implementation or the theorems it encodes,
    so it is never caught silently.
    """


def _dual_fan(P: LatticePolygon, A: int, lengths: dict[Point, int]) -> dict[Point, int]:
    rays = {g: A - lengths.get(g, 0) + lengths.get(neg(g), 0) for g in LOWER_ARROWS}
    rays.update((neg(n), w) for n, w in lengths.items() if n not in ARROWS)
    fan = {g: w for g, w in rays.items() if w != 0}
    if any(w < 0 for w in fan.values()):
        raise FormulaInternalError(f"negative dual-fan weight for {P.vertices}")
    if sum(u * w for (u, _), w in fan.items()) or sum(v * w for (_, v), w in fan.items()):
        raise FormulaInternalError(f"dual fan does not balance for {P.vertices}")
    return fan


def dual_fan(P: LatticePolygon) -> dict[Point, int]:
    """Tropical fan of the dual curve: primitive direction -> positive weight.

    Weights: 2 vol - len P^g + len P^-g on the three lower arrows, zero on
    the upper arrows, and len P^-g on every other primitive direction g.
    Directions of weight zero are absent; the fan of a line is empty.
    """
    return _dual_fan(P, doubled_area(P), edge_fan(P))


def _dual_polygon(P: LatticePolygon, fan: dict[Point, int]) -> LatticePolygon:
    """The Newton polygon of the dual curve, walked from its fan: each ray
    (g, w) contributes an edge with outer normal g and lattice length w, and
    balancing closes the walk."""
    if not fan:
        raise DegeneratePolygonError(
            f"the dual fan of {P.vertices} is empty: the curve is a line and its dual is a point"
        )
    verts: list[Point] = [(0, 0)]
    for u, v in sort_rays_ccw(fan):
        w = fan[(u, v)]
        verts.append(add(verts[-1], (-v * w, u * w)))
    if verts[-1] != verts[0]:
        raise FormulaInternalError(f"dual polygon edge walk does not close for {P.vertices}")
    return LatticePolygon.hull(verts[:-1]).canonical()


def _dual_area(
    P: LatticePolygon, A: int, lengths: dict[Point, int], dual: LatticePolygon
) -> Fraction:
    """The closed dual area of P, checked against the walked ``dual``.

    The dual polygon is the virtual polygon 2S*Delta + (-P) - sum l_g*E_g
    over the lower arrows g, where E_g is the unit edge of Delta with outer
    normal g.  Twice its area is the mixed volume of the combination with
    itself, expanded by bilinearity over this table of mixed volumes (with
    MV(A, A) = 2 vol(A)):

        MV(Delta, Delta) = 1          MV(-P, -P) = A = 2S
        MV(Delta, -P)    = M          MV(Delta, E_g) = 1
        MV(-P, E_down)   = H          MV(-P, E_ne) = D     MV(-P, E_left) = W
        MV(E_g, E_h)     = 1 (g != h) MV(E_g, E_g) = 0

    H, D and W are P's widths in y, x+y and x, and M = max x + max y -
    min (x+y) is the sum of -P's support values at the lower arrows.
    """
    l_down, l_ne, l_left = (lengths.get(g, 0) for g in LOWER_ARROWS)
    xs = [x for x, _ in P.vertices]
    ys = [y for _, y in P.vertices]
    sums = [x + y for x, y in P.vertices]
    H, D, W = max(ys) - min(ys), max(sums) - min(sums), max(xs) - min(xs)
    M = max(xs) + max(ys) - min(sums)
    L = l_down + l_ne + l_left
    twice = (
        A * A
        + A
        + 2 * A * M
        - 2 * A * L
        - 2 * (l_down * H + l_ne * D + l_left * W)
        + 2 * (l_down * l_ne + l_down * l_left + l_ne * l_left)
    )
    area = Fraction(twice, 2)
    recon = volume(dual)
    if area != recon:
        raise FormulaInternalError(
            f"closed dual area {area} != reconstructed {recon} for {P.vertices}"
        )
    return area


def _vertical_tangents(A: int, lengths: dict[Point, int]) -> int:
    return A - lengths.get(DOWN, 0) - lengths.get(UP, 0)


def vertical_tangent_count(P: LatticePolygon) -> int:
    """2 vol(P) - len P^down - len P^up."""
    return _vertical_tangents(doubled_area(P), edge_fan(P))


@dataclass(frozen=True)
class PluckerReport:
    polygon: LatticePolygon
    vol: Fraction
    inflections: int
    bitangents: Fraction
    dual_fan: dict[Point, int]
    dual_polygon: LatticePolygon
    dual_vol: Fraction
    euler_char: int
    genus: int
    vertical_tangents: int


def plucker_report(P: LatticePolygon) -> PluckerReport:
    """Every invariant of P, from one read of its doubled area and edge table.

    Raises DegeneratePolygonError on a segment or a point, and on a line (a
    unit-triangle translate), whose dual is a point.
    """
    A, lengths = doubled_area(P), edge_fan(P)
    fan = _dual_fan(P, A, lengths)
    dual = _dual_polygon(P, fan)
    dual_vol = _dual_area(P, A, lengths, dual)
    lower = sum(lengths.get(g, 0) for g in LOWER_ARROWS)
    upper = sum(lengths.get(g, 0) for g in UPPER_ARROWS)
    euler_char = sum(lengths.values()) - A  # the lattice perimeter less 2 vol(P)
    return PluckerReport(
        polygon=P,
        vol=Fraction(A, 2),
        inflections=3 * A - 2 * lower - upper,
        bitangents=-5 * A + dual_vol + 3 * lower + upper,
        dual_fan=fan,
        dual_polygon=dual,
        dual_vol=dual_vol,
        euler_char=euler_char,
        genus=1 - euler_char // 2,  # by Pick, the interior lattice points
        vertical_tangents=_vertical_tangents(A, lengths),
    )


def inflection_count(P: LatticePolygon) -> int:
    """6 vol(P) - 2 (len down + len ne + len left) - (len up + len sw + len right).

    The value is the true inflection count of a generic curve supported on P
    when the genericity assumptions are verified.
    """
    return plucker_report(P).inflections


def bitangent_count(P: LatticePolygon) -> Fraction:
    """-10 vol(P) + vol(dual) + 3 (lower arrow lengths) + (upper arrow lengths).

    Returned as an exact rational; integrality is only guaranteed when the
    genericity assumptions are verified.
    """
    return plucker_report(P).bitangents


def dual_polygon(P: LatticePolygon) -> LatticePolygon:
    """Newton polygon of the dual curve, reconstructed from its normal fan
    and anchored with its lexicographically minimal vertex at the origin.

    Raises DegeneratePolygonError on a segment or a point, and on a line,
    whose dual is a point."""
    return _dual_polygon(P, dual_fan(P))


def dual_area_closed(P: LatticePolygon) -> Fraction:
    """Area of the dual polygon from the closed formula.

    Evaluates vol of the virtual polygon
    2S*Delta + (-P) - l_down*E(down) - l_ne*E(ne) - l_left*E(left)
    as an integer polynomial in P's area, face lengths and widths, and
    cross-checks the result against the shoelace area of the reconstructed
    dual polygon.
    """
    return plucker_report(P).dual_vol
