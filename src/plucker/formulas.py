"""Invariants of a generic plane curve computed from its Newton polygon.

The headline counts (inflection points, bitangents), the tropical fan and
Newton polygon of the dual curve, and the Euler characteristic are all
evaluated by exact integer/rational arithmetic on the polygon.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    LOWER_ARROWS,
    UPPER_ARROWS,
    ARROWS,
    DegeneratePolygonError,
    LatticePolygon,
    Point,
    WeightedFan,
    add,
    boundary_lattice_points,
    doubled_area,
    edge_fan,
    interior_lattice_points,
    neg,
    sort_rays_ccw,
    volume,
)


class FormulaInternalError(AssertionError):
    """A structural identity (balancing, closure, double-entry area) failed.

    This would falsify either the implementation or the theorems it encodes,
    so it is never caught silently.
    """


def _arrow_sums(P: LatticePolygon) -> tuple[int, int]:
    lengths = edge_fan(P).as_dict()
    lower = sum(lengths.get(g, 0) for g in LOWER_ARROWS)
    upper = sum(lengths.get(g, 0) for g in UPPER_ARROWS)
    return lower, upper


def inflection_count(P: LatticePolygon) -> int:
    """6 vol(P) - 2 (len down + len ne + len left) - (len up + len sw + len right).

    The value is the true inflection count of a generic curve supported on P
    when the genericity assumptions are verified.
    """
    P.require_dim2()
    lower, upper = _arrow_sums(P)
    return 3 * doubled_area(P) - 2 * lower - upper


def dual_fan(P: LatticePolygon) -> WeightedFan:
    """Tropical fan of the dual curve.

    Weights: 2 vol - len P^g + len P^-g on the three lower arrows, zero on
    the upper arrows, and len P^-g on every other primitive direction g.
    """
    P.require_dim2()
    da = doubled_area(P)
    lengths = edge_fan(P).as_dict()
    rays = {g: da - lengths.get(g, 0) + lengths.get(neg(g), 0) for g in LOWER_ARROWS}
    rays.update((neg(n), w) for n, w in lengths.items() if n not in ARROWS)
    fan = WeightedFan.from_dict({g: w for g, w in rays.items() if w != 0})
    if any(w < 0 for _, w in fan.rays):
        raise FormulaInternalError(f"negative dual-fan weight for {P.vertices}")
    if not fan.is_balanced():
        raise FormulaInternalError(f"dual fan does not balance for {P.vertices}")
    return fan


def _dual_fan_and_polygon(P: LatticePolygon) -> tuple[WeightedFan, LatticePolygon]:
    """The dual fan and the dual polygon rebuilt from it, deriving the fan once."""
    fan = dual_fan(P)
    if not fan.rays:
        raise DegeneratePolygonError(
            f"the dual fan of {P.vertices} is empty: the curve is a line and its dual is a point"
        )
    weights = fan.as_dict()
    verts: list[Point] = [(0, 0)]
    for u, v in sort_rays_ccw(weights):
        w = weights[(u, v)]
        verts.append(add(verts[-1], (-v * w, u * w)))
    if verts[-1] != verts[0]:
        raise FormulaInternalError(f"dual polygon edge walk does not close for {P.vertices}")
    return fan, LatticePolygon.hull(verts[:-1]).canonical()


def dual_polygon(P: LatticePolygon) -> LatticePolygon:
    """Newton polygon of the dual curve, reconstructed from its normal fan.

    Each ray (g, w) contributes an edge with outer normal g and lattice
    length w; balancing guarantees the edge walk closes.  The result is
    anchored with its lexicographically minimal vertex at the origin.
    """
    return _dual_fan_and_polygon(P)[1]


def _checked_dual_area(P: LatticePolygon, dual: LatticePolygon) -> Fraction:
    """The closed dual area of P, checked against the reconstructed ``dual``.

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
    A = doubled_area(P)
    lengths = edge_fan(P).as_dict()
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


def dual_area_closed(P: LatticePolygon) -> Fraction:
    """Area of the dual polygon from the closed formula.

    Evaluates vol of the virtual polygon
    2S*Delta + (-P) - l_down*E(down) - l_ne*E(ne) - l_left*E(left)
    as an integer polynomial in P's area, face lengths and widths, and
    cross-checks the result against the shoelace area of the reconstructed
    dual polygon.
    """
    return _checked_dual_area(P, dual_polygon(P))


def _bitangents(P: LatticePolygon, dual_area: Fraction) -> Fraction:
    lower, upper = _arrow_sums(P)
    return -5 * doubled_area(P) + dual_area + 3 * lower + upper


def bitangent_count(P: LatticePolygon) -> Fraction:
    """-10 vol(P) + vol(dual) + 3 (lower arrow lengths) + (upper arrow lengths).

    Returned as an exact rational; integrality is only guaranteed when the
    genericity assumptions are verified.
    """
    return _bitangents(P, dual_area_closed(P))


def vertical_tangent_count(P: LatticePolygon) -> int:
    """2 vol(P) - len P^down - len P^up."""
    P.require_dim2()
    lengths = edge_fan(P).as_dict()
    return doubled_area(P) - lengths.get((0, -1), 0) - lengths.get((0, 1), 0)


def euler_characteristic(P: LatticePolygon) -> int:
    """-2 vol(P) plus the lattice perimeter (the compactified curve's
    Euler characteristic)."""
    return -doubled_area(P) + boundary_lattice_points(P)


@dataclass(frozen=True)
class PluckerReport:
    polygon: LatticePolygon
    vol: Fraction
    inflections: int
    bitangents: Fraction
    dual_fan: WeightedFan
    dual_polygon: LatticePolygon
    dual_vol: Fraction
    euler_char: int
    genus: int
    vertical_tangents: int


def plucker_report(P: LatticePolygon) -> PluckerReport:
    fan, dual = _dual_fan_and_polygon(P)
    dvol = _checked_dual_area(P, dual)
    return PluckerReport(
        polygon=P,
        vol=volume(P),
        inflections=inflection_count(P),
        bitangents=_bitangents(P, dvol),
        dual_fan=fan,
        dual_polygon=dual,
        dual_vol=dvol,
        euler_char=euler_characteristic(P),
        genus=interior_lattice_points(P),
        vertical_tangents=vertical_tangent_count(P),
    )
