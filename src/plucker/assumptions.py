"""Tri-state genericity checks for a Newton polygon.

The three assumptions behind the invariant formulas are decided by a
battery of sufficient combinatorial criteria.  Each criterion gives one
evidence line (criterion, k, outcome) per direction k it runs in, the test
applied to r^k(P).  Assumption 1 or 3 is Verified exactly when every one
of its criteria passed, and Unknown otherwise: failure of the battery never
yields FailsKnown.  Assumption 2 has an exact classification (the
thin-triangle family), so it is Verified or FailsKnown.

The outcomes that pass, then "|" and those that fail; every search also
fails on "budget exhausted".  Assumption 1, in direction 0 or (k) in all three:
  no-tritangents: Q6-generalized subdiagram found; contains 5R for a unimodular
    parallelogram | no Q6 subdiagram, no 5R
  no-inflected-bitangents: Q5 subdiagram found | no Q5 subdiagram
  no-higher-flexes: Q4 subdiagram found | no Q4 subdiagram
  no-boundary-bitangents (k): bottom face is a vertex; Q4 subdiagram aligned with the
    bottom edge; two lattice points on a row at height >= 2 above the bottom edge
    | no condition fired
  no-inflections-at-infinity (k): not a thin triangle | thin triangle
  no-corner-bitangents: 2-dimensional and not the unit triangle | polygon is the unit triangle
Assumption 2, in the direction of the thin rotation, else 0:
  thin-classification: not in the thin orbit | thin triangle
Assumption 3, each in all three directions:
  no-vertical-bitangents: 4 consecutive ordinates; vertical degree at most 3
    | no condition fired
  no-vertical-inflections: at least 3 ordinates | fewer than 3 ordinates
  no-tangent-asymptotes: 3 ordinates or top face is a vertex | no condition fired

When P contains a translate of 5*Delta, ``full_assumption_report`` skips
the battery: all three are Verified on the one line contains-5-delta,
"contains a translate of 5*Delta".
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import islice, product
from typing import Iterable, Optional

from .lattice import (
    DOWN,
    LOWER_ARROWS,
    UP,
    Diagram,
    LatticePolygon,
    Point,
    add,
    contains_translate,
    dilate,
    edge_fan,
    lattice_points,
    neg,
    rotate_r,
    standard_triangle,
    sub,
)

DEFAULT_SEARCH_BUDGET = 200_000


class Verdict(str, Enum):
    VERIFIED = "Verified"
    UNKNOWN = "Unknown"
    FAILS_KNOWN = "FailsKnown"


Evidence = list[tuple[str, int, str]]  # (criterion name, direction 0|1|2, outcome)
_Row = tuple[str, int, bool, str]  # (criterion name, direction, passed, outcome)


@dataclass(frozen=True)
class ThinTriangleWitness:
    """P (possibly after some power of the rotation) is a translate of the
    triangle with vertices (1,0), (2,0), (1-k, 1+2k)."""

    k: int
    translation: Point
    rotation_power: int = 0


@dataclass
class AssumptionReport:
    a1: Verdict
    a2: Verdict
    a3: Verdict
    evidence: Evidence = field(default_factory=list)
    thin_witness: Optional[ThinTriangleWitness] = None

    @property
    def all_verified(self) -> bool:
        return all(v is Verdict.VERIFIED for v in (self.a1, self.a2, self.a3))


def is_thin(P: LatticePolygon) -> Optional[ThinTriangleWitness]:
    """Witness that P is a lattice translate of conv{(1,0),(2,0),(1-k,1+2k)}."""
    verts = P.vertices
    if len(verts) != 3:
        return None
    for p in verts:
        for q in verts:
            if sub(q, p) != (1, 0):
                continue
            t = sub(p, (1, 0))
            (apex,) = [v for v in verts if v not in (p, q)]
            a, b = sub(apex, t)
            if b >= 1 and (b - 1) % 2 == 0 and a == 1 - (b - 1) // 2:
                return ThinTriangleWitness(k=(b - 1) // 2, translation=t)
    return None


def assumption2_holds(
    P: LatticePolygon,
) -> tuple[Verdict, Optional[ThinTriangleWitness]]:
    """Exact classification: fails iff P, r(P) or r^2(P) is thin."""
    P.require_dim2()
    for k, Pk in enumerate(_rotations(P)):
        w = is_thin(Pk)
        if w is not None:
            return Verdict.FAILS_KNOWN, replace(w, rotation_power=k)
    return Verdict.VERIFIED, None


def delta_is_summand(M: LatticePolygon) -> bool:
    """Edge criterion: the standard triangle is a Minkowski summand of M
    iff M is 2-dimensional and its three lower-arrow faces are edges."""
    return M.dim == 2 and all(g in edge_fan(M) for g in LOWER_ARROWS)


def is_class_Qd(Q: Iterable[Point], d: int) -> bool:
    """Sufficient criterion for the no-line diagram class of size d:
    d points fitting in (d-1)*Delta such that no subset's hull has the
    standard triangle as a Minkowski summand.

    A subset's hull has Delta as a summand iff the subset has at least two
    points on each of its min-y row, min-x column and max-(x+y) diagonal.
    Those lines bound a triangle T = (x0, y0) + k*Delta with k >= 1, so a
    bad subset exists iff some T cut out by coordinates of Q holds at
    least two points of Q on each of its three sides.

    The span of a point set is max(x + y) - min x - min y, the least k with
    the set inside a translate of k*Delta.  A set of m points in the class
    has span at least m - 1, by induction on m: for m >= 2 some side of the
    set's own bounding triangle holds exactly one of its points, removing
    that point lowers the span by at least 1, and what remains is still in
    the class.  So every set of the class of size d has span exactly d - 1.
    """
    if d < 3:
        raise ValueError("class only defined for d >= 3")
    pts = set(Q)
    if len(pts) != d:
        return False
    xs = {x for x, _ in pts}
    ys = {y for _, y in pts}
    sums = {x + y for x, y in pts}
    if max(sums) - min(xs) - min(ys) != d - 1:
        return False
    for x0 in xs:
        for y0 in ys:
            for s0 in sums:
                if s0 <= x0 + y0:
                    continue
                T = [(x, y) for x, y in pts if x >= x0 and y >= y0 and x + y <= s0]
                if (
                    sum(y == y0 for _, y in T) >= 2
                    and sum(x == x0 for x, _ in T) >= 2
                    and sum(x + y == s0 for x, y in T) >= 2
                ):
                    return False
    return True


def _staircase_shapes(d: int) -> list[tuple[Point, ...]]:
    """All monotone lattice paths of d points with steps right/up, plus the
    diagonal segment.  Each is a diagram of the no-line class (checked for
    d = 4, 5, 6 in the tests), and so is each of its translates."""
    shapes: list[tuple[Point, ...]] = []
    for mask in range(2 ** (d - 1)):
        path = [(0, 0)]
        for i in range(d - 1):
            step = (1, 0) if (mask >> i) & 1 == 0 else (0, 1)
            path.append(add(path[-1], step))
        shapes.append(tuple(path))
    shapes.append(tuple((i, -i) for i in range(d)))
    return shapes


@lru_cache(maxsize=64)
def _shapes_by_reach(d: int, g: Point) -> dict[int, tuple[tuple[Point, ...], ...]]:
    """The staircase shapes grouped by their maximum of <g, .>, each group
    in ``_staircase_shapes`` order.  Cached, since a search asks for only
    a few (d, g) pairs; callers must not modify the result."""
    groups: dict[int, list[tuple[Point, ...]]] = {}
    for shape in _staircase_shapes(d):
        groups.setdefault(max(g[0] * x + g[1] * y for x, y in shape), []).append(shape)
    return {reach: tuple(shapes) for reach, shapes in groups.items()}


def _path_fits(ptset: set[Point], x: int, y: int, d: int, diagonal: bool = True) -> bool:
    """Some staircase shape of d points anchored at (x, y) lies in ptset:
    a right/up path, walked depth first and cut at the first point outside
    (at most 2**(d-1) leaves), or, when ``diagonal``, the (1, -1) run."""
    if (x, y) not in ptset:
        return False
    if d == 1:
        return True
    if _path_fits(ptset, x + 1, y, d - 1, False) or _path_fits(ptset, x, y + 1, d - 1, False):
        return True
    return diagonal and all((x + i, y - i) in ptset for i in range(1, d))


class _BudgetExhausted(Exception):
    """The subset walk of ``_find_Qd`` spent its budget before a hit."""


def _find_Qd(
    P: LatticePolygon, d: int, face_constraint: Optional[Point], budget: int
) -> tuple[Optional[Diagram], bool]:
    """Search for a d-point no-line-class subdiagram of P.

    Staircase and segment candidates are tried first; a budget-capped
    exhaustive search over lattice-point subsets is the fallback.  The
    second return value reports budget exhaustion (result None then means
    "not found within budget", not "does not exist").

    An anchor builds its staircase candidates only after ``_path_fits``
    finds that some path of d points from it stays in P, so the first
    diagram found is the one the full loop would find.  The exhaustive
    search walks index prefixes in ``combinations(pts, d)`` order and
    spends one budget unit per subset in that order.  The span only grows
    as points are added and every set of the class spans d - 1 (see
    is_class_Qd), so a prefix that spans more has no class completion: its
    whole block of completions is charged at once and never generated.  The
    span is at least x_j minus the x of the prefix's first point, and pts is
    sorted by x, so once that exceeds d - 1 at index j the blocks of j and
    of every later index are charged as one, C(n - j, d - r) by the
    hockey-stick identity, and the level returns.
    """
    if d not in (4, 5, 6):
        raise ValueError("subdiagram search supports d in {4, 5, 6}")
    pts = lattice_points(P)
    (xl, yl), _ = P.bounding_box()
    if max(x + y for x, y in P.vertices) - xl - yl < d - 1:
        # every d-point set of the class spans d - 1 (see is_class_Qd), so
        # the walk below would try every subset and find none
        return None, math.comb(len(pts), d) > max(budget, 0)
    ptset = set(pts)
    # A candidate inside P has its support set at g = (u, v) on P's face
    # exactly when its maximum of <g, .> is P's, so anchor p tries just the
    # shapes s with <g, p> + max <g, s> = max_P <g, .>.  Without g every
    # candidate reaches 0.
    u, v = face_constraint or (0, 0)
    top = max(u * x + v * y for x, y in P.vertices)
    by_reach = _shapes_by_reach(d, (u, v))
    for p in pts:
        shapes = by_reach.get(top - u * p[0] - v * p[1], ())
        if not shapes or not _path_fits(ptset, *p, d):
            continue
        for shape in shapes:
            cand = [add(p, s) for s in shape]
            if all(q in ptset for q in cand):
                return frozenset(cand), False
    n = len(pts)
    spent = 0

    def walk(start: int, prefix: tuple[Point, ...], lo_x, lo_y, hi_s) -> Optional[Diagram]:
        # the completions of prefix by indices >= start, in combinations order
        nonlocal spent
        r = len(prefix)
        for j in range(start, n - d + r + 1):
            x, y = pts[j]
            if x - lo_x > d - 1:
                # pts is sorted by x, so every index from j on is dead too
                spent += math.comb(n - j, d - r)
                if spent > budget:
                    raise _BudgetExhausted
                return None
            mx, my, ms = min(lo_x, x), min(lo_y, y), max(hi_s, x + y)
            if ms - mx - my > d - 1:
                spent += math.comb(n - j - 1, d - r - 1)
                if spent > budget:
                    raise _BudgetExhausted
            elif r + 1 < d:
                found = walk(j + 1, prefix + (pts[j],), mx, my, ms)
                if found is not None:
                    return found
            else:
                spent += 1
                if spent > budget:
                    raise _BudgetExhausted
                subset = prefix + (pts[j],)
                if max(u * a + v * b for a, b in subset) == top and is_class_Qd(subset, d):
                    return frozenset(subset)
        return None

    try:
        return walk(0, (), math.inf, math.inf, -math.inf), False
    except _BudgetExhausted:
        return None, True


def _contains_5R(P: LatticePolygon, budget: int) -> tuple[bool, bool]:
    """Appendix criterion: P contains a 5-fold dilate of some unimodular
    parallelogram spanned by u, v with coordinates in [-b, b], b =
    ceil(w / 5) with w the larger side of P's bounding box.  Each tuple
    (u, v) visited costs one budget unit; the second return value reports
    that the budget ran out first.

    A 5-fold dilate spans at least 5 on both axes, as neither (ux, vx) nor
    (uy, vy) is (0, 0) when |ux vy - uy vx| = 1.  So a P narrower than 5
    on either axis gets at once what the search would end with."""
    (xl, yl), (xh, yh) = P.bounding_box()
    bound = max(1, math.ceil(max(xh - xl, yh - yl) / 5))
    coords = range(-bound, bound + 1)
    if min(xh - xl, yh - yl) < 5:
        return False, len(coords) ** 4 > budget
    n = max(budget, 0)
    # a tuple of rank below n in product order has every index below n, so
    # the cut range gives the same first n tuples, and product copies n ints
    for ux, uy, vx, vy in islice(product(coords[:n], repeat=4), n):
        u, v = (ux, uy), (vx, vy)
        # the parallelogram is fixed up to translation by its edges up to
        # sign and order; test it at the first of those tuples in product
        # order, the one with u < v, u <= -u and v <= -v
        if not (u < v and u <= neg(u) and v <= neg(v)) or abs(ux * vy - uy * vx) != 1:
            continue
        corners = [(0, 0), (5 * ux, 5 * uy), (5 * vx, 5 * vy), (5 * (ux + vx), 5 * (uy + vy))]
        if contains_translate(P, corners) is not None:
            return True, False
    return False, len(coords) ** 4 > budget


@lru_cache(maxsize=1)
def _rotations(P: LatticePolygon) -> tuple[LatticePolygon, LatticePolygon, LatticePolygon]:
    """P, r(P) and r^2(P): the three directions every check runs in, kept
    for the last P only, as one report asks for P's three times in a row."""
    rP = rotate_r(P)
    return P, rP, rotate_r(rP)


def _verdict(rows: list[_Row]) -> tuple[Verdict, Evidence]:
    """The verdict rule of assumptions 1 and 3: Verified exactly when every
    row (criterion, direction, passed, outcome) passed, and Unknown
    otherwise; the evidence is the rows without the pass flag."""
    verdict = Verdict.VERIFIED if all(passed for _, _, passed, _ in rows) else Verdict.UNKNOWN
    return verdict, [(name, k, outcome) for name, k, _, outcome in rows]


def check_assumption1(
    P: LatticePolygon, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[Verdict, Evidence]:
    """Nodes-and-cusps-only battery: subdiagram classes of size 6, 5, 4,
    per-direction boundary-tangency exclusions, and the thin classification."""
    P.require_dim2()
    q6, exhausted = _find_Qd(P, 6, None, budget)
    if q6 is not None:
        rows = [("no-tritangents", 0, True, "Q6-generalized subdiagram found")]
    else:
        has_5R, exhausted5R = _contains_5R(P, budget)
        if has_5R:
            outcome = "contains 5R for a unimodular parallelogram"
        else:
            outcome = "budget exhausted" if exhausted or exhausted5R else "no Q6 subdiagram, no 5R"
        rows = [("no-tritangents", 0, has_5R, outcome)]
    for d, name in ((5, "no-inflected-bitangents"), (4, "no-higher-flexes")):
        qd, exhausted = _find_Qd(P, d, None, budget)
        if qd is not None:
            outcome = f"Q{d} subdiagram found"
        else:
            outcome = "budget exhausted" if exhausted else f"no Q{d} subdiagram"
        rows.append((name, 0, qd is not None, outcome))
    for k, Pk in enumerate(_rotations(P)):
        cond = _boundary_bitangent_excluded(Pk, budget)
        thin = is_thin(Pk) is not None
        rows += [
            ("no-boundary-bitangents", k, cond is not None, cond or "no condition fired"),
            ("no-inflections-at-infinity", k, not thin,
             "thin triangle" if thin else "not a thin triangle"),
        ]
    unit = P.canonical().vertices == standard_triangle().vertices
    outcome = "polygon is the unit triangle" if unit else "2-dimensional and not the unit triangle"
    rows.append(("no-corner-bitangents", 0, not unit, outcome))
    return _verdict(rows)


def _boundary_bitangent_excluded(Pk: LatticePolygon, budget: int) -> Optional[str]:
    """One of the three sufficient conditions against a tangency point
    escaping to the bottom boundary orbit."""
    if DOWN not in edge_fan(Pk):
        return "bottom face is a vertex"
    q4, _ = _find_Qd(Pk, 4, DOWN, budget)
    if q4 is not None:
        return "Q4 subdiagram aligned with the bottom edge"
    y0 = min(y for _, y in Pk.vertices)
    rows: dict[int, int] = {}
    for _, y in lattice_points(Pk):
        rows[y] = rows.get(y, 0) + 1
    if any(y >= y0 + 2 and n >= 2 for y, n in rows.items()):
        return "two lattice points on a row at height >= 2 above the bottom edge"
    return None


def check_assumption3(P: LatticePolygon) -> tuple[Verdict, Evidence]:
    """No degenerate tangent is a bitangent, an inflection tangent, or an
    asymptote, checked in each of the three directions via the rotation."""
    P.require_dim2()
    rows: list[_Row] = []
    for k, Pk in enumerate(_rotations(P)):
        ys = {y for _, y in lattice_points(Pk)}
        if any(all(y + i in ys for i in range(4)) for y in ys):
            rows.append(("no-vertical-bitangents", k, True, "4 consecutive ordinates"))
        elif max(ys) - min(ys) <= 3:
            rows.append(("no-vertical-bitangents", k, True, "vertical degree at most 3"))
        else:
            rows.append(("no-vertical-bitangents", k, False, "no condition fired"))
        three = len(ys) >= 3
        asymptotes = three or UP not in edge_fan(Pk)
        rows += [
            ("no-vertical-inflections", k, three,
             "at least 3 ordinates" if three else "fewer than 3 ordinates"),
            ("no-tangent-asymptotes", k, asymptotes,
             "3 ordinates or top face is a vertex" if asymptotes else "no condition fired"),
        ]
    return _verdict(rows)


def full_assumption_report(
    P: LatticePolygon,
    budget: int = DEFAULT_SEARCH_BUDGET,
    fast_path: bool = True,
) -> AssumptionReport:
    """Decide all three assumptions.

    If P contains a translate of 5*Delta all three hold; otherwise the
    per-assumption batteries run.  ``fast_path=False`` forces the batteries
    (used to cross-check the containment shortcut).
    """
    P.require_dim2()
    if fast_path and contains_translate(P, dilate(standard_triangle(), 5)) is not None:
        return AssumptionReport(
            a1=Verdict.VERIFIED,
            a2=Verdict.VERIFIED,
            a3=Verdict.VERIFIED,
            evidence=[("contains-5-delta", 0, "contains a translate of 5*Delta")],
        )
    a1, ev1 = check_assumption1(P, budget)
    a2, witness = assumption2_holds(P)
    thin = (witness.rotation_power, "thin triangle") if witness else (0, "not in the thin orbit")
    a3, ev3 = check_assumption3(P)
    return AssumptionReport(
        a1=a1, a2=a2, a3=a3, evidence=ev1 + [("thin-classification", *thin)] + ev3,
        thin_witness=witness,
    )
