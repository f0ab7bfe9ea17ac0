"""Tri-state genericity checks for a Newton polygon.

The three assumptions behind the invariant formulas are decided by a
battery of sufficient combinatorial criteria.  Each criterion gives one
evidence line (criterion, k, outcome) per direction k it runs in, the test
applied to r^k(P).  Assumption 1 or 3 is Verified exactly when every one
of its criteria passed, and Unknown otherwise: failure of the battery never
yields FailsKnown.  Assumption 2 has an exact classification (the
thin-triangle family), so it is Verified or FailsKnown.

The outcomes that pass, then "|" and those that fail.  Assumption 1, in
direction 0 or (k) in all three:
  no-tritangents: Q6-generalized subdiagram found; contains 5R for a unimodular
    parallelogram | no Q6 subdiagram, no 5R; budget exhausted (the 5R search)
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

Direction k is read off P: r(a, b) = (b, -a - b) and r^2(a, b) = (-a - b, a)
give r^k(p) = (<UPPER_ARROWS[k - 1], p>, <UPPER_ARROWS[k], p>), so up to
translation r^k(P)'s ordinate is <UPPER_ARROWS[k], .> on P, and r^k, being
unimodular, maps P's faces at LOWER_ARROWS[k] = -UPPER_ARROWS[k] and at
UPPER_ARROWS[k] onto its bottom and top faces.  r maps Delta onto a
translate of Delta, so it keeps the no-line class: the bottom-edge Q4
search runs on P under the face constraint LOWER_ARROWS[k], and the thin
test maps P's three vertices.  No direction builds r^k(P).

When P contains a translate of 5*Delta, ``full_assumption_report`` skips
the battery: all three are Verified on the one line contains-5-delta,
"contains a translate of 5*Delta".
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .lattice import (
    LOWER_ARROWS,
    UPPER_ARROWS,
    Diagram,
    LatticePolygon,
    Point,
    _columns,
    add,
    contains_translate,
    dilate,
    edge_fan,
    lattice_points,
    neg,
    rotate_point,
    standard_triangle,
    sub,
)

DEFAULT_SEARCH_BUDGET = 200_000  # units of the 5R search's work (see _contains_5R)


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
    return _thin(P.vertices, 0)


def _thin(verts: Sequence[Point], power: int) -> Optional[ThinTriangleWitness]:
    """is_thin of r^power(P), P with vertex cycle ``verts``, read off P: the
    three vertices go through ``rotate_point`` ``power`` times and, for
    power 1 or 2, move so their least sits at the origin, where rotate_r
    places r^power(P).  Non-triangles return at once."""
    if len(verts) != 3:
        return None
    for _ in range(power):
        verts = [rotate_point(p) for p in verts]
    if power:
        m = min(verts)
        verts = [sub(p, m) for p in verts]
    for p in verts:
        for q in verts:
            if sub(q, p) != (1, 0):
                continue
            t = sub(p, (1, 0))
            (apex,) = [v for v in verts if v not in (p, q)]
            a, b = sub(apex, t)
            if b >= 1 and (b - 1) % 2 == 0 and a == 1 - (b - 1) // 2:
                return ThinTriangleWitness(k=(b - 1) // 2, translation=t, rotation_power=power)
    return None


def assumption2_holds(
    P: LatticePolygon,
) -> tuple[Verdict, Optional[ThinTriangleWitness]]:
    """Exact classification: fails iff P, r(P) or r^2(P) is thin, each
    decided on P's vertex cycle."""
    P.require_dim2()
    for k in range(3):
        w = _thin(P.vertices, k)
        if w is not None:
            return Verdict.FAILS_KNOWN, w
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


def _find_Qd(
    P: LatticePolygon,
    d: int,
    face_constraint: Optional[Point],
    pts: Optional[Sequence[Point]] = None,
) -> Optional[Diagram]:
    """A d-point no-line-class subdiagram of P, or None when P has none.

    ``pts`` is P's lattice listing sorted by x, ``lattice_points(P)`` when
    not given; it may leave out points outside the band below.  Under a
    face constraint g = (u, v) a diagram must have its support set at g on
    P's face at g, that is reach P's maximum ``top`` of <g, .>.  A set of
    the class lies in a translate of (d - 1)*Delta (see is_class_Qd), on
    which <g, .> varies by at most (d - 1)(max(u, v, 0) - min(u, v, 0)), so
    both passes keep only the band of points within that of ``top``.

    Staircase and segment candidates, each a set of the class, are tried
    first: anchor p tries the shapes s with <g, p> + max <g, s> = top (all
    of them without g), and builds them only after ``_path_fits`` finds
    that some path of d points from p stays in the band.  Then the walk
    goes through index prefixes in ``combinations`` order and returns the
    first subset of the class that reaches ``top``.  It walks the points by
    a coordinate c: by y when the band is a set of columns (v = 0), and by
    x otherwise, x order kept within a row.  The span only grows as points
    are added and every set of the class spans d - 1 (see is_class_Qd), so
    a prefix that spans more is dropped with all its completions.  The
    spread of x, of y and of x + y over a set is at most its span, so once
    c at index j exceeds c at the prefix's first point by more than d - 1
    the level returns.  Each pass so returns the first hit of the unpruned
    pass in its own order.

    The work is O(n) for n points in the band, with a constant that
    depends on d alone: from a first point the walk extends prefixes only
    by points of the d lines of c from that point's line on, so it costs
    at most the subsets of those lines' points.  P is convex, so the band
    points on a line are consecutive.  Without g, walked by x, a failed
    staircase pass leaves no column of d points, as a vertical run is the
    all-up staircase, so d columns hold at most d(d - 1) points.  The
    report uses the lower arrows.  Under DOWN the band is P's d lowest rows
    and under NE its d highest diagonals, so a column holds at most d band
    points, and d columns at most d^2.  Under LEFT the band is P's d
    leftmost columns, which may be tall; walked by y, a row holds at most d
    band points, and d rows at most d^2.
    """
    if d not in (4, 5, 6):
        raise ValueError("subdiagram search supports d in {4, 5, 6}")
    pts = lattice_points(P) if pts is None else pts
    (xl, yl), _ = P.bounding_box()
    if max(x + y for x, y in P.vertices) - xl - yl < d - 1:
        # every d-point set of the class spans d - 1 (see is_class_Qd)
        return None
    u, v = face_constraint or (0, 0)
    top = max(u * x + v * y for x, y in P.vertices)
    if face_constraint:
        band = (d - 1) * (max(u, v, 0) - min(u, v, 0))
        pts = [(x, y) for x, y in pts if top - u * x - v * y <= band]
    ptset = set(pts)
    # A candidate inside P has its support set at g on P's face exactly
    # when its maximum of <g, .> is P's, so anchor p tries just the shapes
    # s with <g, p> + max <g, s> = top.  Without g every candidate reaches 0.
    by_reach = _shapes_by_reach(d, (u, v))
    for p in pts:
        shapes = by_reach.get(top - u * p[0] - v * p[1], ())
        if not shapes or not _path_fits(ptset, *p, d):
            continue
        for shape in shapes:
            cand = [add(p, s) for s in shape]
            if all(q in ptset for q in cand):
                return frozenset(cand)
    c = 1 if face_constraint and v == 0 else 0
    if c:
        pts = sorted(pts, key=lambda p: p[1])
    n = len(pts)

    def walk(start: int, prefix: tuple[Point, ...], lo_x, lo_y, hi_s) -> Optional[Diagram]:
        # the completions of prefix by indices >= start, in combinations order
        r = len(prefix)
        first = prefix[0][c] if prefix else math.inf
        for j in range(start, n - d + r + 1):
            x, y = pts[j]
            if pts[j][c] - first > d - 1:
                return None  # pts is sorted by c, so every later index is dead too
            mx, my, ms = min(lo_x, x), min(lo_y, y), max(hi_s, x + y)
            if ms - mx - my > d - 1:
                continue
            subset = prefix + (pts[j],)
            if r + 1 < d:
                found = walk(j + 1, subset, mx, my, ms)
                if found is not None:
                    return found
            elif max(u * a + v * b for a, b in subset) == top and is_class_Qd(subset, d):
                return frozenset(subset)
        return None

    return walk(0, (), math.inf, math.inf, -math.inf)


def _contains_5R(P: LatticePolygon, budget: int) -> tuple[bool, bool]:
    """Appendix criterion: P contains 5R for some unimodular parallelogram
    R.  The second return value reports that the budget ran out first.

    R is fixed up to translation by its edges u, v up to sign and order, so
    only the canonical pair is tried: u < v, u <= -u and v <= -v.  Its
    5-fold dilate spans 5(|ux| + |vx|) by 5(|uy| + |vy|), so only pairs with
    |ux| + |vx| <= W and |uy| + |vy| <= H can fit, W and H the box's sides
    floor-divided by 5.  v <= -v makes vx <= 0, and u < v then makes ux < 0,
    as ux = 0 would need vx = 0 and a zero determinant.  The search visits
    u with ux from -W to -1, then uy from -H to H, and scans for each of
    u's partners v (``_partners``, lexicographic order) the columns of
    translations that ``_columns`` reads off P, until one column holds a
    translation of 5R inside P.

    ``budget`` counts the units of work: one for each u visited and one
    for each column scanned, checked before each unit is spent, so the
    search returns (False, True) exactly when some unit is left undone.
    Beyond its unit a u costs a gcd, a modular inverse and O(1) rejected
    candidates, and every partner it yields has at least one column.  A
    unimodular pair has |ux| + |vx| >= 1 and |uy| + |vy| >= 1, so when
    W = 0 or H = 0 no 5R fits, and the search returns (False, False) at
    any budget."""
    (xl, yl), (xh, yh) = P.bounding_box()
    W, H = (xh - xl) // 5, (yh - yl) // 5
    if W == 0 or H == 0:
        return False, False
    left = budget
    for ux in range(-W, 0):
        for uy in range(-H, H + 1):
            if left <= 0:
                return False, True
            left -= 1
            for vx, vy in _partners((ux, uy), W + ux, H - abs(uy)):
                corners = ((0, 0), (5 * ux, 5 * uy), (5 * vx, 5 * vy), (5 * (ux + vx), 5 * (uy + vy)))
                if any(lo <= hi for _, lo, hi in islice(_columns(P, corners), left)):
                    return True, False
                left -= xh - xl + 5 * (ux + vx) + 1  # the columns of 5R's window
                if left < 0:
                    return False, True
    return False, False


def _partners(u: Point, wx: int, hy: int) -> Iterator[Point]:
    """The v, in lexicographic order, with |ux vy - uy vx| = 1, u < v,
    v <= -v, |vx| <= wx and |vy| <= hy, for u with ux < 0; none when
    gcd(ux, uy) > 1.  Made one at a time, after O(1) rejected candidates."""
    ux, uy = u
    m = -ux
    if math.gcd(m, uy) != 1:
        return
    # ux*vy - uy*vx = e, e = +-1, exactly when vx = -e/uy mod m and vy = (uy*vx
    # + e) / ux, and |vy| <= hy needs |uy*vx| <= hy*m + 1.  Each block of m
    # consecutive columns holds one vx for each e, and the blocks go upward
    c = pow(uy, -1, m)
    lo = max(ux, -wx, -((hy * m + 1) // abs(uy)) if uy else ux)
    for base in range(lo, 1, m):
        block = [(vx, (uy * vx + e) // ux) for e in (1, -1) if (vx := base + (-e * c - base) % m) <= 0]
        for v in sorted(block):
            if abs(v[1]) <= hy and u < v and v <= neg(v):
                yield v


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
    per-direction boundary-tangency exclusions, and the thin classification.

    The subdiagram searches decide, and the Q5 search, run first, settles
    some of the others.  Dropping the point named in is_class_Qd's
    induction from a set of the class leaves a set of the class, so every
    Q6 set holds a Q5 set and every Q5 set a Q4 set: no Q5 means no Q6,
    and a Q5 means a Q4.  And r is unimodular and maps Delta to a
    translate of Delta, so it keeps the class and maps P's lattice points
    onto a translate of r(P)'s: no Q4 on P means no Q4 in any direction,
    and the three bottom-edge Q4 searches are skipped.  Direction k is
    decided on P itself: its bottom-edge Q4 search is P's at
    LOWER_ARROWS[k], and its thin test maps P's vertex cycle, so no r^k(P)
    is built.  ``budget`` bounds
    the 5R search alone, in units of its work: one for each u visited and
    one for each column scanned (see _contains_5R).
    """
    P.require_dim2()
    pts, fan = lattice_points(P), edge_fan(P)
    found5 = _find_Qd(P, 5, None, pts) is not None
    found6 = found5 and _find_Qd(P, 6, None, pts) is not None
    found4 = found5 or _find_Qd(P, 4, None, pts) is not None
    if found6:
        rows = [("no-tritangents", 0, True, "Q6-generalized subdiagram found")]
    else:
        has_5R, exhausted = _contains_5R(P, budget)
        if has_5R:
            outcome = "contains 5R for a unimodular parallelogram"
        else:
            outcome = "budget exhausted" if exhausted else "no Q6 subdiagram, no 5R"
        rows = [("no-tritangents", 0, has_5R, outcome)]
    for d, name, found in ((5, "no-inflected-bitangents", found5), (4, "no-higher-flexes", found4)):
        rows.append((name, 0, found, f"Q{d} subdiagram found" if found else f"no Q{d} subdiagram"))
    for k in range(3):
        cond = _boundary_bitangent_excluded(P, k, pts, fan, found4)
        thin = _thin(P.vertices, k) is not None
        rows += [
            ("no-boundary-bitangents", k, cond is not None, cond or "no condition fired"),
            ("no-inflections-at-infinity", k, not thin,
             "thin triangle" if thin else "not a thin triangle"),
        ]
    unit = P.canonical().vertices == standard_triangle().vertices
    outcome = "polygon is the unit triangle" if unit else "2-dimensional and not the unit triangle"
    rows.append(("no-corner-bitangents", 0, not unit, outcome))
    return _verdict(rows)


def _boundary_bitangent_excluded(
    P: LatticePolygon,
    k: int,
    pts: Sequence[Point],
    fan: dict[Point, int],
    q4_possible: bool,
) -> Optional[str]:
    """One of the three sufficient conditions against a tangency point
    escaping to the bottom boundary orbit of r^k(P), read off P, its
    listing ``pts`` and its edge table ``fan``: r^k(P)'s bottom edge is
    P's face at LOWER_ARROWS[k], so the bottom-edge Q4 search runs on P
    under that constraint.  ``q4_possible=False`` says P has no Q4 at all,
    and skips that search."""
    if LOWER_ARROWS[k] not in fan:
        return "bottom face is a vertex"
    if q4_possible and _find_Qd(P, 4, LOWER_ARROWS[k], pts) is not None:
        return "Q4 subdiagram aligned with the bottom edge"
    u, v = UPPER_ARROWS[k]
    y0 = min(u * x + v * y for x, y in P.vertices)
    rows = Counter(u * x + v * y for x, y in pts)
    if any(y >= y0 + 2 and n >= 2 for y, n in rows.items()):
        return "two lattice points on a row at height >= 2 above the bottom edge"
    return None


def check_assumption3(P: LatticePolygon) -> tuple[Verdict, Evidence]:
    """No degenerate tangent is a bitangent, an inflection tangent, or an
    asymptote, checked in each of the three directions, read off P."""
    P.require_dim2()
    pts, fan = lattice_points(P), edge_fan(P)
    rows: list[_Row] = []
    for k, (u, v) in enumerate(UPPER_ARROWS):
        ys = {u * x + v * y for x, y in pts}
        if any(all(y + i in ys for i in range(4)) for y in ys):
            rows.append(("no-vertical-bitangents", k, True, "4 consecutive ordinates"))
        elif max(ys) - min(ys) <= 3:
            rows.append(("no-vertical-bitangents", k, True, "vertical degree at most 3"))
        else:
            rows.append(("no-vertical-bitangents", k, False, "no condition fired"))
        three = len(ys) >= 3
        asymptotes = three or (u, v) not in fan
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
    per-assumption batteries run.  ``budget`` bounds the 5R search, one
    unit for each u visited and one for each column scanned (see
    _contains_5R); ``fast_path=False`` forces the batteries (used to
    cross-check the containment shortcut).
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
    a3, ev3 = check_assumption3(P)
    thin = (witness.rotation_power, "thin triangle") if witness else (0, "not in the thin orbit")
    return AssumptionReport(
        a1=a1, a2=a2, a3=a3, evidence=ev1 + [("thin-classification", *thin)] + ev3,
        thin_witness=witness,
    )
