import gc
import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import lattice_classes, minkowski_sum, random_polygon, support_face
from plucker import assumptions
from plucker.assumptions import (
    DOWN,
    AssumptionReport,
    ThinTriangleWitness,
    Verdict,
    _boundary_bitangent_excluded,
    _find_Qd,
    _staircase_shapes,
    assumption2_holds,
    check_assumption1,
    check_assumption3,
    delta_is_summand,
    full_assumption_report,
    is_class_Qd,
    is_thin,
)
from plucker.formulas import bitangent_count
from plucker.lattice import (
    LEFT,
    NE,
    UP,
    LatticePolygon,
    add,
    contains_translate,
    dilate,
    edge_fan,
    lattice_points,
    neg,
    rectangle,
    rotate_point,
    rotate_r,
    standard_triangle,
)


def thin_triangle(k: int) -> LatticePolygon:
    return LatticePolygon.hull([(1, 0), (2, 0), (1 - k, 1 + 2 * k)])


def brute_delta_summand(M: LatticePolygon) -> bool:
    """Erosion check: the hull of {p : p + Delta inside M}, re-dilated by
    Delta, must give M back exactly when Delta is a lattice summand."""
    D = standard_triangle()
    eroded = [
        p
        for p in lattice_points(M)
        if all((p[0] + d[0], p[1] + d[1]) in M for d in D.vertices)
    ]
    if not eroded:
        return False
    S = LatticePolygon.hull(eroded)
    return minkowski_sum(S, D).canonical().vertices == M.canonical().vertices


class TestThin:
    @pytest.mark.parametrize("k", range(6))
    def test_family(self, k):
        w = is_thin(thin_triangle(k))
        assert w is not None and w.k == k

    def test_translated(self):
        w = is_thin(thin_triangle(2).translate((-4, 9)))
        assert w is not None and w.k == 2 and w.translation == (-4, 9)

    def test_worked_cubic(self):
        w = is_thin(LatticePolygon.hull([(0, 3), (1, 0), (2, 0)]))
        assert w is not None and w.k == 1

    def test_delta_is_thin(self):
        assert is_thin(standard_triangle()) is not None

    def test_rectangle_not_thin(self):
        assert is_thin(rectangle(3, 4)) is None


class TestAssumption2:
    def test_cubic_fails(self):
        v, w = assumption2_holds(LatticePolygon.hull([(0, 3), (1, 0), (2, 0)]))
        assert v is Verdict.FAILS_KNOWN and w is not None

    def test_5delta_verified(self):
        v, w = assumption2_holds(dilate(standard_triangle(), 5))
        assert v is Verdict.VERIFIED and w is None

    def test_rectangle_verified(self):
        v, _ = assumption2_holds(rectangle(3, 4))
        assert v is Verdict.VERIFIED

    def test_brute_force_orbit_in_box(self):
        # every triangle in a small box: FailsKnown iff its canonical form
        # appears in the rotation orbit of the thin family
        orbit: set[tuple] = set()
        for k in range(0, 12):
            T = thin_triangle(k)
            for _ in range(3):
                orbit.add(T.canonical().vertices)
                T = rotate_r(T)
        box = [(x, y) for x in range(5) for y in range(7)]
        checked = 0
        for tri in combinations(box, 3):
            P = LatticePolygon.hull(tri)
            if P.dim != 2:
                continue
            checked += 1
            v, _ = assumption2_holds(P)
            expected = P.canonical().vertices in orbit
            assert (v is Verdict.FAILS_KNOWN) == expected, tri
        assert checked > 1000


class TestMinkowskiSummand:
    def test_matches_brute_force_on_2delta(self):
        pts = lattice_points(dilate(standard_triangle(), 2))
        for r in range(3, len(pts) + 1):
            for subset in combinations(pts, r):
                M = LatticePolygon.hull(subset)
                assert delta_is_summand(M) == brute_delta_summand(M), subset


FIGURE_Q6 = [
    [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)],
    [(0, 4), (1, 3), (2, 2), (2, 1), (2, 0), (3, 2)],
    [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)],
    [(0, 0), (1, 0), (2, 0), (0, 3), (0, 4), (0, 5)],
]


class TestClassQd:
    def test_horizontal_segment(self):
        for d in (4, 5, 6):
            assert is_class_Qd([(i, 0) for i in range(d)], d)

    @pytest.mark.parametrize("Q", FIGURE_Q6)
    def test_figure_diagrams(self, Q):
        assert is_class_Qd(Q, 6)

    def test_full_2delta_is_not(self):
        assert not is_class_Qd(
            [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], 6
        )

    def test_wrong_cardinality(self):
        assert not is_class_Qd([(0, 0), (1, 0)], 5)


def hull_class_Qd(Q, d):
    """The class test by hulls: fit in (d-1)*Delta, then no subset of 3 or
    more points whose hull has Delta as a Minkowski summand."""
    pts = sorted(set(Q))
    if len(pts) != d:
        return False
    if contains_translate(standard_triangle(d - 1), pts) is None:
        return False
    return not any(
        delta_is_summand(LatticePolygon.hull(subset))
        for r in range(3, d + 1)
        for subset in combinations(pts, r)
    )


def face_ok(Q, P, g):
    """Q's support set at g lies on P's face at g (always, when g is None)."""
    if g is None:
        return True
    pts = list(Q)
    u, v = g
    best = max(u * x + v * y for x, y in pts)
    face = LatticePolygon(support_face(P, g))
    return all(p in face for p in pts if u * p[0] + v * p[1] == best)


def hull_find_Qd(P, d, face_constraint):
    """The subdiagram search with every candidate put through the hull test,
    over all of P's points."""
    pts = lattice_points(P)
    ptset = set(pts)
    for p in pts:
        for shape in _staircase_shapes(d):
            cand = [add(p, s) for s in shape]
            if not all(q in ptset for q in cand):
                continue
            if face_ok(cand, P, face_constraint) and hull_class_Qd(cand, d):
                return frozenset(cand)
    for subset in combinations(pts, d):
        if face_ok(subset, P, face_constraint) and hull_class_Qd(subset, d):
            return frozenset(subset)
    return None


def hull_contains_5R(P, calls):
    """The 5R search, run to the end, with each parallelogram told apart
    by its canonical hull.  Appends (P, canonical 5-fold dilate) to
    ``calls`` for each containment test, in order."""
    (xl, yl), (xh, yh) = P.bounding_box()
    bound = max(1, math.ceil(max(xh - xl, yh - yl) / 5))
    coords = range(-bound, bound + 1)
    seen = set()
    for ux, uy, vx, vy in product(coords, repeat=4):
        if abs(ux * vy - uy * vx) != 1:
            continue
        R = LatticePolygon.hull([(0, 0), (ux, uy), (vx, vy), (ux + vx, uy + vy)]).canonical()
        if R.vertices in seen:
            continue
        seen.add(R.vertices)
        R5 = dilate(R, 5)
        calls.append((P, R5.canonical().vertices))
        if contains_translate(P, R5) is not None:
            return True
    return False


def span(Q):
    return max(x + y for x, y in Q) - min(x for x, _ in Q) - min(y for _, y in Q)


def plain_find_Qd(P, d, face_constraint):
    """The subdiagram search without pruning or band: every staircase shape
    at every anchor, then every subset of ``combinations`` through the face
    test and the class test."""
    pts = lattice_points(P)
    ptset = set(pts)
    u, v = face_constraint or (0, 0)
    top = max(u * x + v * y for x, y in P.vertices)
    for p in pts:
        for shape in _staircase_shapes(d):
            cand = [add(p, s) for s in shape]
            if all(q in ptset for q in cand) and max(u * x + v * y for x, y in cand) == top:
                return frozenset(cand)
    for subset in combinations(pts, d):
        if max(u * x + v * y for x, y in subset) == top and is_class_Qd(subset, d):
            return frozenset(subset)
    return None


class TestClassQdAgainstHulls:
    def test_every_subset_of_3delta(self):
        pts = lattice_points(dilate(standard_triangle(), 3))
        checked = 0
        for d in range(3, 7):
            for subset in combinations(pts, d):
                assert is_class_Qd(subset, d) == hull_class_Qd(subset, d), subset
                checked += 1
        assert checked == 792

    def test_random_point_sets(self):
        rng = random.Random(61)
        seen = {True: 0, False: 0}
        for _ in range(1500):
            d = rng.randint(3, 6)
            box = rng.randint(1, 6)
            Q = [(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(d)]
            got = is_class_Qd(Q, d)
            assert got == hull_class_Qd(Q, d), (Q, d)
            seen[got] += 1
        assert min(seen.values()) > 50

    def test_every_class_subset_of_the_3x3_box_spans_d_minus_1(self):
        # a no-line set of d points spans at least d - 1 and, being in the
        # class, at most d - 1
        pts = lattice_points(rectangle(3, 3))
        found = {}
        for d in range(3, 7):
            found[d] = 0
            for subset in combinations(pts, d):
                got = is_class_Qd(subset, d)
                assert got == hull_class_Qd(subset, d), subset
                if got:
                    assert span(subset) == d - 1, subset
                    found[d] += 1
        assert min(found.values()) > 0

    @pytest.mark.parametrize("d", (4, 5, 6))
    def test_staircase_shapes_are_in_class(self, d):
        shapes = _staircase_shapes(d)
        assert len(shapes) == 2 ** (d - 1) + 1
        for shape in shapes:
            assert is_class_Qd(shape, d) and hull_class_Qd(shape, d), shape
            moved = [add(p, (7, -3)) for p in shape]
            assert is_class_Qd(moved, d)


class TestSubdiagramSearch:
    @pytest.mark.parametrize("box", (2, 3, 4, 5, 6, 7, 8))
    def test_same_result_as_hull_search(self, box):
        # six draws per box reach every outcome: staircase, exhaustive hit
        # and no subdiagram; the reference searches all of P, not the band
        rng = random.Random(100 + box)
        for _ in range(6):
            P = random_polygon(rng, box=box)
            for d in (4, 5, 6):
                for g in (None, DOWN):
                    assert _find_Qd(P, d, g) == hull_find_Qd(P, d, g), (P, d, g)

    def test_other_face_constraints_match_hull_search(self):
        rng = random.Random(7)
        for _ in range(8):
            P = random_polygon(rng, box=5)
            for g in (NE, LEFT, UP, (2, -1)):
                assert _find_Qd(P, 5, g) == hull_find_Qd(P, 5, g), (P, g)

    def test_face_staircase_tries_only_anchors_on_the_face(self, monkeypatch):
        # the bottom face of r^2 of a long thin triangle is its long edge, and
        # the one staircase on it is the diagonal segment at the end of the
        # point order; a search that builds a candidate at every anchor
        # builds at least one per lattice point, 604 here, before reaching
        # it, and this one builds only that segment
        P = rotate_r(rotate_r(LatticePolygon.hull([(0, 0), (300, 0), (0, 3)])))
        expected = hull_find_Qd(P, 4, DOWN)
        assert expected is not None
        assumptions._shapes_by_reach(4, DOWN)  # build the shapes outside the count
        built = []
        monkeypatch.setattr(assumptions, "add", lambda p, s: built.append(p) or add(p, s))
        assert _find_Qd(P, 4, DOWN) == expected
        assert len(built) == 4

    def test_exhaustive_search_on_4delta(self):
        # no staircase fits and none of the C(15, 6) subsets is in the class
        P = dilate(standard_triangle(), 4)
        assert _find_Qd(P, 6, None) is None
        assert hull_find_Qd(P, 6, None) is None

    def test_short_span_searches_nothing(self, monkeypatch):
        # 4 * Delta spans 4 < 6 - 1, so no subset of it is a Q6 and the
        # search needs neither a candidate nor a class test
        P = dilate(standard_triangle(), 4)
        tested, built = [], []
        monkeypatch.setattr(
            assumptions, "is_class_Qd", lambda Q, d: tested.append(Q) or is_class_Qd(Q, d)
        )
        monkeypatch.setattr(assumptions, "add", lambda p, s: built.append(p) or add(p, s))
        assert _find_Qd(P, 6, None) is None
        assert tested == [] and built == []

    @pytest.mark.parametrize(
        "verts, d, found",
        (
            # no staircase fits; with DOWN the first class subset is number
            # 82 of C(9, 5) = 126 in combinations order
            ([(0, 2), (5, 0), (5, 1), (1, 3)], 5, True),
            # with DOWN, prefixes of each size 2 to 5 are pruned before the hit
            ([(0, 6), (2, 0), (2, 4)], 6, True),
            # no staircase and no class subset among C(9, 6) = 84
            ([(0, 0), (1, 0), (2, 4), (0, 3)], 6, False),
            # the same, with prefixes of each size 2 to 5 pruned
            ([(0, 0), (3, 2), (6, 6), (3, 4)], 6, False),
            # 9 wide against d - 1 = 4: the walk leaves a level at its
            # x-dead tail at each prefix size 1 to 4, and there is no class
            # subset
            ([(0, 0), (9, 5), (6, 4), (0, 1)], 5, False),
            # 8 wide against d - 1 = 5: x-dead tails at each prefix size 1
            # to 5 come before the first class subset
            ([(0, 3), (8, 0), (7, 2), (1, 3)], 6, True),
        ),
    )
    def test_pruned_walk_matches_plain_walk(self, monkeypatch, verts, d, found):
        # the same first subset as the plain walk, which tests all C(n, d),
        # from class tests of fewer subsets, each spanning at most d - 1
        P = LatticePolygon.hull(verts)
        total = math.comb(len(lattice_points(P)), d)
        tested = []
        monkeypatch.setattr(
            assumptions, "is_class_Qd", lambda Q, d: tested.append(Q) or is_class_Qd(Q, d)
        )
        for g in (None, DOWN):
            expected = plain_find_Qd(P, d, g)
            tested.clear()
            assert _find_Qd(P, d, g) == expected, g
            assert all(span(Q) <= d - 1 for Q in tested) and len(tested) < total
        assert (expected is not None) is found

    def test_thin_parallelogram_exhausts_budgets_quickly(self):
        # about 2,000 lattice points two to a column: the Q_d searches decide
        # (see the next test), so the only budget left to run out is the 5R
        # search's, in the no-tritangents row, and the battery ends quickly
        P = LatticePolygon.hull([(0, 0), (0, 1), (1000, 3000), (1000, 3001)])
        start = time.monotonic()
        assert assumptions.check_assumption1(P) == (
            Verdict.UNKNOWN,
            [
                ("no-tritangents", 0, "budget exhausted"),
                ("no-inflected-bitangents", 0, "no Q5 subdiagram"),
                ("no-higher-flexes", 0, "no Q4 subdiagram"),
                ("no-boundary-bitangents", 0, "bottom face is a vertex"),
                ("no-inflections-at-infinity", 0, "not a thin triangle"),
                ("no-boundary-bitangents", 1, "bottom face is a vertex"),
                ("no-inflections-at-infinity", 1, "not a thin triangle"),
                ("no-boundary-bitangents", 2,
                 "two lattice points on a row at height >= 2 above the bottom edge"),
                ("no-inflections-at-infinity", 2, "not a thin triangle"),
                ("no-corner-bitangents", 0, "2-dimensional and not the unit triangle"),
            ],
        )
        assert time.monotonic() - start < 2.0

    def test_thin_parallelogram_decides_with_a_large_budget(self):
        # the Q_d searches take no budget: each ends with no subdiagram, as a
        # search with an unbounded budget would.  No staircase fits, and from
        # each first point the walk scans only the d columns to its right.
        # The budget bounds the 5R search alone, so the Q rows read the same
        # at budget 0 as at the default
        P = LatticePolygon.hull([(0, 0), (0, 1), (1000, 3000), (1000, 3001)])
        start = time.monotonic()
        for d in (6, 5, 4):
            assert _find_Qd(P, d, None) is None, d
        assert time.monotonic() - start < 2.0
        at_zero = assumptions.check_assumption1(P, budget=0)[1]
        at_default = assumptions.check_assumption1(P)[1]
        assert at_zero[1:] == at_default[1:]
        assert at_zero[1:3] == [
            ("no-inflected-bitangents", 0, "no Q5 subdiagram"),
            ("no-higher-flexes", 0, "no Q4 subdiagram"),
        ]

    def test_bottom_edge_search_walks_only_the_face_band(self, monkeypatch):
        # 13,015 points in columns up to 110 high, of which 53 lie in the 4
        # lowest rows, the only rows a Q4 on the bottom edge can reach.
        # Each step of the walk takes two mins, counted here: the band takes
        # about 3,200 steps, and a walk over all of P passes 5,000 within
        # its first 10 ms.
        P = LatticePolygon.hull([(0, 0), (1, 0), (296, 30), (219, 110)])
        assert len(lattice_points(P)) == 13_015
        steps = []

        def counted_min(*args):
            steps.append(1)
            assert len(steps) <= 10_000, "the walk left the face band"
            return min(*args)

        monkeypatch.setattr(assumptions, "min", counted_min, raising=False)
        assert _find_Qd(P, 4, DOWN) is None

    def test_5delta_has_q6(self):
        Q = _find_Qd(dilate(standard_triangle(), 5), 6, None)
        assert Q is not None and is_class_Qd(Q, 6)

    def test_rectangle_has_q6(self):
        Q = _find_Qd(rectangle(3, 4), 6, None)
        assert Q is not None and is_class_Qd(Q, 6)

    def test_delta_has_no_q4(self):
        assert _find_Qd(standard_triangle(), 4, None) is None


@pytest.fixture
def five_r_tests(monkeypatch):
    """The units of work the 5R search is charged for, in order: ("u", u)
    for each u visited, and ("column", Q) for each column of translations
    of Q scanned."""
    partners, columns, units = assumptions._partners, assumptions._columns, []

    def counted_partners(u, wx, hy):
        units.append(("u", u))
        return partners(u, wx, hy)

    def counted_columns(P, Q):
        for column in columns(P, Q):
            units.append(("column", Q))
            yield column

    monkeypatch.setattr(assumptions, "_partners", counted_partners)
    monkeypatch.setattr(assumptions, "_columns", counted_columns)
    return units


def scanned(units):
    """The parallelograms whose 5-fold dilates the search scanned, in order."""
    Qs = [Q for kind, Q in units if kind == "column"]
    return [Q for i, Q in enumerate(Qs) if i == 0 or Qs[i - 1] != Q]


def fits_box(P, corners):
    (xl, yl), (xh, yh) = P.bounding_box()
    return (
        max(x for x, _ in corners) - min(x for x, _ in corners) <= xh - xl
        and max(y for _, y in corners) - min(y for _, y in corners) <= yh - yl
    )


class TestFiveR:
    @pytest.mark.parametrize("budget, exhausted", ((4, False), (3, True)))
    def test_budget_bounds_a_small_search(self, five_r_tests, budget, exhausted):
        # 5 * Delta spans 5 on both axes, so W = H = 1: the search visits
        # u = (-1, -1), (-1, 0) and (-1, 1), and scans the one column of
        # the 5 by 5 square, the 5R of (-1, 0) and its only partner (0, -1).
        # Of area 25 / 2, 5 * Delta holds no 5R
        P = dilate(standard_triangle(), 5)
        square = ((0, 0), (-5, 0), (0, -5), (-5, -5))
        units = [("u", (-1, -1)), ("u", (-1, 0)), ("column", square), ("u", (-1, 1))]
        assert assumptions._contains_5R(P, budget) == (False, exhausted)
        assert five_r_tests == units[:budget]

    def test_budget_edge_on_a_wide_quadrilateral(self, five_r_tests):
        # the first 5R found costs exactly 986 units of work
        P = LatticePolygon.hull([(0, 0), (1, 0), (296, 30), (219, 110)])
        assert assumptions._contains_5R(P, 985) == (False, True)
        assert len(five_r_tests) == 985
        five_r_tests.clear()
        assert assumptions._contains_5R(P, 986) == (True, False)
        assert len(five_r_tests) == 986

    def test_finds_5R_within_budget(self):
        assert assumptions._contains_5R(rectangle(5, 5), 81) == (True, False)

    def test_same_result_as_hull_dedup(self, five_r_tests):
        # the search scans an in-order prefix of the reference's containment
        # tests that fit P's box, and skips the others, which cannot fit; it
        # spends at most its budget, and when it is not exhausted it has
        # made all of those tests up to the reference's last and agrees
        rng = random.Random(5)
        seen = set()
        for _ in range(40):
            P = random_polygon(rng, box=rng.randint(2, 14))
            expected_calls = []
            expected = hull_contains_5R(P, expected_calls)
            fitting = [R5 for _, R5 in expected_calls if fits_box(P, R5)]
            for budget in (-1, 0, 1, 3, 4, 80, 81, 5000, 200_000):
                five_r_tests.clear()
                got = assumptions._contains_5R(P, budget)
                assert len(five_r_tests) <= max(budget, 0), (P, budget)
                tested = [LatticePolygon.hull(Q).canonical().vertices for Q in scanned(five_r_tests)]
                assert tested == fitting[: len(tested)], (P, budget)
                if got[1]:
                    assert not got[0], (P, budget)
                else:
                    assert got[0] == expected and tested == fitting, (P, budget)
                seen.add(got)
        assert seen == {(True, False), (False, True), (False, False)}

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)), min_size=3, max_size=6),
        st.integers(-1, 400),
        st.integers(1, 400),
    )
    def test_a_decided_result_stays_at_every_larger_budget(self, pts, budget, more):
        P = LatticePolygon.hull(pts)
        assume(P.dim == 2)
        got = assumptions._contains_5R(P, budget)
        assume(not got[1])
        for larger in (budget + more, budget + 10 * more, 200_000):
            assert assumptions._contains_5R(P, larger) == got, larger

    def test_narrow_box_gets_what_the_search_ends_with(self):
        # every polygon in [0,4]^2 is narrower than 5 on both axes, so the
        # search returns before its loop, decided at every budget; the loop,
        # run in full, finds no 5R either
        def searched(P):
            (xl, yl), (xh, yh) = P.bounding_box()
            bound = max(1, math.ceil(max(xh - xl, yh - yl) / 5))
            coords = range(-bound, bound + 1)
            for ux, uy, vx, vy in product(coords, repeat=4):
                u, v = (ux, uy), (vx, vy)
                if not (u < v and u <= neg(u) and v <= neg(v)) or abs(ux * vy - uy * vx) != 1:
                    continue
                corners = [(0, 0), (5 * ux, 5 * uy), (5 * vx, 5 * vy), (5 * (ux + vx), 5 * (uy + vy))]
                if contains_translate(P, corners) is not None:
                    return True
            return False

        classes = lattice_classes(4)
        assert len(classes) == 17978
        for P in classes:
            assert not searched(P), P
            for budget in (-1, 0, 1, 81, 200_000):
                assert assumptions._contains_5R(P, budget) == (False, False), (P, budget)

    def test_builds_no_hull(self, monkeypatch):
        def no_hull(points):
            raise AssertionError("hull built")

        monkeypatch.setattr(LatticePolygon, "hull", staticmethod(no_hull))
        assert assumptions._contains_5R(rectangle(5, 5), 81) == (True, False)
        assert assumptions._contains_5R(rectangle(9, 4), 200_000) == (False, False)

    def test_budget_bounds_a_long_search(self, five_r_tests):
        # seven lattice points, no Q6 and no 5R, 5 high so that the search
        # runs, and 1000 wide: W = 200, so the rows of u near -W soon scan
        # hundreds of columns each.  Without the fast path every unit
        # charged is the 5R search's, and an exhausted search spent them all
        P = LatticePolygon.hull([(0, 0), (1, 0), (1000, 5)])
        rep = full_assumption_report(P, budget=5000, fast_path=False)
        assert ("no-tritangents", 0, "budget exhausted") in rep.evidence
        assert len(five_r_tests) == 5000

    def test_memory_is_bounded_by_the_budget(self):
        # W = 2 * 10**6 on this triangle: the search holds one u, its
        # partners one at a time and one column, never a list of the box
        P = LatticePolygon.hull([(0, 0), (3, 0), (10**7, 7)])
        tracemalloc.start()
        try:
            assert assumptions._contains_5R(P, 200_000) == (False, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 10**6

    @pytest.mark.parametrize("height", (10**5, 10**8), ids=("1e5", "1e8"))
    def test_sheared_parallelogram_exhausts_quickly(self, height):
        # the row ux = -W has no partner for any uy, and the box is 3 * 2 *
        # height / 5 + 1 values of uy high: each u visited is a unit, so the
        # search ends after 200,000 of them, at any height
        P = LatticePolygon.hull([(0, 0), (0, 1), (height, 3 * height), (height, 3 * height + 1)])
        start = time.monotonic()
        assert assumptions._contains_5R(P, 200_000) == (False, True)
        assert time.monotonic() - start < 2.0

    @pytest.mark.parametrize(
        "vertices, expected",
        (
            ([(0, 0), (61, 360), (36, 217)], (True, False)),
            ([(0, 0), (74, 148), (126, 254)], (False, False)),
            ([(0, 0), (1, 0), (1000, 5)], (False, False)),
            ([(0, 0), (3, 0), (10**5, 7)], (False, True)),
            ([(0, 0), (3, 0), (10**9, 7)], (False, True)),
        ),
        ids=("61-360", "74-148", "1000-5", "1e5-triangle", "1e9-triangle"),
    )
    def test_wide_boxes_decide_or_exhaust_within_a_second(self, vertices, expected):
        P = LatticePolygon.hull(vertices)
        start = time.monotonic()
        assert assumptions._contains_5R(P, 200_000) == expected
        assert time.monotonic() - start < 1.0


class TestAssumption3:
    def test_5delta(self):
        v, _ = check_assumption3(dilate(standard_triangle(), 5))
        assert v is Verdict.VERIFIED

    def test_rectangle(self):
        v, ev = check_assumption3(rectangle(3, 4))
        assert v is Verdict.VERIFIED

    def test_strip_unknown(self):
        v, _ = check_assumption3(rectangle(9, 1))
        assert v is Verdict.UNKNOWN

    def test_tangent_asymptotes_on_two_rows(self):
        # two ordinates: the condition holds only when the top face is a vertex
        _, ev = check_assumption3(LatticePolygon.hull([(0, 0), (2, 0), (1, 1)]))
        assert ("no-tangent-asymptotes", 0, "3 ordinates or top face is a vertex") in ev
        _, ev = check_assumption3(rectangle(9, 1))
        assert ("no-tangent-asymptotes", 0, "no condition fired") in ev

    def test_many_ordinates_without_four_consecutive(self):
        # two rotations have 8,002 ordinates and no four in a row
        P = LatticePolygon.hull([(0, 0), (0, 1), (4000, 12000), (4000, 12001)])
        start = time.monotonic()
        assert check_assumption3(P) == (
            Verdict.UNKNOWN,
            [
                ("no-vertical-bitangents", 0, "no condition fired"),
                ("no-vertical-inflections", 0, "at least 3 ordinates"),
                ("no-tangent-asymptotes", 0, "3 ordinates or top face is a vertex"),
                ("no-vertical-bitangents", 1, "no condition fired"),
                ("no-vertical-inflections", 1, "at least 3 ordinates"),
                ("no-tangent-asymptotes", 1, "3 ordinates or top face is a vertex"),
                ("no-vertical-bitangents", 2, "4 consecutive ordinates"),
                ("no-vertical-inflections", 2, "at least 3 ordinates"),
                ("no-tangent-asymptotes", 2, "3 ordinates or top face is a vertex"),
            ],
        )
        assert time.monotonic() - start < 1.0


class TestRowsThatNeverDecide:
    """On every class of [0, 3]^2, two rows fail only next to another
    failing row, so neither decides a verdict there.  A failing
    no-tangent-asymptotes row has fewer than 3 ordinates, as the row is
    "three or ...", so no-vertical-inflections fails in its direction.  The
    only polygon that fails no-corner-bitangents, the unit triangle, is the
    thin triangle with k = 0, so no-inflections-at-infinity fails in
    direction 0."""

    def test_every_class_of_the_3x3_box(self):
        asymptotes = corners = 0
        for P in lattice_classes(3):
            (_, ev1), (_, ev3) = check_assumption1(P), check_assumption3(P)
            for k in range(3):
                if ("no-tangent-asymptotes", k, "no condition fired") in ev3:
                    asymptotes += 1
                    assert ("no-vertical-inflections", k, "fewer than 3 ordinates") in ev3
            if ("no-corner-bitangents", 0, "polygon is the unit triangle") in ev1:
                corners += 1
                assert ("no-inflections-at-infinity", 0, "thin triangle") in ev1
        assert (asymptotes, corners) == (114, 1)


class TestBoundaryBitangents:
    def test_bottom_vertex(self):
        P = LatticePolygon.hull([(1, 0), (0, 2), (3, 3)])
        assert _boundary_bitangent_excluded(P, 0) == "bottom face is a vertex"

    @pytest.mark.parametrize("t", [(0, 0), (3, -5)])
    def test_row_two_above_the_bottom_edge(self, t):
        # no Q4 on the bottom edge; the only row of two points above it is
        # at height exactly 2, measured from P's lowest row
        P = LatticePolygon.hull([(0, 0), (1, 0), (5, 2), (4, 3)]).translate(t)
        assert _boundary_bitangent_excluded(P, 0) == (
            "two lattice points on a row at height >= 2 above the bottom edge"
        )

    def test_maps_only_the_band_above_the_bottom_edge(self, monkeypatch):
        # r^2's bottom edge is P's face at LEFT, the column x = 0; the
        # bottom-edge Q4 search maps the 13 points of the 4 columns x <= 3,
        # not all 200,003, and direction 1's bottom face is a vertex
        P = LatticePolygon.hull([(0, 0), (100000, 0), (0, 3)])
        real, mapped = assumptions._rotated_points, []
        monkeypatch.setattr(
            assumptions, "_rotated_points", lambda P, k, pts: mapped.append((k, len(pts))) or real(P, k, pts)
        )
        assert assumptions.check_assumption1(P)[0] is Verdict.VERIFIED
        assert mapped == [(2, 13)]


class TestFullReport:
    def test_5delta_all_verified(self):
        assert full_assumption_report(dilate(standard_triangle(), 5)).all_verified

    def test_rectangle_all_verified(self):
        assert full_assumption_report(rectangle(3, 4)).all_verified

    @pytest.mark.parametrize("fast_path", (True, False))
    def test_each_rotation_listed_once(self, listed_once, fast_path):
        # this long polygon holds 2,003 points; only P is listed, and its
        # rotations are read off its points
        P = LatticePolygon.hull([(0, 0), (1000, 0), (0, 3)])
        assert full_assumption_report(P, fast_path=fast_path).all_verified
        listed_once(P)

    def test_report_leaves_points_only_in_the_memo(self):
        # no cache of the battery holds points: once the lattice_points memo
        # is cleared, the 2,003 points of this long polygon are freed
        P = LatticePolygon.hull([(0, 0), (1000, 0), (0, 3)])
        tracemalloc.start()
        try:
            lattice_points.cache_clear()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            full_assumption_report(P)
            lattice_points.cache_clear()
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - before < 64 * 1024
        finally:
            tracemalloc.stop()

    def test_7delta_fast_path(self):
        rep = full_assumption_report(dilate(standard_triangle(), 7))
        assert rep.all_verified
        assert rep.evidence[0][0] == "contains-5-delta"

    def test_cubic_a2_fails(self):
        rep = full_assumption_report(LatticePolygon.hull([(0, 3), (1, 0), (2, 0)]))
        assert rep.a2 is Verdict.FAILS_KNOWN

    def test_battery_consistent_with_containment(self):
        rng = random.Random(55)
        done = 0
        while done < 10:
            P = random_polygon(rng, box=9)
            if contains_translate(P, dilate(standard_triangle(), 5)) is None:
                continue
            done += 1
            rep = full_assumption_report(P, fast_path=False)
            assert rep.all_verified, P.vertices

    def test_wide_triangle_makes_no_membership_test(self, monkeypatch):
        # the 5 * Delta fast path solves one interval per column of a window
        # 10^5 columns wide, and no other part of the report tests a point
        def no_membership_test(self, p):
            raise AssertionError("the report tested a point for membership")

        monkeypatch.setattr(LatticePolygon, "contains_point", no_membership_test)
        rep = full_assumption_report(LatticePolygon.hull([(0, 0), (3, 0), (10**5, 7)]))
        assert (rep.a1, rep.a2, rep.a3) == (Verdict.UNKNOWN, Verdict.VERIFIED, Verdict.VERIFIED)
        assert rep.thin_witness is None
        outcomes = [
            "budget exhausted", "no Q5 subdiagram", "Q4 subdiagram found",
            "Q4 subdiagram aligned with the bottom edge", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ]
        assert rep.evidence == [
            (name, k, outcome) for (name, k), outcome in zip(BATTERY_ROWS, outcomes, strict=True)
        ]

    def test_evidence_nonempty(self):
        rep = full_assumption_report(rectangle(3, 4))
        assert rep.evidence
        names = {e[0] for e in rep.evidence}
        assert "no-tritangents" in names and "no-vertical-bitangents" in names


# The (criterion, direction) of each evidence line of a battery report, in
# order: the tritangent, inflected-bitangent and higher-flex searches; the
# boundary-bitangent and inflection-at-infinity tests in each direction;
# the corner test; the thin classification (at the direction of the thin
# rotation, 0 when there is none); the three tests of assumption 3 in each
# direction.
BATTERY_ROWS = [
    ("no-tritangents", 0),
    ("no-inflected-bitangents", 0),
    ("no-higher-flexes", 0),
    ("no-boundary-bitangents", 0), ("no-inflections-at-infinity", 0),
    ("no-boundary-bitangents", 1), ("no-inflections-at-infinity", 1),
    ("no-boundary-bitangents", 2), ("no-inflections-at-infinity", 2),
    ("no-corner-bitangents", 0),
    ("thin-classification", 0),
    ("no-vertical-bitangents", 0), ("no-vertical-inflections", 0), ("no-tangent-asymptotes", 0),
    ("no-vertical-bitangents", 1), ("no-vertical-inflections", 1), ("no-tangent-asymptotes", 1),
    ("no-vertical-bitangents", 2), ("no-vertical-inflections", 2), ("no-tangent-asymptotes", 2),
]

# P is 5R for u = (1, -2), v = (-2, 5); no staircase Q6 fits in it, but
# the exhaustive walk finds one
FIVE_R = [(0, 0), (5, -10), (-10, 25), (-5, 15)]

# vertices, budget, (a1, a2, a3), thin witness, outcomes in BATTERY_ROWS order
EVIDENCE_TABLE = [
    pytest.param(
        [(0, 0), (1, 0), (0, 1)], 200_000,
        ("Unknown", "FailsKnown", "Unknown"), ThinTriangleWitness(k=0, translation=(-1, 0)),
        [
            "no Q6 subdiagram, no 5R", "no Q5 subdiagram", "no Q4 subdiagram",
            "no condition fired", "thin triangle",
            "no condition fired", "thin triangle",
            "no condition fired", "thin triangle",
            "polygon is the unit triangle", "thin triangle",
            "vertical degree at most 3", "fewer than 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "fewer than 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "fewer than 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="unit-triangle",
    ),
    pytest.param(
        [(0, 0), (1, -2), (0, 1)], 200_000,
        ("Unknown", "Verified", "Unknown"), None,
        [
            "no Q6 subdiagram, no 5R", "no Q5 subdiagram", "no Q4 subdiagram",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "no condition fired", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "fewer than 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="no-search-fires",
    ),
    # the 5R search, the only one with a budget, runs on a box 5 wide on
    # both sides: it visits three u and scans one column, four units, so
    # it runs out at 3
    pytest.param(
        [(0, 0), (5, 1), (1, 5)], 3,
        ("Unknown", "Verified", "Verified"), None,
        [
            "budget exhausted", "Q5 subdiagram found", "Q4 subdiagram found",
            "bottom face is a vertex", "not a thin triangle",
            "Q4 subdiagram aligned with the bottom edge", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="q6-budget-exhausted",
    ),
    pytest.param(
        [(0, 0), (1, -3), (1, -1)], 200_000,
        ("Unknown", "Verified", "Unknown"), None,
        [
            "no Q6 subdiagram, no 5R", "no Q5 subdiagram", "Q4 subdiagram found",
            "bottom face is a vertex", "not a thin triangle",
            "Q4 subdiagram aligned with the bottom edge", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "fewer than 3 ordinates", "no condition fired",
        ],
        id="q4-no-q5",
    ),
    pytest.param(
        [(0, 0), (1, -3), (1, 0)], 200_000,
        ("Unknown", "Verified", "Unknown"), None,
        [
            "no Q6 subdiagram, no 5R", "Q5 subdiagram found", "Q4 subdiagram found",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "fewer than 3 ordinates", "no condition fired",
        ],
        id="q5-no-q6",
    ),
    pytest.param(
        [(0, 0), (1, -3), (2, 0)], 200_000,
        ("Verified", "Verified", "Verified"), None,
        [
            "Q6-generalized subdiagram found", "Q5 subdiagram found", "Q4 subdiagram found",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="all-verified",
    ),
    pytest.param(
        [(0, 0), (3, 2), (3, 3), (0, 1)], 200_000,
        ("Unknown", "Verified", "Unknown"), None,
        [
            "no Q6 subdiagram, no 5R", "no Q5 subdiagram", "no Q4 subdiagram",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "two lattice points on a row at height >= 2 above the bottom edge", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "no condition fired", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="row-two-above-bottom",
    ),
    pytest.param(
        [(0, 0), (1, -1), (0, 1)], 200_000,
        ("Unknown", "Verified", "Unknown"), None,
        [
            "no Q6 subdiagram, no 5R", "no Q5 subdiagram", "no Q4 subdiagram",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "no condition fired", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "fewer than 3 ordinates", "no condition fired",
            "vertical degree at most 3", "fewer than 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="two-rows-top-edge",
    ),
    pytest.param(
        [(0, 0), (2, 2), (0, 1)], 200_000,
        ("Unknown", "Verified", "Unknown"), None,
        [
            "no Q6 subdiagram, no 5R", "no Q5 subdiagram", "no Q4 subdiagram",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "no condition fired", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "no condition fired", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="vertical-bitangents-unknown",
    ),
    # 2 * Delta spans 2 < 4 - 1, so the Q4 search decides at once; its box
    # is narrower than 5, so the 5R search decides at any budget
    pytest.param(
        [(0, 0), (2, 0), (0, 2)], 10,
        ("Unknown", "Verified", "Verified"), None,
        [
            "no Q6 subdiagram, no 5R", "no Q5 subdiagram", "no Q4 subdiagram",
            "no condition fired", "not a thin triangle",
            "no condition fired", "not a thin triangle",
            "no condition fired", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="2delta-no-q4",
    ),
    # a Q4 on two bottom edges, and none on the third, which is a vertex
    pytest.param(
        [(0, 0), (1, -1), (2, 0), (0, 2)], 10,
        ("Unknown", "Verified", "Verified"), None,
        [
            "no Q6 subdiagram, no 5R", "no Q5 subdiagram", "Q4 subdiagram found",
            "bottom face is a vertex", "not a thin triangle",
            "Q4 subdiagram aligned with the bottom edge", "not a thin triangle",
            "Q4 subdiagram aligned with the bottom edge", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "vertical degree at most 3", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="q4-on-two-bottom-edges",
    ),
    # a 5R and no Q6; the 5R is u = (1, 1), v = (6, 7)
    pytest.param(
        [(0, 0), (5, 5), (35, 40), (30, 35)], 200_000,
        ("Unknown", "Verified", "Unknown"), None,
        [
            "contains 5R for a unimodular parallelogram", "no Q5 subdiagram", "no Q4 subdiagram",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "no condition fired", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="5R",
    ),
    # a1 is Unknown through the boundary test alone
    pytest.param(
        [(0, 0), (2, 0), (9, 1), (4, 1)], 200_000,
        ("Unknown", "Verified", "Unknown"), None,
        [
            "Q6-generalized subdiagram found", "Q5 subdiagram found", "Q4 subdiagram found",
            "no condition fired", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "vertical degree at most 3", "fewer than 3 ordinates", "no condition fired",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="boundary-bitangents-decide",
    ),
    # the 5R search runs, on a 5 by 5 box with one containment test, and
    # decides that no 5R fits; that row alone keeps a1 Unknown
    pytest.param(
        [(0, 0), (5, 3), (3, 5)], 200_000,
        ("Unknown", "Verified", "Verified"), None,
        [
            "no Q6 subdiagram, no 5R", "Q5 subdiagram found", "Q4 subdiagram found",
            "bottom face is a vertex", "not a thin triangle",
            "Q4 subdiagram aligned with the bottom edge", "not a thin triangle",
            "bottom face is a vertex", "not a thin triangle",
            "2-dimensional and not the unit triangle", "not in the thin orbit",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
            "4 consecutive ordinates", "at least 3 ordinates", "3 ordinates or top face is a vertex",
        ],
        id="5R-decides",
    ),
]


class TestEvidenceTable:
    """The whole report with ``fast_path=False`` on inputs that reach, with
    the fast path on 5*Delta, every (criterion, outcome) pair the battery
    can report."""

    @pytest.mark.parametrize("vertices, budget, verdicts, witness, outcomes", EVIDENCE_TABLE)
    def test_battery_report(self, vertices, budget, verdicts, witness, outcomes):
        rep = full_assumption_report(LatticePolygon.hull(vertices), budget, fast_path=False)
        assert (rep.a1.value, rep.a2.value, rep.a3.value) == verdicts
        assert rep.thin_witness == witness
        assert rep.evidence == [
            (name, k, outcome) for (name, k), outcome in zip(BATTERY_ROWS, outcomes, strict=True)
        ]

    def test_fast_path_report(self):
        rep = full_assumption_report(dilate(standard_triangle(), 5), fast_path=True)
        assert (rep.a1, rep.a2, rep.a3) == (Verdict.VERIFIED,) * 3
        assert rep.thin_witness is None
        assert rep.evidence == [("contains-5-delta", 0, "contains a translate of 5*Delta")]

    @pytest.mark.parametrize("vertices", [[(0, 0), (2, 0), (0, 2)], FIVE_R], ids=["2delta", "5R"])
    def test_negative_budget_is_budget_zero(self, vertices):
        P = LatticePolygon.hull(vertices)
        assert full_assumption_report(P, -1) == full_assumption_report(P, 0)


def rotated_frame_boundary(Pk):
    """The boundary-bitangent test in the frame of r^k(P) itself: its own
    bottom edge, its own listing and rows, and the bottom-edge Q4 search."""
    if DOWN not in edge_fan(Pk):
        return "bottom face is a vertex"
    if _find_Qd(Pk, 4, DOWN) is not None:
        return "Q4 subdiagram aligned with the bottom edge"
    y0 = min(y for _, y in Pk.vertices)
    if any(y >= y0 + 2 and n >= 2 for y, n in Counter(y for _, y in lattice_points(Pk)).items()):
        return "two lattice points on a row at height >= 2 above the bottom edge"
    return None


def rotated_frame_assumption3(Ps):
    """The rows of assumption 3 from each r^k(P)'s own ordinates and top face."""
    rows = []
    for k, Pk in enumerate(Ps):
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
            ("no-vertical-inflections", k, three, "at least 3 ordinates" if three else "fewer than 3 ordinates"),
            ("no-tangent-asymptotes", k, asymptotes,
             "3 ordinates or top face is a vertex" if asymptotes else "no condition fired"),
        ]
    return rows


def assembled_report(P, budget):
    """The battery report with every subdiagram search run on its own and
    every direction in its own frame: Q6, Q5 and Q4 on P, and the boundary
    and assumption-3 tests on r^k(P), each listing its own polygon.  The
    budget bounds the 5R search alone."""
    if _find_Qd(P, 6, None) is not None:
        rows = [("no-tritangents", 0, True, "Q6-generalized subdiagram found")]
    else:
        has_5R, exhausted5R = assumptions._contains_5R(P, budget)
        if has_5R:
            outcome = "contains 5R for a unimodular parallelogram"
        else:
            outcome = "budget exhausted" if exhausted5R else "no Q6 subdiagram, no 5R"
        rows = [("no-tritangents", 0, has_5R, outcome)]
    for d, name in ((5, "no-inflected-bitangents"), (4, "no-higher-flexes")):
        qd = _find_Qd(P, d, None)
        rows.append((name, 0, qd is not None, f"Q{d} subdiagram found" if qd else f"no Q{d} subdiagram"))
    Ps = [P, rotate_r(P), rotate_r(rotate_r(P))]
    for k, Pk in enumerate(Ps):
        cond = rotated_frame_boundary(Pk)
        thin = is_thin(Pk) is not None
        rows += [
            ("no-boundary-bitangents", k, cond is not None, cond or "no condition fired"),
            ("no-inflections-at-infinity", k, not thin, "thin triangle" if thin else "not a thin triangle"),
        ]
    unit = P.canonical().vertices == standard_triangle().vertices
    rows.append(("no-corner-bitangents", 0, not unit,
                 "polygon is the unit triangle" if unit else "2-dimensional and not the unit triangle"))
    a1 = Verdict.VERIFIED if all(passed for _, _, passed, _ in rows) else Verdict.UNKNOWN
    a2, witness = assumption2_holds(P)
    thin_row = (witness.rotation_power, "thin triangle") if witness else (0, "not in the thin orbit")
    rows3 = rotated_frame_assumption3(Ps)
    a3 = Verdict.VERIFIED if all(passed for _, _, passed, _ in rows3) else Verdict.UNKNOWN
    evidence = (
        [(name, k, outcome) for name, k, _, outcome in rows]
        + [("thin-classification", *thin_row)]
        + [(name, k, outcome) for name, k, _, outcome in rows3]
    )
    return AssumptionReport(a1=a1, a2=a2, a3=a3, evidence=evidence, thin_witness=witness)


class TestSearchesInferredFromEachOther:
    """The report runs the Q5 search first, reads Q6 off "no Q5" and Q4 off
    a Q5 found, and skips the bottom-edge Q4 searches after "no Q4"; it
    reads the boundary and assumption-3 tests of r(P) and r^2(P) off P, and
    maps P's points to r^k(P) only for the bottom-edge Q4 search."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(4, 6).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.sets(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), min_size=d, max_size=d),
            )
        ),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    )
    def test_class_is_rotation_invariant(self, case, t):
        d, S = case
        S = [add(p, t) for p in S]
        assert is_class_Qd(S, d) == is_class_Qd([rotate_point(p) for p in S], d)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(5, 6).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.sets(st.sampled_from(lattice_points(dilate(standard_triangle(), d - 1))), min_size=d, max_size=d),
            )
        )
    )
    def test_every_class_set_holds_a_smaller_one(self, case):
        d, S = case
        assume(is_class_Qd(S, d))
        assert any(is_class_Qd(S - {p}, d - 1) for p in S)

    def test_same_report_as_independent_searches(self):
        rng = random.Random(26)
        for _ in range(200):
            P = random_polygon(rng, box=rng.randint(2, 9))
            Pk = P
            for k in (1, 2):
                Pk = rotate_r(Pk)
                assert assumptions._rotations(P)[k] == Pk
                assert assumptions._rotated_points(P, k, lattice_points(P)) == lattice_points(Pk)
            for budget in (-1, 0, 1, 10, 500, 200_000):
                assert full_assumption_report(P, budget, fast_path=False) == assembled_report(P, budget), (P, budget)


class TestTranslationInvariance:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=7),
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    )
    def test_report_unchanged_by_translation(self, pts, t):
        P = LatticePolygon.hull(pts)
        assume(P.dim == 2)
        a = full_assumption_report(P)
        b = full_assumption_report(P.translate(t))
        assert (a.a1, a.a2, a.a3, a.evidence) == (b.a1, b.a2, b.a3, b.evidence)


class TestRotationInvariance:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=7))
    def test_verdicts_unchanged_by_rotation(self, pts):
        P = LatticePolygon.hull(pts)
        assume(P.dim == 2)
        a = full_assumption_report(P)
        b = full_assumption_report(rotate_r(P))
        assert (a.a1, a.a2, a.a3, a.all_verified) == (b.a1, b.a2, b.a3, b.all_verified)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=8))
    def test_direction_k_of_r_P_is_direction_k_plus_1_of_P(self, pts):
        P = LatticePolygon.hull(pts)
        assume(P.dim == 2)
        a = full_assumption_report(P, fast_path=False)
        b = full_assumption_report(rotate_r(P), fast_path=False)
        assert (a.a1, a.a2, a.a3) == (b.a1, b.a2, b.a3)
        per_direction = {name for name, k in BATTERY_ROWS if k == 2}
        rows_a = {(name, k): outcome for name, k, outcome in a.evidence if name in per_direction}
        rows_b = {(name, k): outcome for name, k, outcome in b.evidence if name in per_direction}
        assert len(rows_a) == 15
        assert rows_b == {(name, (k - 1) % 3): outcome for (name, k), outcome in rows_a.items()}


class TestBitangentIntegrality:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=7))
    def test_integer_when_all_verified(self, pts):
        P = LatticePolygon.hull(pts)
        assume(P.dim == 2 and full_assumption_report(P).all_verified)
        assert bitangent_count(P).denominator == 1
