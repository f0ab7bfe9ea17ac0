import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fan_sum, minkowski_sum, random_polygon, window_scan_translate
from plucker import lattice
from plucker.lattice import (
    DegeneratePolygonError,
    LatticePolygon,
    contains_translate,
    dilate,
    doubled_area,
    edge_fan,
    interior_lattice_points,
    lattice_points,
    mixed_volume,
    rectangle,
    rotate_point,
    rotate_r,
    segment_length,
    standard_triangle,
    volume,
    _point_count,
)

D = standard_triangle()


class TestConvexHull:
    def test_triangle(self):
        P = LatticePolygon.hull({(0, 0), (1, 0), (0, 1)})
        assert set(P.vertices) == {(0, 0), (1, 0), (0, 1)}
        assert P.dim == 2

    def test_midpoints_absorbed(self):
        P = LatticePolygon.hull({(0, 0), (2, 0), (1, 0), (0, 2), (1, 1)})
        assert set(P.vertices) == {(0, 0), (2, 0), (0, 2)}

    def test_point_polygon(self):
        P = LatticePolygon.hull({(5, 5)})
        assert P.vertices == ((5, 5),)
        assert P.dim == 0

    def test_segment(self):
        P = LatticePolygon.hull({(0, 0), (2, 4), (1, 2)})
        assert P.dim == 1
        assert set(P.vertices) == {(0, 0), (2, 4)}

    def test_ccw_order(self):
        P = LatticePolygon.hull({(0, 0), (3, 0), (3, 3), (0, 3)})
        v = P.vertices
        n = len(v)
        area2 = sum(
            v[i][0] * v[(i + 1) % n][1] - v[(i + 1) % n][0] * v[i][1]
            for i in range(n)
        )
        assert area2 > 0


class TestSupportSet:
    """The face of P at a direction g, read off the edge fan: an edge of
    the given lattice length, or a vertex when g is absent."""

    def test_bottom_edge_of_5delta(self):
        P = dilate(D, 5)
        assert edge_fan(P)[(0, -1)] == 5
        assert {(0, 0), (5, 0)} in [set(e) for e in P.edges()]

    def test_ne_vertex_of_rectangle(self):
        assert (1, 1) not in edge_fan(rectangle(3, 4))

    def test_left_edge(self):
        P = LatticePolygon.hull([(0, 0), (0, 1), (1, 1)])
        assert edge_fan(P)[(-1, 0)] == 1
        assert {(0, 0), (0, 1)} in [set(e) for e in P.edges()]


class TestLatticeLength:
    def test_gcd_segment(self):
        assert segment_length((0, 0), (3, 6)) == 3
        assert edge_fan(LatticePolygon.hull([(0, 0), (3, 6), (0, 6)]))[(2, -1)] == 3

    def test_vertex_is_zero(self):
        assert segment_length((4, 4), (4, 4)) == 0
        assert edge_fan(rectangle(4, 4)).get((1, 1), 0) == 0

    def test_vertical_segment(self):
        assert segment_length((0, 0), (0, 7)) == 7
        assert edge_fan(rectangle(2, 7))[(-1, 0)] == 7


class TestArea:
    def test_unit_triangle(self):
        assert doubled_area(D) == 1
        assert volume(D) == Fraction(1, 2)

    def test_5delta(self):
        assert doubled_area(dilate(D, 5)) == 25

    def test_rectangle(self):
        assert doubled_area(rectangle(3, 4)) == 24

    def test_degenerate_zero(self):
        assert doubled_area(LatticePolygon.hull({(1, 1)})) == 0
        assert doubled_area(LatticePolygon.hull({(0, 0), (2, 2)})) == 0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_dilation_scales_quadratically(self, k):
        rng = random.Random(100 + k)
        for _ in range(10):
            P = random_polygon(rng)
            assert doubled_area(dilate(P, k)) == k * k * doubled_area(P)


class TestMinkowski:
    def test_pentagon_sum(self):
        # dA(P+Q) = dA(P) + dA(Q) + 2 MV(P,Q) pins the value at 6
        Q = LatticePolygon.hull([(0, 0), (0, -1), (-1, -1)])
        S = minkowski_sum(D, Q)
        assert doubled_area(S) == 6
        assert doubled_area(S) == doubled_area(D) + doubled_area(Q) + 2 * mixed_volume(D, Q)

    def test_edge_lengths_additive(self):
        rng = random.Random(7)
        for _ in range(25):
            P = random_polygon(rng)
            Q = random_polygon(rng)
            fs = edge_fan(minkowski_sum(P, Q))
            fp = edge_fan(P)
            fq = edge_fan(Q)
            for n, w in fs.items():
                assert w == fp.get(n, 0) + fq.get(n, 0)


class TestMixedVolume:
    def test_delta_delta(self):
        assert mixed_volume(D, D) == 1

    def test_p_3p(self):
        assert mixed_volume(D, dilate(D, 3)) == 6 * volume(D)

    def test_unit_square_from_segments(self):
        h = LatticePolygon(((0, 0), (1, 0)))
        v = LatticePolygon(((0, 0), (0, 1)))
        assert mixed_volume(h, v) == 1

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(11)
        for _ in range(20):
            P = random_polygon(rng, box=6)
            Q = random_polygon(rng, box=6)
            assert mixed_volume(P, Q) == mixed_volume(Q, P)
            assert mixed_volume(P, P) == 2 * volume(P)
            k = rng.randint(2, 4)
            assert mixed_volume(dilate(P, k), Q) == k * mixed_volume(P, Q)


class TestNegateDilate:
    def test_dilate_identity(self):
        assert dilate(D, 1).vertices == D.vertices

    def test_dilate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dilate(D, 0)


class TestRotation:
    def test_delta_fixed(self):
        assert rotate_r(D).vertices == D.vertices

    def test_order_three(self):
        rng = random.Random(19)
        for _ in range(20):
            P = random_polygon(rng)
            R3 = rotate_r(rotate_r(rotate_r(P)))
            assert R3.vertices == P.canonical().vertices

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)), min_size=1, max_size=8))
    def test_hull_free_rotation(self, pts):
        # polygons with up to 8 vertices, segments and points; rotate_r maps
        # the vertex cycle, the reference takes the hull of the mapped vertices
        P = LatticePolygon.hull(pts)
        assert rotate_r(P) == LatticePolygon.hull(rotate_point(v) for v in P.vertices).canonical()
        assert rotate_r(rotate_r(rotate_r(P))) == P.canonical()

    def test_area_preserved(self):
        assert doubled_area(rotate_r(rectangle(3, 4))) == 24
        rng = random.Random(23)
        for _ in range(20):
            P = random_polygon(rng)
            assert doubled_area(rotate_r(P)) == doubled_area(P)


class TestContainsTranslate:
    def test_self_containment(self):
        P = dilate(D, 5)
        assert contains_translate(P, P) == (0, 0)

    def test_rectangle_too_small(self):
        assert contains_translate(rectangle(3, 4), dilate(D, 5)) is None

    def test_5delta_in_6delta(self):
        t = contains_translate(dilate(D, 6), dilate(D, 5))
        assert t is not None

    def test_witness_is_genuine(self):
        rng = random.Random(31)
        for _ in range(15):
            P = random_polygon(rng)
            Q = random_polygon(rng, box=4)
            t = contains_translate(P, Q)
            if t is not None:
                assert all((q[0] + t[0], q[1] + t[1]) in P for q in Q.vertices)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=8),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5),
        st.booleans(),
    )
    def test_least_translation_matches_window_scan(self, pts, qpts, as_polygon):
        # collinear draws make P a point or a segment; Q is a polygon or a
        # raw point list, and the witness is the least translation either way
        P = LatticePolygon.hull(pts)
        Q = LatticePolygon.hull(qpts) if as_polygon else qpts
        assert contains_translate(P, Q) == window_scan_translate(P, Q)

    def test_empty_point_set_is_rejected(self):
        with pytest.raises(ValueError, match="empty point set"):
            contains_translate(D, [])

    def test_wide_triangle_is_not_scanned(self, monkeypatch):
        # the window of 5 * Delta in this triangle is 10^5 columns wide and 3
        # rows tall; each column is one interval, with no membership test
        P = LatticePolygon.hull([(0, 0), (3, 0), (10**5, 7)])

        def no_membership_test(self, p):
            raise AssertionError("contains_translate tested a point for membership")

        monkeypatch.setattr(LatticePolygon, "contains_point", no_membership_test)
        assert contains_translate(P, dilate(D, 5)) is None
        assert contains_translate(P, [(0, 0), (1, 0)]) == (0, 0)


class TestLatticeCounting:
    def test_interior_of_ddelta(self):
        assert interior_lattice_points(dilate(D, 4)) == 3

    def test_interior_of_delta(self):
        assert interior_lattice_points(D) == 0

    def test_interior_of_rectangle(self):
        assert interior_lattice_points(rectangle(3, 4)) == 6

    def test_rejects_degenerate(self):
        with pytest.raises(DegeneratePolygonError):
            interior_lattice_points(LatticePolygon.hull({(0, 0), (1, 0)}))

    def test_pick_consistency(self):
        # interior + boundary must equal the full enumeration
        rng = random.Random(41)
        for _ in range(15):
            P = random_polygon(rng, box=7)
            total = len(lattice_points(P))
            b = sum(segment_length(a, c) for a, c in P.edges())
            assert interior_lattice_points(P) + b == total


def bounding_box_scan(P):
    (xl, yl), (xh, yh) = P.bounding_box()
    return [
        (x, y)
        for x in range(xl, xh + 1)
        for y in range(yl, yh + 1)
        if (x, y) in P
    ]


class TestLatticePointsByColumns:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=8)
    )
    def test_matches_pick_and_scan(self, pts):
        # collinear draws cover segments and points
        P = LatticePolygon.hull(pts)
        listed = lattice_points(P)
        assert listed == tuple(bounding_box_scan(P))
        if P.dim == 2:
            b = sum(segment_length(a, c) for a, c in P.edges())
            assert len(listed) == interior_lattice_points(P) + b

    def test_long_thin_triangle_is_not_scanned(self, monkeypatch):
        # a 10^4 x 10^4 bounding box around 20,003 lattice points: a scan
        # would make 10^8 membership tests, the columns make none
        P = rotate_r(rotate_r(LatticePolygon.hull([(0, 0), (10000, 0), (0, 3)])))

        def no_membership_test(self, p):
            raise AssertionError("lattice_points tested a point for membership")

        monkeypatch.setattr(LatticePolygon, "contains_point", no_membership_test)
        lattice_points.cache_clear()
        pts = lattice_points(P)
        assert len(pts) == 20003
        assert pts == tuple(sorted(pts))

    def test_long_diagonal_segment_is_not_scanned(self, monkeypatch):
        P = LatticePolygon.hull([(0, 0), (10**5, 10**5)])
        Q = LatticePolygon.hull([(0, 0), (10**5, 3 * 10**5 + 1)])

        def no_membership_test(self, p):
            raise AssertionError("lattice_points tested a point for membership")

        monkeypatch.setattr(LatticePolygon, "contains_point", no_membership_test)
        lattice_points.cache_clear()
        assert lattice_points(P) == tuple((i, i) for i in range(10**5 + 1))
        assert lattice_points(Q) == ((0, 0), (10**5, 3 * 10**5 + 1))

    def test_remembers_the_last_polygon_by_value(self):
        P, Q = rectangle(1, 1), rectangle(1, 2)
        lattice_points.cache_clear()
        first = lattice_points(P)
        assert lattice_points(LatticePolygon(P.vertices)) is first
        lattice_points(Q)  # drops P
        assert lattice_points.cache_info().misses == 2
        lattice_points(P)
        assert lattice_points.cache_info().misses == 3


class TestListingCap:
    def test_huge_triangle_raises_at_once(self):
        # about 1.5 * 10^30 points; the error names the cap, not the count
        P = LatticePolygon.hull([(0, 0), (10**30, 0), (0, 3)])
        lattice_points.cache_clear()
        with pytest.raises(ValueError, match="more than 2,097,152 lattice points"):
            lattice_points(P)

    @pytest.mark.parametrize(
        "vertices",
        [
            [(0, 0), (18, 0), (0, 1)],  # 20 points in a 19 x 2 box
            [(0, 0), (19, 19)],  # 20 points in a 20 x 20 box
            [(0, 0), (3, 0), (3, 1), (0, 3)],
        ],
    )
    def test_both_sides_of_the_cap(self, vertices, monkeypatch):
        P = LatticePolygon.hull(vertices)
        n = _point_count(P)
        lattice_points.cache_clear()
        monkeypatch.setattr(lattice, "LATTICE_POINT_CAP", n)
        assert len(lattice_points(P)) == n
        lattice_points.cache_clear()
        monkeypatch.setattr(lattice, "LATTICE_POINT_CAP", n - 1)
        with pytest.raises(ValueError, match=f"more than {n - 1} lattice points"):
            lattice_points(P)

    def test_small_boxes_skip_the_count(self, monkeypatch):
        def no_count(P):
            raise AssertionError("counted a polygon whose box is under the cap")

        monkeypatch.setattr(lattice, "_point_count", no_count)
        monkeypatch.setattr(lattice, "LATTICE_POINT_CAP", 16)
        lattice_points.cache_clear()
        assert len(lattice_points(rectangle(3, 3))) == 16

    def test_thin_triangle_is_listed(self, monkeypatch):
        # 14 points in a box of about 8 * 10^8: under the cap, so the listing runs
        # (stubbed here: it walks every column, ROADMAP item 3)
        P = LatticePolygon.hull([(0, 0), (3, 0), (10**8, 7)])
        assert _point_count(P) == 14
        monkeypatch.setattr(lattice, "_columns", lambda P, Q: iter([(0, 0, 0)]))
        lattice_points.cache_clear()
        assert lattice_points(P) == ((0, 0),)
        lattice_points.cache_clear()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=8)
    )
    def test_pick_count_is_the_listing_length(self, pts):
        # collinear draws cover segments and points
        P = LatticePolygon.hull(pts)
        assert _point_count(P) == len(lattice_points(P))


class TestEdgeFan:
    def test_delta(self):
        assert edge_fan(D) == {(0, -1): 1, (1, 1): 1, (-1, 0): 1}

    def test_ddelta(self):
        assert edge_fan(dilate(D, 4)) == {
            (0, -1): 4,
            (1, 1): 4,
            (-1, 0): 4,
        }

    def test_golden_triangle(self):
        P = LatticePolygon.hull([(0, 0), (0, 1), (1, 1)])
        assert edge_fan(P) == {(0, 1): 1, (-1, 0): 1, (1, -1): 1}

    def test_balancing(self):
        rng = random.Random(43)
        for _ in range(30):
            assert fan_sum(edge_fan(random_polygon(rng))) == (0, 0)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=3, max_size=8)
    )
    def test_face_lengths_count_maximising_lattice_points(self, pts):
        P = LatticePolygon.hull(pts)
        assume(P.dim == 2)
        lengths = edge_fan(P)
        listed = lattice_points(P)
        for g in product(range(-4, 5), repeat=2):
            if math.gcd(*g) != 1:
                continue
            best = max(g[0] * x + g[1] * y for x, y in listed)
            on_face = sum(g[0] * x + g[1] * y == best for x, y in listed)
            assert lengths.get(g, 0) == on_face - 1
