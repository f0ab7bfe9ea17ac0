import random
from dataclasses import replace
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import face_length, fan_sum, minkowski_sum, negate, random_polygon, support_face
from plucker import formulas
from plucker.formulas import (
    FormulaInternalError,
    bitangent_count,
    dual_area_closed,
    dual_fan,
    dual_polygon,
    inflection_count,
    plucker_report,
    vertical_tangent_count,
)
from plucker.lattice import (
    ARROWS,
    DegeneratePolygonError,
    LOWER_ARROWS,
    UPPER_ARROWS,
    LatticePolygon,
    dilate,
    doubled_area,
    interior_lattice_points,
    mixed_volume,
    neg,
    rectangle,
    rotate_r,
    segment_length,
    standard_triangle,
    volume,
)

GOLDEN = LatticePolygon.hull([(0, 0), (0, 1), (1, 1)])

# vertex lists in a small box; their hulls include segments and points
SMALL_POINT_SETS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=8
)


def curve_polygon(pts) -> LatticePolygon:
    """The hull of ``pts``, assumed 2-dimensional and not a line's polygon."""
    P = LatticePolygon.hull(pts)
    assume(P.dim == 2 and P.canonical() != standard_triangle())
    return P


def quasihomog(c: int, d: int) -> LatticePolygon:
    return LatticePolygon.hull([(0, 0), (c, 0), (0, d)])


class TestInflectionCount:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_ddelta(self, d):
        assert inflection_count(dilate(standard_triangle(), d)) == 3 * d * (d - 2)

    @pytest.mark.parametrize("c", range(1, 9))
    @pytest.mark.parametrize("d", range(1, 9))
    def test_rectangle(self, c, d):
        assert inflection_count(rectangle(c, d)) == 6 * c * d - 3 * c - 3 * d

    def test_golden_zero(self):
        assert inflection_count(GOLDEN) == 0

    def test_quasihomogeneous(self):
        assert inflection_count(quasihomog(5, 6)) == 3 * 30 - 2 * 5 - 2 * 6

    def test_rejects_degenerate(self):
        with pytest.raises(DegeneratePolygonError):
            inflection_count(LatticePolygon.hull({(0, 0), (1, 0)}))


class TestDualFan:
    def test_golden(self):
        assert dual_fan(GOLDEN) == {(0, -1): 2, (1, 1): 1, (-1, 1): 1}

    @pytest.mark.parametrize("d", range(2, 8))
    def test_ddelta(self, d):
        w = d * d - d
        assert dual_fan(dilate(standard_triangle(), d)) == {
            (0, -1): w,
            (1, 1): w,
            (-1, 0): w,
        }

    @pytest.mark.parametrize("c,d", [(3, 4), (2, 2), (5, 1)])
    def test_rectangle(self, c, d):
        assert dual_fan(rectangle(c, d)) == {
            (0, -1): 2 * c * d,
            (1, 1): 2 * c * d,
            (-1, 0): 2 * c * d,
        }

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(SMALL_POINT_SETS)
    def test_balancing_and_weight_cases(self, pts):
        P = LatticePolygon.hull(pts)
        assume(P.dim == 2)
        fan = dual_fan(P)
        assert fan_sum(fan) == (0, 0)
        assert all(w > 0 for w in fan.values())
        # off-arrow weights are the lengths of the opposite faces of P
        for g, w in fan.items():
            if g not in ARROWS:
                assert w == face_length(P, neg(g))


class TestDualPolygon:
    def test_golden(self):
        assert dual_polygon(GOLDEN).canonical().vertices == LatticePolygon.hull(
            [(0, 0), (2, 0), (1, 1)]
        ).canonical().vertices

    def test_rectangle_34(self):
        expected = dilate(standard_triangle(), 24).canonical()
        assert dual_polygon(rectangle(3, 4)).canonical().vertices == expected.vertices

    def test_quasihomog_23(self):
        expected = LatticePolygon.hull([(2, 0), (0, 3), (0, 6), (6, 0)]).canonical()
        assert dual_polygon(quasihomog(2, 3)).canonical().vertices == expected.vertices


# Edges of the standard triangle, keyed by their outer normals.
_DELTA_EDGES = {
    (0, -1): LatticePolygon(((0, 0), (1, 0))),
    (1, 1): LatticePolygon(((1, 0), (0, 1))),
    (-1, 0): LatticePolygon(((0, 0), (0, 1))),
}


def mixed_volume_dual_area(P: LatticePolygon) -> Fraction:
    """vol(2S*Delta + (-P) - sum l_g*E_g over the lower arrows g), as half
    the mixed volume of the formal combination with itself, expanded by
    bilinearity into 36 mixed volumes of Minkowski-sum hulls."""
    terms = [(doubled_area(P), standard_triangle()), (1, negate(P))]
    terms += [(-face_length(P, g), _DELTA_EDGES[g]) for g in LOWER_ARROWS]
    return sum(ci * cj * mixed_volume(Ai, Aj) for ci, Ai in terms for cj, Aj in terms) / 2


class TestDualArea:
    def test_rectangle_34(self):
        assert dual_area_closed(rectangle(3, 4)) == 288

    def test_quasihomog_23(self):
        assert dual_area_closed(quasihomog(2, 3)) == 15

    def test_golden(self):
        assert dual_area_closed(GOLDEN) == 1

    def test_double_entry_random(self):
        rng = random.Random(77)
        for _ in range(60):
            P = random_polygon(rng)
            assert dual_area_closed(P) == volume(dual_polygon(P))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=3, max_size=9)
    )
    def test_closed_area_matches_reconstruction_and_expansion(self, pts):
        P = LatticePolygon.hull(pts)
        assume(P.dim == 2 and P.canonical() != standard_triangle())
        area = dual_area_closed(P)
        assert area == volume(dual_polygon(P))
        assert area == mixed_volume_dual_area(P)


class TestBitangentCount:
    @pytest.mark.parametrize("d", range(5, 11))
    def test_ddelta(self, d):
        expected = Fraction(d * (d + 3) * (d - 3) * (d - 2), 2)
        assert bitangent_count(dilate(standard_triangle(), d)) == expected

    @pytest.mark.parametrize("c", range(1, 9))
    @pytest.mark.parametrize("d", range(1, 9))
    def test_rectangle(self, c, d):
        assert bitangent_count(rectangle(c, d)) == (
            2 * c * c * d * d - 10 * c * d + 4 * c + 4 * d
        )

    @pytest.mark.parametrize("c", range(1, 9))
    @pytest.mark.parametrize("d", range(1, 9))
    def test_quasihomogeneous(self, c, d):
        if c == d:
            return
        cd = c * d
        assert bitangent_count(quasihomog(c, d)) == Fraction(
            cd * cd - 11 * cd + 6 * c + 6 * d, 2
        )
        assert inflection_count(quasihomog(c, d)) == 3 * cd - 2 * c - 2 * d

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=3, max_size=9)
    )
    def test_cusps_and_nodes_fill_the_dual_genus(self, pts):
        # the dual curve's singular points are the cusps over inflections
        # and the nodes over bitangents, and they make up the gap between
        # the genus of a curve on P(dual) and that of the curve: I(P(dual)) - I(P)
        rep = plucker_report(curve_polygon(pts))
        assert rep.inflections + rep.bitangents == (
            interior_lattice_points(rep.dual_polygon) - interior_lattice_points(rep.polygon)
        )


class TestOtherInvariants:
    def test_vertical_tangents(self):
        assert vertical_tangent_count(dilate(standard_triangle(), 2)) == 2
        assert vertical_tangent_count(GOLDEN) == 0
        assert vertical_tangent_count(rectangle(3, 4)) == 18

    @pytest.mark.parametrize("points", [[(0, 0), (3, 0)], [(2, 5)]], ids=["segment", "point"])
    def test_vertical_tangents_reject_degenerate(self, points):
        with pytest.raises(DegeneratePolygonError):
            vertical_tangent_count(LatticePolygon.hull(points))

    @pytest.mark.parametrize("points", [[(0, 0), (3, 0)], [(2, 5)]], ids=["segment", "point"])
    def test_dual_polygon_rejects_degenerate(self, points):
        with pytest.raises(DegeneratePolygonError):
            dual_polygon(LatticePolygon.hull(points))

    def test_euler(self):
        assert plucker_report(dilate(standard_triangle(), 3)).euler_char == 0
        assert plucker_report(rectangle(3, 4)).euler_char == -10


class TestRotationInvariance:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(SMALL_POINT_SETS)
    def test_counts_invariant(self, pts):
        P = curve_polygon(pts)
        counts = attrgetter("vol", "inflections", "bitangents", "dual_vol", "genus", "euler_char")
        assert counts(plucker_report(rotate_r(P))) == counts(plucker_report(P))


class TestTranslationInvariance:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(SMALL_POINT_SETS, st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
    def test_report_invariant(self, pts, t):
        P = curve_polygon(pts)
        assert replace(plucker_report(P.translate(t)), polygon=P) == plucker_report(P)


class TestVertexFaceSpecialization:
    def test_closed_forms_when_arrow_faces_are_vertices(self):
        rng = random.Random(29)
        hits = 0
        while hits < 12:
            P = random_polygon(rng)
            if any(len(support_face(P, g)) == 2 for g in ARROWS):
                continue
            hits += 1
            S = volume(P)
            expected = minkowski_sum(
                dilate(standard_triangle(), doubled_area(P)), negate(P)
            )
            assert (
                dual_polygon(P).canonical().vertices
                == expected.canonical().vertices
            )
            mv = mixed_volume(standard_triangle(), negate(P))
            assert bitangent_count(P) == S * (2 * S + 2 * mv - 9)


class TestPluckerReport:
    def test_5delta(self):
        r = plucker_report(dilate(standard_triangle(), 5))
        assert r.inflections == 45
        assert r.bitangents == 120
        assert r.genus == 6
        assert r.vol == Fraction(25, 2)

    def test_rectangle_34(self):
        r = plucker_report(rectangle(3, 4))
        assert r.inflections == 51
        assert r.bitangents == 196
        assert r.dual_polygon.canonical().vertices == dilate(
            standard_triangle(), 24
        ).canonical().vertices
        assert r.dual_vol == volume(r.dual_polygon)

    def test_golden(self):
        r = plucker_report(GOLDEN)
        assert r.inflections == 0
        assert r.dual_fan == {(0, -1): 2, (1, 1): 1, (-1, 1): 1}
        assert r.euler_char == 2
        assert r.vertical_tangents == 0

    def test_fields_match_standalone_functions(self):
        rng = random.Random(2204)
        for _ in range(30):
            P = random_polygon(rng)
            r = plucker_report(P)
            # face lengths by the vertex scan, independent of the edge table
            lower = sum(face_length(P, g) for g in LOWER_ARROWS)
            upper = sum(face_length(P, g) for g in UPPER_ARROWS)
            assert r.vol == volume(P)
            assert r.inflections == 3 * doubled_area(P) - 2 * lower - upper
            assert r.bitangents == -5 * doubled_area(P) + r.dual_vol + 3 * lower + upper
            assert r.dual_fan == dual_fan(P)
            assert r.dual_vol == volume(r.dual_polygon) == mixed_volume_dual_area(P)
            assert r.vertical_tangents == vertical_tangent_count(P)
            assert r.euler_char == sum(segment_length(a, b) for a, b in P.edges()) - doubled_area(P)
            assert r.genus == interior_lattice_points(P)
            assert (r.inflections, r.bitangents, r.dual_polygon, r.dual_vol) == (
                inflection_count(P),
                bitangent_count(P),
                dual_polygon(P),
                dual_area_closed(P),
            )

    def test_one_edge_table(self, edge_fan_calls, monkeypatch):
        areas = []
        monkeypatch.setattr(formulas, "doubled_area", lambda P: areas.append(P) or doubled_area(P))
        P = rectangle(3, 4)
        plucker_report(P)
        assert edge_fan_calls == [P]
        assert areas == [P]

    def test_closed_area_mismatch_still_raises(self, monkeypatch):
        monkeypatch.setattr(formulas, "volume", lambda Q: volume(Q) + 1)
        with pytest.raises(FormulaInternalError, match="closed dual area"):
            plucker_report(rectangle(3, 4))

    @pytest.mark.parametrize(
        "fn", [dual_polygon, dual_area_closed, bitangent_count, inflection_count, plucker_report]
    )
    def test_unit_triangle_dual_is_a_point(self, fn):
        with pytest.raises(DegeneratePolygonError, match="dual is a point"):
            fn(standard_triangle().translate((3, -2)))
