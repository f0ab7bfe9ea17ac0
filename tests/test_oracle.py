import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from conftest import lattice_classes, random_polygon
from plucker.assumptions import Verdict, full_assumption_report
from plucker.formulas import dual_fan, dual_polygon, inflection_count, vertical_tangent_count
from plucker.lattice import (
    LatticePolygon,
    dilate,
    lattice_points,
    mixed_volume,
    rectangle,
    standard_triangle,
)
from plucker.oracle import (
    DegenerateSampleError,
    OracleConfig,
    RetriesExhaustedError,
    count_torus_solutions,
    hessian_curve,
    implicitize_dual,
    inflection_oracle,
    resultant_y,
    roots_of_int_poly,
    sample_dual_points,
    sample_poly,
    vertical_tangent_oracle,
    _count_in_charts,
    _diff,
    _dual_equation,
    _implicitize_once,
    _is_squarefree,
    _strip_monomial,
    _unpack_ab,
)

CFG = OracleConfig(seed=12345)
GOLDEN = LatticePolygon.hull([(0, 0), (0, 1), (1, 1)])
GOLDEN_POLY = {(1, 1): 1, (0, 1): 1, (0, 0): 1}


_RING, _X, _Y = sympy.ring("x, y", sympy.ZZ)


def sympy_hessian_curve(f: dict) -> dict:
    """x^2 y^2 times the determinant of the bordered Hessian matrix of f,
    expanded by sympy."""
    F = _RING.from_dict(f)
    fx, fy = F.diff(_X), F.diff(_Y)
    rows = [[fx.diff(_X), fx.diff(_Y), fx], [fy.diff(_X), fy.diff(_Y), fy], [fx, fy, _RING.zero]]
    B = _X**2 * _Y**2 * DomainMatrix(rows, (3, 3), _RING.to_domain()).det()
    return {e: int(c) for e, c in B.items()}


class TestPolyFormat:
    def test_diff(self):
        p = {(3, 2): 5, (0, 1): 2, (1, 0): 3}
        assert _diff(p, "x") == {(2, 2): 15, (0, 0): 3}
        assert _diff(p, "y") == {(3, 1): 10, (0, 0): 2}

    def test_strip_monomial(self):
        assert _strip_monomial({(2, 3): 1, (4, 5): -2}) == {(0, 0): 1, (2, 2): -2}
        assert _strip_monomial({}) == {}

    def test_unpack_stores_no_zero_digit(self):
        # 1 + 3 a**2 - a b**2: the a-digit 1 of row 0, all of row 1 and the
        # a-digit 0 of row 2 are zero
        terms, k, w = {(0, 0): 1, (2, 0): 3, (1, 2): -1}, 8, 4
        v = sum(c << k * (u + w * j) for (u, j), c in terms.items())
        assert _unpack_ab(v, k, w) == terms

    def test_zero_coefficient_is_rejected(self):
        # a stored zero would raise the y-degree from 1 to 3
        zero = {(1, 1): 1, (0, 1): 1, (0, 0): 1, (0, 3): 0}
        line = {(0, 1): 1, (1, 0): -1}
        with pytest.raises(ValueError, match="zero coefficient"):
            count_torus_solutions(zero, line)
        with pytest.raises(ValueError, match="zero coefficient"):
            count_torus_solutions(line, zero)
        with pytest.raises(ValueError, match="zero coefficient"):
            resultant_y(zero, line)
        with pytest.raises(ValueError, match="zero coefficient"):
            hessian_curve(zero)
        with pytest.raises(ValueError, match="zero coefficient"):
            implicitize_dual(GOLDEN, CFG, poly=zero)


class TestSamplePoly:
    def test_deterministic(self):
        P = rectangle(3, 4)
        assert sample_poly(P, CFG) == sample_poly(P, CFG)

    def test_term_count_and_shift(self):
        P = rectangle(3, 4)
        f = sample_poly(P, CFG)
        assert len(f) == 20
        assert all(type(c) is int for c in f.values())
        assert min(ex for ex, _ in f) == min(ey for _, ey in f) == 0
        assert all(
            1 <= abs(c) <= CFG.coeff_bound for c in f.values()
        )
        # one magnitude and one sign per lattice point, in listing order,
        # at the lattice point minus the bounding box's lower corner
        rng = random.Random(CFG.seed)
        (xl, yl), _ = P.bounding_box()
        expected = {}
        for px, py in lattice_points(P):
            expected[(px - xl, py - yl)] = rng.randint(1, CFG.coeff_bound) * rng.choice((-1, 1))
        assert f == expected
        assert [f[e] for e in ((0, 0), (0, 1), (0, 2), (0, 3))] == [-427, 840, 876, -955]

    def test_support_is_translate_of_polygon(self):
        P = dilate(standard_triangle(), 3)
        f = sample_poly(P, CFG)
        assert (
            LatticePolygon.hull(f).canonical().vertices == P.canonical().vertices
        )


class TestHessianCurve:
    def test_monomial_formula(self):
        a, alpha, beta = 7, 3, 4
        h = hessian_curve({(alpha, beta): a})
        coeff = Fraction(a ** 3 * alpha * beta * (alpha + beta))
        assert h == {(3 * alpha - 2 + 2, 3 * beta - 2 + 2): coeff}

    @pytest.mark.parametrize("coeff_bound", (1000, 10**30))
    def test_matches_sympy_bordered_determinant(self, coeff_bound):
        # 1 x d rectangles have f_xx = 0, and the unit triangle, a line, has
        # B = 0
        rng = random.Random(coeff_bound)
        polygons = [dilate(standard_triangle(), 8), standard_triangle(), GOLDEN, rectangle(2, 3)]
        polygons += [rectangle(1, d) for d in (1, 2, 3)]
        polygons += [random_polygon(rng, box=5) for _ in range(6)]
        for P in polygons:
            for seed in (1, 2, 3):
                f = sample_poly(P, OracleConfig(seed=seed, coeff_bound=coeff_bound))
                assert hessian_curve(f) == sympy_hessian_curve(f), (P.vertices, seed)
        f = {(3, 4): -coeff_bound}
        assert hessian_curve(f) == sympy_hessian_curve(f)

    def test_zero_polynomial(self):
        assert hessian_curve({}) == {}

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            hessian_curve({(1, 1): Fraction(1, 2), (0, 0): 1})

    def test_newton_polygon_triples(self):
        for P in (dilate(standard_triangle(), 2), rectangle(2, 3)):
            # with every exponent at least 2 the x^2 y^2 factor is exact
            f = {(i + 2, j + 2): c for (i, j), c in sample_poly(P, CFG).items()}
            h = hessian_curve(f)
            assert (
                LatticePolygon.hull(h).canonical().vertices
                == dilate(LatticePolygon.hull(f), 3).canonical().vertices
            )


class TestResultant:
    def test_two_lines(self):
        R = resultant_y({(0, 1): 1, (1, 0): -1}, {(0, 1): 1, (1, 0): -2})
        exps = sorted(e[0] for e in R)
        assert exps == [1]  # proportional to x

    def test_parabola_and_axis(self):
        R = resultant_y({(0, 2): 1, (1, 0): -1}, {(0, 1): 1, (0, 0): -1})
        # common root iff x = 1
        xs = {e[0]: c for e, c in R.items()}
        assert sum(xs.values()) == 0

    def test_degree_matches_mixed_volume(self):
        P = dilate(standard_triangle(), 2)
        f = _strip_monomial(sample_poly(P, CFG))
        g = _diff(f, "y")
        R = resultant_y(f, g)
        bound = mixed_volume(LatticePolygon.hull(f), LatticePolygon.hull(g))
        assert max(e[0] for e in R) <= 2 * bound

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            resultant_y({(0, 1): Fraction(1, 2), (1, 0): -1}, {(0, 1): 1})


class TestRootsOfIntPoly:
    # (x - 1)(x - 2)(x - 3), highest degree first
    CUBIC = [1, -6, 11, -6]

    def test_distinct_integer_roots(self):
        roots = sorted(roots_of_int_poly(self.CUBIC), key=lambda z: z.real)
        assert roots == [pytest.approx(k) for k in (1, 2, 3)]

    def test_coefficients_beyond_float_range(self):
        big = [c << 2000 for c in self.CUBIC]
        with pytest.raises(OverflowError):
            float(big[0])
        roots = sorted(roots_of_int_poly(big), key=lambda z: z.real)
        assert roots == [pytest.approx(k) for k in (1, 2, 3)]

    @pytest.mark.parametrize("coeffs", ([1, -2, 1], [1, -5, 7, -3], [1, -3, 2, 0, 0]))
    def test_repeated_root_is_degenerate(self, coeffs):
        with pytest.raises(DegenerateSampleError, match="repeated root"):
            roots_of_int_poly(coeffs)

    def test_roots_closer_than_double_precision_are_degenerate(self):
        # (e x - e)(e x - e - 1) with e = 10**10: roots 1 and 1 + 1e-10
        e = 10**10
        with pytest.raises(DegenerateSampleError, match="cluster"):
            roots_of_int_poly([e * e, -e * (2 * e + 1), e * (e + 1)])


class TestCountTorusSolutions:
    def test_two_lines_one_point(self):
        f = {(1, 0): 1, (0, 1): 1, (0, 0): -3}
        g = {(1, 0): 1, (0, 1): -1, (0, 0): -1}
        assert count_torus_solutions(f, g) == 1

    def test_parabola_two_points(self):
        f = {(0, 1): 1, (2, 0): -1}
        g = {(0, 1): 1, (0, 0): -1}
        assert count_torus_solutions(f, g) == 2

    def test_origin_solutions_excluded(self):
        f = {(0, 1): 1, (1, 0): -1}  # y = x
        g = {(0, 1): 1, (2, 0): -1}  # y = x^2
        # intersections (0,0) and (1,1); only the torus one counts
        assert count_torus_solutions(f, g) == 1

    def test_common_factor_degenerate(self):
        f = {(1, 1): 1, (0, 1): 1}
        g = {(0, 1): 1}
        with pytest.raises((DegenerateSampleError, ValueError)):
            count_torus_solutions(f, g)

    def test_bkk_upper_bound(self):
        rng = random.Random(99)
        for _ in range(3):
            P = random_polygon(rng, box=3)
            f = sample_poly(P, OracleConfig(seed=rng.randint(0, 2**32)))
            g = _diff(f, "y")
            if max(ey for _, ey in g) == 0:
                continue
            n = count_torus_solutions(f, g)
            assert n <= mixed_volume(LatticePolygon.hull(f), LatticePolygon.hull(g))

    def test_two_solutions_over_one_x_degenerate(self):
        # y^2 - 3y + 2 and (x - 1)(y + 5) meet at (1, 1) and (1, 2): one root
        # of the resultant carries two solutions, which no x-count certifies
        f = {(0, 2): 1, (0, 1): -3, (0, 0): 2}
        g = {(1, 1): 1, (0, 1): -1, (1, 0): 5, (0, 0): -5}
        with pytest.raises(DegenerateSampleError):
            count_torus_solutions(f, g)

    def test_solution_where_both_leading_coefficients_vanish_degenerate(self):
        # (x - 1) y^2 + y - 2 and (x - 1)(y^2 + 1) + 2y - 4 meet at (1, 2) and
        # at y = oo over x = 1: the y-reversed certificate rejects the sample
        f = {(1, 2): 1, (0, 2): -1, (0, 1): 1, (0, 0): -2}
        g = {(1, 2): 1, (0, 2): -1, (0, 1): 2, (1, 0): 1, (0, 0): -5}
        with pytest.raises(DegenerateSampleError, match="finite y and y = oo"):
            count_torus_solutions(f, g)

    def test_zeroes_at_both_ends_over_one_x_degenerate(self):
        # (x - 1)(y^2 + 1) + y and (x - 1)(y^2 + 3) + 2y meet at y = 0 and
        # at y = oo over x = 1
        f = {(1, 2): 1, (0, 2): -1, (0, 1): 1, (1, 0): 1, (0, 0): -1}
        g = {(1, 2): 1, (0, 2): -1, (0, 1): 2, (1, 0): 3, (0, 0): -3}
        with pytest.raises(DegenerateSampleError, match="y = 0 and y = oo"):
            count_torus_solutions(f, g)

    def test_solution_on_x_axis_excluded(self):
        f = {(0, 1): 1, (1, 0): -1, (0, 0): 1}  # y = x - 1
        g = {(0, 1): 1, (1, 0): 1, (0, 0): -1}  # y = 1 - x
        # the only intersection is (1, 0)
        assert count_torus_solutions(f, g) == 0

    # four outcomes decided before the certificates, in the order tested

    def test_line_has_a_zero_hessian_curve(self):
        f = sample_poly(standard_triangle(), CFG)
        assert hessian_curve(f) == {}
        with pytest.raises(DegenerateSampleError, match="identically-zero resultant"):
            count_torus_solutions(f, hessian_curve(f))

    def test_y_degree_zero_is_degenerate_in_its_chart(self):
        # a + b y + c x y has Hessian curve 2 c^2 x^2 y^3 (b + c x)
        f = sample_poly(GOLDEN, CFG)
        with pytest.raises(DegenerateSampleError, match="y-degree 0"):
            count_torus_solutions(f, hessian_curve(f))
        assert _count_in_charts(f, hessian_curve(f)) == 0

    def test_monomial_has_no_torus_zero(self):
        f = sample_poly(standard_triangle(), CFG)
        assert len(_diff(f, "y")) == 1
        assert count_torus_solutions(f, _diff(f, "y")) == 0

    def test_constant_resultant_counts_zero(self):
        # a conic's Hessian curve is a constant modulo the conic, so the PRS
        # in y drops from degree 2 to a constant, past any linear element
        f = sample_poly(dilate(standard_triangle(), 2), CFG)
        g = _strip_monomial(hessian_curve(f))
        a, b = f[(0, 2)], g[(0, 2)]
        # the support of a g - b f
        assert [e for e in f | g if a * g.get(e, 0) != b * f.get(e, 0)] == [(0, 0)]
        assert count_torus_solutions(f, g) == 0


class TestOracleConfig:
    def test_root_tol_is_gone(self):
        with pytest.raises(TypeError):
            OracleConfig(seed=1, root_tol=1e-6)
        with pytest.raises(TypeError):
            OracleConfig(seed=1, torus_tol=1e-6)
        with pytest.raises(TypeError):
            OracleConfig(seed=1, retries=3)


class TestOracleCounts:
    def test_vertical_conic(self):
        assert vertical_tangent_oracle(dilate(standard_triangle(), 2), CFG) == 2

    def test_vertical_golden(self):
        assert vertical_tangent_oracle(GOLDEN, CFG) == 0

    def test_vertical_rectangle(self):
        P = rectangle(3, 4)
        assert vertical_tangent_oracle(P, CFG) == vertical_tangent_count(P) == 18

    def test_inflection_golden(self):
        assert inflection_oracle(GOLDEN, CFG) == 0

    def test_inflection_cubic(self):
        P = dilate(standard_triangle(), 3)
        assert inflection_oracle(P, CFG) == inflection_count(P) == 9


def test_exhausted_retries_keep_every_attempt():
    # a sampled line shares a factor with its Hessian curve, in every chart
    P = standard_triangle()
    with pytest.raises(RetriesExhaustedError) as info:
        inflection_oracle(P, OracleConfig(seed=7))
    reason = ", ".join(
        f"chart {chart}: identically-zero resultant (common factor)"
        for chart in ("(i, j)", "(j, i)", "(i, i + j)")
    )
    assert info.value.attempts == tuple((7 + 0x9E3779B9 * i, reason) for i in range(5))
    assert str(info.value).count("; seed ") == 4


@pytest.mark.parametrize("vertices", [[(0, 0), (3, 0), (0, 2)], [(0, 0), (4, 0), (1, 2)]])
def test_chart_fallback_certifies_paired_solutions(vertices):
    # every sample on these supports pairs two torus solutions of f and its
    # Hessian curve over one x, so the PRS in y has no linear element; the
    # other charts separate them
    P = LatticePolygon.hull(vertices)
    f = sample_poly(P, CFG)
    with pytest.raises(DegenerateSampleError, match="first subresultant has y-degree 2, not 1"):
        count_torus_solutions(f, hessian_curve(f))
    for seed in range(1, 6):
        # the first sample, with no resampling
        f = sample_poly(P, OracleConfig(seed=seed))
        assert _count_in_charts(f, hessian_curve(f)) == inflection_count(P)
        assert _count_in_charts(f, _diff(f, "y")) == vertical_tangent_count(P)


def test_hessian_count_ignores_the_monomial_of_the_sample():
    """B(u f) = u^3 B(f) modulo f for a monomial u (``hessian_curve``): on
    every class in [0,2]^2 at seeds 1-5, each pair that certifies with the
    sample moved by (2, 2) certifies unmoved, with the same count."""
    start = time.monotonic()
    classes = lattice_classes(2)
    assert len(classes) == 119
    compared = 0
    for P in sorted(classes, key=lambda P: P.vertices):
        for seed in range(1, 6):
            f = sample_poly(P, OracleConfig(seed=seed))
            moved = {(i + 2, j + 2): c for (i, j), c in f.items()}
            try:
                expected = _count_in_charts(moved, hessian_curve(moved))
            except DegenerateSampleError:
                continue
            assert _count_in_charts(f, hessian_curve(f)) == expected, (P.vertices, seed)
            compared += 1
    # the unit triangle, a line, shares a factor with its Hessian curve
    assert compared == 5 * 118
    assert time.monotonic() - start < 20.0


# the elementary moves of SL(2, Z) and GL(2, Z): shears by t, |t| <= 3, and
# the swap of the axes
_MOVES = [((1, t), (0, 1)) for t in (-3, -2, -1, 1, 2, 3)]
_MOVES += [((1, 0), (t, 1)) for t in (-3, -2, -1, 1, 2, 3)] + [((0, 1), (1, 0))]


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 2**32), st.lists(st.sampled_from(_MOVES), max_size=3))
def test_torus_count_is_invariant_under_a_unimodular_monomial_change(polygon_seed, seed, moves):
    """x**i y**j -> x**(a i + b j) y**(c i + d j) with det [[a, b], [c, d]]
    = +-1 is an automorphism of the torus, so it keeps the number of common
    torus zeros of f and its Hessian curve, and of f and f_y."""
    M = ((1, 0), (0, 1))
    for (p, q), (r, t) in moves:
        (a, b), (c, d) = M
        M = ((p * a + q * c, p * b + q * d), (r * a + t * c, r * b + t * d))
    (a, b), (c, d) = M

    def moved(p):
        return _strip_monomial({(a * i + b * j, c * i + d * j): v for (i, j), v in p.items()})

    P = random_polygon(random.Random(polygon_seed), box=3)
    f = sample_poly(P, OracleConfig(seed=seed))
    for g in (hessian_curve(f), _diff(f, "y")):
        try:
            counts = (_count_in_charts(f, g), _count_in_charts(moved(f), moved(g)))
        except DegenerateSampleError:
            assume(False)
        assert counts[0] == counts[1], (P.vertices, seed, M)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 2**32), st.integers(1, 3))
def test_no_certified_sample_counts_above_the_formula(polygon_seed, seed, bound):
    """A certified count is at most the generic one (``_retry_samples``):
    on all-Verified polygons in [0,3]^2, with coefficients of at most 3,
    where samples are often special, no sample counts above the formula."""
    P = random_polygon(random.Random(polygon_seed), box=3)
    assume(full_assumption_report(P).all_verified)
    f = sample_poly(P, OracleConfig(seed=seed, coeff_bound=bound))
    for g, formula in ((hessian_curve(f), inflection_count(P)), (_diff(f, "y"), vertical_tangent_count(P))):
        try:
            count = _count_in_charts(f, g)
        except DegenerateSampleError:
            continue
        assert count <= formula, (P.vertices, seed, bound)


class TestRedraw:
    # on the 2 x 3 rectangle with coefficients +-1, the sample at seed 1
    # counts 11 of 21 inflections and 2 of 8 vertical tangents; the next
    # attempt seed reaches both
    P = rectangle(2, 3)
    CFG = OracleConfig(seed=1, coeff_bound=1)
    STRIDE = 0x9E3779B9

    def test_without_reach_the_first_certified_sample_counts(self):
        assert inflection_oracle(self.P, self.CFG) == 11
        assert vertical_tangent_oracle(self.P, self.CFG) == 2

    def test_a_deficit_is_redrawn_until_it_reaches(self):
        samples = []
        assert inflection_oracle(self.P, self.CFG, reach=21, samples=samples) == 21
        assert samples == [(1, 11), (1 + self.STRIDE, 21)]

    def test_a_count_at_or_above_reach_stops(self):
        samples = []
        assert vertical_tangent_oracle(self.P, self.CFG, reach=1, samples=samples) == 2
        assert samples == [(1, 2)]

    def test_every_sample_short_keeps_the_largest(self):
        # at seed 3 the five samples count 7, 4, 6, 4 and 4 of 8
        samples = []
        cfg = OracleConfig(seed=3, coeff_bound=1)
        assert vertical_tangent_oracle(self.P, cfg, reach=8, samples=samples) == 7
        assert samples == [(3 + i * self.STRIDE, n) for i, n in enumerate((7, 4, 6, 4, 4))]

    def test_degenerate_samples_are_listed_and_use_up_attempts(self):
        # a sampled line shares a factor with its Hessian curve
        samples = []
        with pytest.raises(RetriesExhaustedError) as info:
            inflection_oracle(standard_triangle(), OracleConfig(seed=7), reach=0, samples=samples)
        assert samples == list(info.value.attempts)
        assert len(samples) == 5


def test_formula_oracle_sweep():
    """Formula against oracle on random all-Verified polygons in a 5x5 box."""
    start = time.monotonic()
    rng = random.Random(4)
    polygons = []
    while len(polygons) < 8:
        P = random_polygon(rng, box=5)
        if full_assumption_report(P).all_verified:
            polygons.append(P)
    for P in polygons:
        for seed in (1, 2, 3):
            cfg = OracleConfig(seed=seed)
            assert inflection_oracle(P, cfg) == inflection_count(P), (P.vertices, seed)
            assert vertical_tangent_oracle(P, cfg) == vertical_tangent_count(P), (P.vertices, seed)
    assert time.monotonic() - start < 60.0


def test_census_of_the_3x3_box():
    """Every translation class of lattice polygons in [0,3]^2, at oracle
    seed 1: the formulas hold on each all-Verified class, and the
    inflection formula fails on each FailsKnown one, so that verdict is
    falsifiable.  The unit triangle is a line, which no oracle counts."""
    classes = lattice_classes(3)
    assert len(classes) == 1633
    cfg = OracleConfig(seed=1)
    verified, fails = 0, []
    for P in classes:
        rep = full_assumption_report(P)
        if rep.all_verified:
            verified += 1
            assert inflection_oracle(P, cfg) == inflection_count(P), P.vertices
            assert vertical_tangent_oracle(P, cfg) == vertical_tangent_count(P), P.vertices
        elif rep.a2 is Verdict.FAILS_KNOWN and P != standard_triangle():
            fails.append((inflection_count(P), inflection_oracle(P, cfg)))
    assert verified == 854
    assert sorted(fails) == [(7, 6)] * 3 + [(13, 12)]


class TestDualSampling:
    def test_points_satisfy_tangency(self):
        # every sampled (a,b) must land on the known dual equation
        sample = sample_dual_points(GOLDEN_POLY, 12, CFG)
        for a, b in sample:
            # dual equation of xy + y + 1
            res = a * a + 4 * a * b - 2 * a + 1
            assert abs(res) < 1e-9

    def test_empty_sample(self):
        assert sample_dual_points(GOLDEN_POLY, 0, CFG) == ()

    def test_deterministic(self):
        s1 = sample_dual_points(GOLDEN_POLY, 6, CFG)
        s2 = sample_dual_points(GOLDEN_POLY, 6, CFG)
        assert s1 == s2


class TestImplicitize:
    def test_golden_coefficients(self):
        rec, observed = implicitize_dual(GOLDEN, CFG, poly=GOLDEN_POLY)
        # proportional to a^2 + 4ab - 2a + 1
        scale = rec[(1, 1)] / 4
        expected = {(2, 0): 1.0, (1, 1): 4.0, (1, 0): -2.0, (0, 0): 1.0}
        assert set(rec) == set(expected)
        for e, c in expected.items():
            assert abs(rec[e] / scale - c) < 1e-6
        assert observed.canonical().vertices == LatticePolygon.hull(
            [(0, 0), (2, 0), (1, 1)]
        ).canonical().vertices

    def test_conic_dual_is_conic(self):
        P = dilate(standard_triangle(), 2)
        _, observed = implicitize_dual(P, CFG)
        assert (
            observed.canonical().vertices
            == dual_polygon(P).canonical().vertices
        )

    def test_sampled_small_polygon(self):
        P = LatticePolygon.hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        rec, observed = implicitize_dual(P, CFG)
        assert observed.canonical().vertices == dual_polygon(P).canonical().vertices
        assert len(lattice_points(observed)) >= len(rec)

    def test_size_guard_lists_no_point(self):
        # the dual of 100 Delta holds about 49 million lattice points, which
        # the guard counts by Pick's theorem instead of listing them
        lattice_points.cache_clear()
        with pytest.raises(ValueError, match="dual support too large"):
            implicitize_dual(dilate(standard_triangle(), 100), CFG)
        assert lattice_points.cache_info().misses == 0

    @pytest.mark.parametrize(
        "vertices", [[(0, 0), (3, 0), (3, 2)], [(0, 0), (2, 0), (3, 1), (3, 2)]]
    )
    def test_ill_conditioned_kernel_accepted(self, vertices):
        # the monomial matrices of these dual supports are ill-conditioned
        # far above their one-dimensional kernel
        P = LatticePolygon.hull(vertices)
        _, observed = implicitize_dual(P, OracleConfig(seed=1))
        assert observed.canonical().vertices == dual_polygon(P).canonical().vertices

    def test_two_dimensional_kernel_degenerate(self):
        # the support of a * (a^2 + 4ab - 2a + 1) also holds the dual
        # equation itself, but not as its Newton polygon
        predicted = LatticePolygon.hull([(0, 0), (3, 0), (2, 1), (1, 1)])
        with pytest.raises(DegenerateSampleError, match="does not match the predicted"):
            _implicitize_once(GOLDEN_POLY, predicted)

    def test_singular_curve_degenerate(self):
        # the discriminant of the line pair (1 + x)(1 + y) is the square of
        # the pencil through its node, whose Newton polygon is the predicted
        # one
        pair = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        P = LatticePolygon.hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(DegenerateSampleError, match="repeated factor"):
            implicitize_dual(P, CFG, poly=pair)

    def test_line_pairs_resampled(self):
        # with coefficients +-1 on the unit square every sample drawn at
        # seed 1 is a line pair, and one drawn at seed 2 a smooth conic
        P = LatticePolygon.hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(RetriesExhaustedError, match="repeated factor"):
            implicitize_dual(P, OracleConfig(seed=1, coeff_bound=1))
        rec, _ = implicitize_dual(P, OracleConfig(seed=2, coeff_bound=1))
        assert rec == {(0, 0): 1, (0, 1): -2, (0, 2): 1, (1, 0): 2, (1, 1): 6, (2, 0): 1}


class TestDualEquation:
    def test_golden_exact(self):
        assert _dual_equation(GOLDEN_POLY) == {(2, 0): 1, (1, 1): 4, (1, 0): -2, (0, 0): 1}

    def test_square_curve_degenerate(self):
        # (1 + x + y)**2 meets every line in a double point
        square = {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 2, (0, 2): 1}
        with pytest.raises(DegenerateSampleError, match="identically-zero discriminant"):
            _dual_equation(square)

    def test_squarefree_needs_the_full_degree_on_a_line(self):
        # b - 2a is the constant 1 on the line b = 1 + 2a, where the square
        # of it times a + b + 3 restricts to the squarefree 3a + 4; the
        # products are expanded by sympy, with (a, b) as (x, y)
        A, B = _Y - 2 * _X, _X + _Y + 3
        assert _is_squarefree({e: int(c) for e, c in (A * B).items()})
        assert not _is_squarefree({e: int(c) for e, c in (A * A * B).items()})

    @pytest.mark.parametrize(
        "vertices",
        [[(0, 0), (0, 1), (1, 1)], [(0, 0), (3, 0), (0, 3)], [(0, 0), (3, 0), (3, 2)], [(0, 0), (2, 0), (3, 1), (3, 2)]],
    )
    def test_vanishes_at_sampled_dual_points(self, vertices):
        # the numeric sampler is an independent witness: G is zero, to
        # rounding, at the tangent lines it finds by root finding
        f = sample_poly(LatticePolygon.hull(vertices), CFG)
        G = _dual_equation(f)
        for a, b in sample_dual_points(f, 20, CFG):
            terms = [c * a**u * b**v for (u, v), c in G.items()]
            assert abs(sum(terms)) <= 1e-9 * sum(map(abs, terms))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=3, max_size=9),
        st.integers(1, 2**32),
    )
    def test_newton_polygon_is_the_dual_polygon(self, points, seed):
        P = LatticePolygon.hull(points)
        assume(P.dim == 2 and dual_fan(P))  # a line's dual is a point
        G = _dual_equation(sample_poly(P, OracleConfig(seed=seed)))
        assert LatticePolygon.hull(G).canonical().vertices == dual_polygon(P).canonical().vertices
