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
    SparsePoly,
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
    _dual_equation,
    _implicitize_once,
    _is_squarefree,
)

CFG = OracleConfig(seed=12345)
GOLDEN = LatticePolygon.hull([(0, 0), (0, 1), (1, 1)])
GOLDEN_POLY = SparsePoly({(1, 1): 1, (0, 1): 1, (0, 0): 1})


def poly(terms):
    return SparsePoly(terms)


_RING, _X, _Y = sympy.ring("x, y", sympy.ZZ)


def sympy_hessian_curve(f: SparsePoly) -> dict:
    """x^2 y^2 times the determinant of the bordered Hessian matrix of f,
    expanded by sympy."""
    F = _RING.from_dict(dict(f.terms))
    fx, fy = F.diff(_X), F.diff(_Y)
    rows = [[fx.diff(_X), fx.diff(_Y), fx], [fy.diff(_X), fy.diff(_Y), fy], [fx, fy, _RING.zero]]
    B = _X**2 * _Y**2 * DomainMatrix(rows, (3, 3), _RING.to_domain()).det()
    return {e: int(c) for e, c in B.items()}


class TestSparsePoly:
    def test_zero_coefficients_dropped(self):
        p = poly({(0, 0): 1, (1, 0): 0})
        assert (1, 0) not in p.terms

    def test_diff(self):
        p = poly({(3, 2): 5})
        assert p.diff("x").terms == {(2, 2): 15}
        assert p.diff("y").terms == {(3, 1): 10}

    def test_strip_monomial(self):
        p = poly({(2, 3): 1, (4, 5): -2})
        assert p.strip_monomial().terms == {(0, 0): 1, (2, 2): -2}

    def test_evaluate(self):
        assert GOLDEN_POLY.evaluate(1, -0.5) == pytest.approx(0.0)


class TestSamplePoly:
    def test_deterministic(self):
        P = rectangle(3, 4)
        assert sample_poly(P, CFG).terms == sample_poly(P, CFG).terms

    def test_term_count_and_shift(self):
        P = rectangle(3, 4)
        f = sample_poly(P, CFG)
        assert len(f.terms) == 20
        assert all(type(c) is int for c in f.terms.values())
        assert min(ex for ex, _ in f.terms) == min(ey for _, ey in f.terms) == 0
        assert all(
            1 <= abs(c) <= CFG.coeff_bound for c in f.terms.values()
        )
        # one magnitude and one sign per lattice point, in listing order,
        # at the lattice point minus the bounding box's lower corner
        rng = random.Random(CFG.seed)
        (xl, yl), _ = P.bounding_box()
        expected = {}
        for px, py in lattice_points(P):
            expected[(px - xl, py - yl)] = rng.randint(1, CFG.coeff_bound) * rng.choice((-1, 1))
        assert f.terms == expected
        assert [f.terms[e] for e in ((0, 0), (0, 1), (0, 2), (0, 3))] == [-427, 840, 876, -955]

    def test_support_is_translate_of_polygon(self):
        P = dilate(standard_triangle(), 3)
        f = sample_poly(P, CFG)
        assert (
            f.newton_polygon().canonical().vertices == P.canonical().vertices
        )


class TestHessianCurve:
    def test_monomial_formula(self):
        a, alpha, beta = 7, 3, 4
        h = hessian_curve(poly({(alpha, beta): a}))
        coeff = Fraction(a ** 3 * alpha * beta * (alpha + beta))
        assert h.terms == {(3 * alpha - 2 + 2, 3 * beta - 2 + 2): coeff}

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
                assert hessian_curve(f).terms == sympy_hessian_curve(f), (P.vertices, seed)
        f = poly({(3, 4): -coeff_bound})
        assert hessian_curve(f).terms == sympy_hessian_curve(f)

    def test_zero_polynomial(self):
        assert hessian_curve(poly({})) == poly({})

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            hessian_curve(poly({(1, 1): Fraction(1, 2), (0, 0): 1}))

    def test_newton_polygon_triples(self):
        for P in (dilate(standard_triangle(), 2), rectangle(2, 3)):
            # with every exponent at least 2 the x^2 y^2 factor is exact
            f = sample_poly(P, CFG).shift(2, 2)
            h = hessian_curve(f)
            assert (
                h.newton_polygon().canonical().vertices
                == dilate(f.newton_polygon(), 3).canonical().vertices
            )


class TestResultant:
    def test_two_lines(self):
        R = resultant_y(poly({(0, 1): 1, (1, 0): -1}), poly({(0, 1): 1, (1, 0): -2}))
        exps = sorted(e[0] for e in R.terms)
        assert exps == [1]  # proportional to x

    def test_parabola_and_axis(self):
        R = resultant_y(poly({(0, 2): 1, (1, 0): -1}), poly({(0, 1): 1, (0, 0): -1}))
        # common root iff x = 1
        xs = {e[0]: c for e, c in R.terms.items()}
        assert sum(xs.values()) == 0

    def test_degree_matches_mixed_volume(self):
        P = dilate(standard_triangle(), 2)
        f = sample_poly(P, CFG).strip_monomial()
        g = f.diff("y")
        R = resultant_y(f, g)
        bound = mixed_volume(f.newton_polygon(), g.newton_polygon())
        assert max(e[0] for e in R.terms) <= 2 * bound

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            resultant_y(poly({(0, 1): Fraction(1, 2), (1, 0): -1}), poly({(0, 1): 1}))


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
        f = poly({(1, 0): 1, (0, 1): 1, (0, 0): -3})
        g = poly({(1, 0): 1, (0, 1): -1, (0, 0): -1})
        assert count_torus_solutions(f, g) == 1

    def test_parabola_two_points(self):
        f = poly({(0, 1): 1, (2, 0): -1})
        g = poly({(0, 1): 1, (0, 0): -1})
        assert count_torus_solutions(f, g) == 2

    def test_origin_solutions_excluded(self):
        f = poly({(0, 1): 1, (1, 0): -1})  # y = x
        g = poly({(0, 1): 1, (2, 0): -1})  # y = x^2
        # intersections (0,0) and (1,1); only the torus one counts
        assert count_torus_solutions(f, g) == 1

    def test_common_factor_degenerate(self):
        f = poly({(1, 1): 1, (0, 1): 1})
        g = poly({(0, 1): 1})
        with pytest.raises((DegenerateSampleError, ValueError)):
            count_torus_solutions(f, g)

    def test_bkk_upper_bound(self):
        rng = random.Random(99)
        for _ in range(3):
            P = random_polygon(rng, box=3)
            f = sample_poly(P, OracleConfig(seed=rng.randint(0, 2**32)))
            g = f.diff("y")
            if g.degree_y() == 0:
                continue
            n = count_torus_solutions(f, g)
            assert n <= mixed_volume(f.newton_polygon(), g.newton_polygon())

    def test_two_solutions_over_one_x_degenerate(self):
        # y^2 - 3y + 2 and (x - 1)(y + 5) meet at (1, 1) and (1, 2): one root
        # of the resultant carries two solutions, which no x-count certifies
        f = poly({(0, 2): 1, (0, 1): -3, (0, 0): 2})
        g = poly({(1, 1): 1, (0, 1): -1, (1, 0): 5, (0, 0): -5})
        with pytest.raises(DegenerateSampleError):
            count_torus_solutions(f, g)

    def test_solution_where_both_leading_coefficients_vanish_degenerate(self):
        # (x - 1) y^2 + y - 2 and (x - 1)(y^2 + 1) + 2y - 4 meet at (1, 2) and
        # at y = oo over x = 1: the y-reversed certificate rejects the sample
        f = poly({(1, 2): 1, (0, 2): -1, (0, 1): 1, (0, 0): -2})
        g = poly({(1, 2): 1, (0, 2): -1, (0, 1): 2, (1, 0): 1, (0, 0): -5})
        with pytest.raises(DegenerateSampleError, match="finite y and y = oo"):
            count_torus_solutions(f, g)

    def test_zeroes_at_both_ends_over_one_x_degenerate(self):
        # (x - 1)(y^2 + 1) + y and (x - 1)(y^2 + 3) + 2y meet at y = 0 and
        # at y = oo over x = 1
        f = poly({(1, 2): 1, (0, 2): -1, (0, 1): 1, (1, 0): 1, (0, 0): -1})
        g = poly({(1, 2): 1, (0, 2): -1, (0, 1): 2, (1, 0): 3, (0, 0): -3})
        with pytest.raises(DegenerateSampleError, match="y = 0 and y = oo"):
            count_torus_solutions(f, g)

    def test_solution_on_x_axis_excluded(self):
        f = poly({(0, 1): 1, (1, 0): -1, (0, 0): 1})  # y = x - 1
        g = poly({(0, 1): 1, (1, 0): 1, (0, 0): -1})  # y = 1 - x
        # the only intersection is (1, 0)
        assert count_torus_solutions(f, g) == 0

    # four outcomes decided before the certificates, in the order tested

    def test_line_has_a_zero_hessian_curve(self):
        f = sample_poly(standard_triangle(), CFG)
        assert not hessian_curve(f)
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
        assert len(f.diff("y").terms) == 1
        assert count_torus_solutions(f, f.diff("y")) == 0

    def test_constant_resultant_counts_zero(self):
        # a conic's Hessian curve is a constant modulo the conic, so the PRS
        # in y drops from degree 2 to a constant, past any linear element
        f = sample_poly(dilate(standard_triangle(), 2), CFG)
        g = hessian_curve(f).strip_monomial()
        a, b = f.terms[(0, 2)], g.terms[(0, 2)]
        remainder = poly({e: a * g.terms.get(e, 0) - b * f.terms.get(e, 0) for e in f.terms | g.terms})
        assert list(remainder.terms) == [(0, 0)]
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
        assert _count_in_charts(f, f.diff("y")) == vertical_tangent_count(P)


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
            moved = f.shift(2, 2)
            try:
                expected = _count_in_charts(moved, hessian_curve(moved))
            except DegenerateSampleError:
                continue
            assert _count_in_charts(f, hessian_curve(f)) == expected, (P.vertices, seed)
            compared += 1
    # the unit triangle, a line, shares a factor with its Hessian curve
    assert compared == 5 * 118
    assert time.monotonic() - start < 20.0


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
        scale = rec.terms[(1, 1)] / 4
        expected = {(2, 0): 1.0, (1, 1): 4.0, (1, 0): -2.0, (0, 0): 1.0}
        assert set(rec.terms) == set(expected)
        for e, c in expected.items():
            assert abs(rec.terms[e] / scale - c) < 1e-6
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
        assert len(lattice_points(observed)) >= len(rec.terms)

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
        pair = poly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
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
        assert rec.terms == {(0, 0): 1, (0, 1): -2, (0, 2): 1, (1, 0): 2, (1, 1): 6, (2, 0): 1}


class TestDualEquation:
    def test_golden_exact(self):
        assert _dual_equation(GOLDEN_POLY).terms == {(2, 0): 1, (1, 1): 4, (1, 0): -2, (0, 0): 1}

    def test_square_curve_degenerate(self):
        # (1 + x + y)**2 meets every line in a double point
        square = poly({(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 2, (0, 2): 1})
        with pytest.raises(DegenerateSampleError, match="identically-zero discriminant"):
            _dual_equation(square)

    def test_squarefree_needs_the_full_degree_on_a_line(self):
        # b - 2a is the constant 1 on the line b = 1 + 2a, where the square
        # of it times a + b + 3 restricts to the squarefree 3a + 4; the
        # products are expanded by sympy, with (a, b) as (x, y)
        A, B = _Y - 2 * _X, _X + _Y + 3
        assert _is_squarefree(poly({e: int(c) for e, c in (A * B).items()}))
        assert not _is_squarefree(poly({e: int(c) for e, c in (A * A * B).items()}))

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
            terms = [c * a**u * b**v for (u, v), c in G.terms.items()]
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
        assert G.newton_polygon().canonical().vertices == dual_polygon(P).canonical().vertices
