"""The stdlib Z[x] elimination kernel of ``plucker.oracle`` against sympy.

``sympy_count_torus_solutions`` is the reference count on sympy's dense
polynomials: the same rule, with the certificates run, in the same order,
only on the repeated roots of the resultant.
"""
import math
import random

import pytest
import sympy
from sympy.polys.subresultants_qq_zz import sylvester

from conftest import random_polygon
from plucker import oracle
from plucker.lattice import LatticePolygon
from plucker.oracle import (
    _CHARTS,
    DegenerateSampleError,
    OracleConfig,
    _diff,
    _dual_equation,
    _gcd,
    _integral_terms,
    _pack_y,
    _packing_width,
    _strip_monomial,
    _subresultants,
    _unpack,
    count_torus_solutions,
    hessian_curve,
    resultant_y,
    sample_poly,
)

_Y, _X = sympy.symbols("y x")


def sympy_y_poly(f: dict) -> sympy.Poly:
    """f as a polynomial in y over Z[x]: generator 0 is y, generator 1 is x."""
    if not f:
        raise ValueError("resultant of a zero polynomial")
    if max(ey for _, ey in f) == 0:
        raise ValueError("resultant_y needs positive y-degree on both sides")
    return sympy.Poly.from_dict({(ey, ex): int(c) for (ex, ey), c in f.items()}, _Y, _X)


def _y_coeff(p: sympy.Poly, k: int) -> sympy.Poly:
    row = {(ex,): c for (ey, ex), c in p.as_dict(native=True).items() if ey == k}
    return p.from_dict(row, p.gens[1], domain=p.domain)


def _y_reversed(p: sympy.Poly) -> sympy.Poly:
    d = p.degree(0)
    terms = {(d - ey, ex): c for (ey, ex), c in p.as_dict(native=True).items()}
    return p.from_dict(terms, *p.gens, domain=p.domain)


def _linear_coeff(prs: list) -> sympy.Poly:
    last = [p for p in prs if p.degree(0) > 0][-1]
    if last.degree(0) != 1:
        raise DegenerateSampleError(f"first subresultant has y-degree {last.degree(0)}, not 1")
    return _y_coeff(last, 1)


def sympy_count_torus_solutions(f: dict, g: dict) -> int:
    f, g = _strip_monomial(f), _strip_monomial(g)
    if not f or not g:
        raise DegenerateSampleError("identically-zero resultant (common factor)")
    if any(len(p) > 1 and max(ey for _, ey in p) == 0 for p in (f, g)):
        raise DegenerateSampleError("y-degree 0 after the monomial factor is divided out")
    if len(f) == 1 or len(g) == 1:
        return 0
    F, G = sympy_y_poly(f), sympy_y_poly(g)
    R, prs = F.resultant(G, includePRS=True)
    if R.is_zero:
        raise DegenerateSampleError("identically-zero resultant (common factor)")
    _, R0 = R.terms_gcd()
    if R0.degree() == 0:
        return 0
    D = R0.gcd(R0.diff(_X))
    Rs = R0.exquo(D)
    Z = Rs.gcd(_y_coeff(F, 0)).gcd(_y_coeff(G, 0))
    I = Rs.gcd(_y_coeff(F, F.degree(0))).gcd(_y_coeff(G, G.degree(0)))
    # the repeated roots of the resultant; a simple one needs no certificate
    M = Rs.gcd(D)
    if M.degree() > 0:
        a = _linear_coeff(prs)
        ZM, IM = M.gcd(Z), M.gcd(I)
        if ZM.gcd(IM).degree() > 0:
            raise DegenerateSampleError("common zeroes at y = 0 and y = oo over one x")
        if M.exquo(IM).gcd(a).degree() > 0:
            raise DegenerateSampleError("two common zeroes over one root of the resultant")
        if IM.degree() > 0:
            a_rev = _linear_coeff(_y_reversed(F).subresultants(_y_reversed(G)))
            if IM.gcd(a_rev).degree() > 0:
                raise DegenerateSampleError("common zeroes at finite y and y = oo over one x")
    return Rs.degree() - Z.degree() - I.degree()


def _outcome(count, *args):
    try:
        return count(*args)
    except DegenerateSampleError as exc:
        return str(exc)


def _seeded_pairs(rng, n):
    """n pairs (f, Hessian of f) and (f, f_y) of sampled curves on random
    polygons in boxes 1 to 4; coefficient bound 2 makes degenerate samples
    common."""
    pairs = []
    while len(pairs) < n:
        P = random_polygon(rng, box=rng.randint(1, 4))
        cfg = OracleConfig(seed=rng.randint(0, 2**32), coeff_bound=rng.choice((2, 1000)))
        f = sample_poly(P, cfg)
        pairs += [(f, hessian_curve(f)), (f, _diff(f, "y"))]
    return pairs


def test_count_matches_sympy_reference():
    outcomes = []
    for f, g in _seeded_pairs(random.Random(2024), 600):
        expected = _outcome(sympy_count_torus_solutions, f, g)
        assert _outcome(count_torus_solutions, f, g) == expected, (f, g)
        outcomes.append(expected)
    reasons = {o for o in outcomes if isinstance(o, str)}
    assert len(outcomes) - sum(isinstance(o, int) for o in outcomes) >= 30
    assert len(reasons) >= 3, reasons


def test_count_with_gcd_fallback_matches_sympy_reference(monkeypatch):
    # every gcd goes through the primitive part of the last PRS element
    monkeypatch.setattr(oracle, "_heu_gcd", lambda p, q: None)
    for f, g in _seeded_pairs(random.Random(7), 60):
        expected = _outcome(sympy_count_torus_solutions, f, g)
        assert _outcome(count_torus_solutions, f, g) == expected, (f, g)


def _chart_outcomes(f, g):
    return [_outcome(count_torus_solutions, *({chart(*e): c for e, c in p.items()} for p in (f, g))) for _, chart in _CHARTS]


def test_a_simple_root_at_a_vanishing_leading_coefficient_needs_no_certificate():
    # f = y p(x) - 302 x with p = 504 x^3 + 526 x^2 - 308 x + 261: over each
    # root of p, f and its Hessian curve meet at y = oo, and the linear
    # subresultant of the y-reversed pair vanishes there, so its certificate
    # fails; but each root of p is simple in the resultant (of degree
    # 8 = 5 + 3), so it carries that one common zero and no other
    f = {(0, 1): 261, (1, 0): -302, (1, 1): -308, (2, 1): 526, (3, 1): 504}
    g = hessian_curve(f)
    assert count_torus_solutions(f, g) == 5
    assert _chart_outcomes(f, g) == [5, 5, 5]
    # on f = 0, y = 302 x / p(x) is finite and nonzero exactly where
    # x p(x) != 0, so the torus zeroes are the distinct roots of
    # p(x)**3 g(x, 302 x / p(x)) off x p(x) = 0
    p = sympy.Poly([504, 526, -308, 261], _X)
    N = sympy.Poly(sum(c * _X**i * (302 * _X) ** j * p.as_expr() ** (3 - j) for (i, j), c in g.items()), _X)
    squarefree = N.quo(N.gcd(N.diff(_X)))
    assert squarefree.quo(squarefree.gcd(p * _X)).degree() == 5


def test_charts_that_certify_agree():
    # each chart is a monomial change, an automorphism of the torus; a count
    # certified in one chart is the count in every other that certifies
    compared = 0
    for f, g in _seeded_pairs(random.Random(99), 800):
        counts = [o for o in _chart_outcomes(f, g) if isinstance(o, int)]
        assert len(set(counts)) <= 1, (f, g)
        compared += len(counts) > 1
    assert compared >= 750


def _random_x_poly(rng, degree, bound):
    return [rng.randint(-bound, bound) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, bound)]


def _sympy_x_poly(p):
    return sympy.Poly(list(reversed(p)), _X)


def test_gcd_matches_sympy(monkeypatch):
    rng = random.Random(11)
    pairs = []
    for _ in range(40):
        common = _random_x_poly(rng, rng.randint(0, 4), 30)
        pairs.append(
            tuple(
                _sympy_x_poly(common) * _sympy_x_poly(_random_x_poly(rng, rng.randint(0, 5), 30))
                for _ in range(2)
            )
        )
    for heuristic in (True, False):
        if not heuristic:
            monkeypatch.setattr(oracle, "_heu_gcd", lambda p, q: None)
        for p, q in pairs:
            _, expected = p.gcd(q).primitive()
            expected = expected if expected.LC() > 0 else -expected
            got = _gcd(*([int(c) for c in reversed(r.all_coeffs())] for r in (p, q)))
            assert got == list(reversed([int(c) for c in expected.all_coeffs()])), (p, q, heuristic)


def _as_dict(element, k):
    out = {}
    for i, v in enumerate(element):
        for ex, c in enumerate(_unpack(v, k)):
            if c:
                out[(len(element) - 1 - i, ex)] = c
    return out


def _gapped_pair(rng):
    """F(x, y**s) and G(x, y**s): every degree drop of their PRS is a
    multiple of s."""
    s = rng.choice((2, 3))
    terms = []
    for degree in rng.sample(range(1, 5), 2):
        t = {(ex, s * ey): rng.randint(-9, 9) for ex in range(3) for ey in range(degree)}
        t[(rng.randint(0, 2), s * degree)] = rng.choice((-1, 1)) * rng.randint(1, 9)
        terms.append({e: c for e, c in t.items() if c})
    return terms


def _check_gapped_pairs(shift):
    """Compare the packed PRS and resultant of 30 gapped pairs, each side
    multiplied by x**shift, with sympy's; return the PRS degree sequences."""
    rng = random.Random(5)
    sequences = []
    for _ in range(30):
        f, g = ({(ex + shift, ey): c for (ex, ey), c in p.items()} for p in _gapped_pair(rng))
        F, G = _integral_terms(f), _integral_terms(g)
        k = _packing_width(F, G)
        Fp, Gp = _pack_y(F, k), _pack_y(G, k)
        assert all(v % (1 << shift * k) == 0 for v in Fp + Gp)
        prs, res = _subresultants(Fp, Gp)
        expected = sympy_y_poly(f).subresultants(sympy_y_poly(g))
        assert [_as_dict(p, k) for p in prs] == [p.as_dict(native=True) for p in expected]
        R = sympy_y_poly(f).resultant(sympy_y_poly(g))
        R_terms = {(ex, 0): c for (ex,), c in R.as_dict(native=True).items()}
        assert {(ex, 0): c for ex, c in enumerate(_unpack(res, k)) if c} == R_terms
        assert resultant_y(f, g) == R_terms
        sequences.append([len(p) - 1 for p in prs])
    return sequences


def test_prs_matches_sympy_subresultants_on_gapped_pairs():
    sequences = _check_gapped_pairs(0)
    assert sum(any(a - b > 1 for a, b in zip(d[1:], d[2:])) for d in sequences) >= 10


@pytest.mark.parametrize("shift", [1, 3])
def test_prs_matches_sympy_subresultants_with_shared_trailing_zeros(shift):
    # x**shift puts shift * k zero bits under every packed coefficient, so
    # the kernel holds each element as an odd part times a power of 2; a
    # PRS that ends in a constant after a gap of at least 2 takes c from
    # that gap without forming the last pseudo-remainder
    sequences = _check_gapped_pairs(shift)
    assert any(d[-1] == 0 and d[-2] - d[-1] >= 2 for d in sequences)


def test_packing_width_below_the_bound_unpacks_a_wrong_resultant():
    # Res_y(1000 y - x, y + 1000 x) = 1000001 x, which needs 21 bits per
    # digit; the bound 1001 * 1001 has 20 bits, so two bits less than the
    # packing width (bound + 2) unpack something else
    f = {(0, 1): 1000, (1, 0): -1}
    g = {(0, 1): 1, (1, 0): 1000}
    assert resultant_y(f, g) == {(1, 0): 1000001}
    F, G = _integral_terms(f), _integral_terms(g)
    narrow = _packing_width(F, G) - 2
    _, res = _subresultants(_pack_y(F, narrow), _pack_y(G, narrow))
    assert _unpack(res, narrow) != [0, 1000001]


def _primitive_terms(terms):
    """Terms divided by their monomial and integer content, with a positive
    coefficient at the largest exponent."""
    mu = min(u for u, _ in terms)
    mv = min(v for _, v in terms)
    g = math.gcd(*terms.values()) * (1 if terms[max(terms)] > 0 else -1)
    return {(u - mu, v - mv): c // g for (u, v), c in terms.items()}


# samples with coefficients +-1, whose quotients by lc_x(h) come within 7 to
# 15 bits of what the packing width holds
_TIGHT = {
    "square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "2delta": [(0, 0), (2, 0), (0, 2)],
    "tri": [(1, 0), (2, 0), (0, 3)],
}


@pytest.mark.parametrize(
    "vertices, cfg",
    [
        ([(0, 0), (3, 0), (0, 3)], OracleConfig(seed=3)),
        ([(0, 0), (3, 0), (3, 2)], OracleConfig(seed=3)),
        ([(0, 0), (1, 0), (1, 3), (0, 3)], OracleConfig(seed=3)),
    ]
    + [(vertices, OracleConfig(seed=seed, coeff_bound=1)) for vertices in _TIGHT.values() for seed in (1, 2, 3)],
    ids=["3delta", "tri-slab", "rect1x3"] + [f"{name}-pm1-seed{seed}" for name in _TIGHT for seed in (1, 2, 3)],
)
def test_dual_equation_is_the_sympy_discriminant(vertices, cfg):
    # the discriminant in x of b**n f(x, -(1 + a x)/b), n = deg_y f, up to a
    # constant times a monomial; the _TIGHT samples are the check on the
    # packing width besides its proof in _dual_equation
    a, b = sympy.symbols("a b")
    f = _strip_monomial(sample_poly(LatticePolygon.hull(vertices), cfg))
    n = max(j for _, j in f)
    h = sympy.expand(sum(c * _X**i * (-(1 + a * _X)) ** j * b ** (n - j) for (i, j), c in f.items()))
    disc = sympy.Poly(sympy.discriminant(h, _X), a, b).as_dict(native=True)
    assert _dual_equation(f) == _primitive_terms(disc)


_WIDTH_CASES = {
    "3delta": [(0, 0), (3, 0), (0, 3)],
    "tri-slab": [(0, 0), (3, 0), (3, 2)],
    "quad": [(0, 0), (2, 0), (3, 1), (3, 2)],
    "rect1x3": [(0, 0), (1, 0), (1, 3), (0, 3)],
    "thin1": [(1, 0), (2, 0), (0, 3)],
    "pentagon": [(0, 0), (2, 0), (2, 1), (1, 2), (0, 1)],
}


@pytest.mark.parametrize(
    "vertices, cfg",
    [(vertices, OracleConfig(seed=3)) for vertices in _WIDTH_CASES.values()]
    + [(vertices, OracleConfig(seed=seed, coeff_bound=1)) for vertices in _TIGHT.values() for seed in (1, 2, 3)],
    ids=list(_WIDTH_CASES) + [f"{name}-pm1-seed{seed}" for name in _TIGHT for seed in (1, 2, 3)],
)
def test_dual_slot_width_is_the_sylvester_column_bound(vertices, cfg, monkeypatch):
    # the slot w of a power of b is 2 + the sum over the columns of the
    # Sylvester matrix of h and h_x, over Z[a, b] in x, of the largest
    # a-degree in the column; every subresultant coefficient and the
    # discriminant Q stay within w - 2, and w is never wider than the
    # row-sum width n (2m - 1) + 2; h is built in the chart that
    # _dual_equation packs, with x and y swapped when deg_x f < deg_y f
    widths = []
    unpack_ab = oracle._unpack_ab
    monkeypatch.setattr(oracle, "_unpack_ab", lambda v, k, w: widths.append(w) or unpack_ab(v, k, w))
    f = _strip_monomial(sample_poly(LatticePolygon.hull(vertices), cfg))
    _dual_equation(f)
    (w,) = widths
    if max(i for i, _ in f) < max(j for _, j in f):
        f = {(j, i): c for (i, j), c in f.items()}
    a, b = sympy.symbols("a b")
    n = max(j for _, j in f)
    h = sympy.Poly(sum(c * _X**i * (-(1 + a * _X)) ** j * b ** (n - j) for (i, j), c in f.items()), _X)
    hx = h.diff(_X)
    m = h.degree()
    S = sylvester(h.as_expr(), hx.as_expr(), _X)
    assert S.shape == (2 * m - 1, 2 * m - 1)
    column_degrees = [
        max((sympy.Poly(S[r, c], a).degree() for r in range(S.rows) if S[r, c] != 0), default=0)
        for c in range(S.cols)
    ]
    assert w == 2 + sum(column_degrees)
    assert w <= n * (2 * m - 1) + 2
    for p in h.subresultants(hx):
        assert all(sympy.Poly(c, a).degree() <= w - 2 for c in p.coeffs()), p
    assert sympy.Poly(sympy.discriminant(h.as_expr(), _X), a).degree() <= w - 2
