"""Analytic cross-check of the combinatorial formulas.

Samples a random integer-coefficient curve supported on a polygon, counts
its inflection points (via the bordered Hessian) and vertical tangents by
exact elimination, and recovers the dual curve's equation at tiny scale by
evaluating monomials of the predicted dual support on sampled tangency data.

The torus count is exact: one subresultant pass over Z[x] gives the
resultant and a linear element of the ideal that certifies every root of
its squarefree part; a sample that cannot be certified is rejected as
degenerate.  Floating point enters only dual sampling, implicitization and
the standalone root finder ``roots_of_int_poly``.

The heavy libraries are imported inside the functions that use them, so
importing this module (and the package) loads none of them: ``sympy`` in
``_y_poly``, the one place that names the generators, ``numpy`` in the
numeric root finders and the SVD, ``mpmath`` in ``_polish_root``.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from .formulas import dual_polygon
from .lattice import LatticePolygon, Point, lattice_points

if TYPE_CHECKING:
    import sympy

_T = TypeVar("_T")


class OracleError(RuntimeError):
    pass


class DegenerateSampleError(OracleError):
    """The sampled curve hit a degeneracy (zero resultant, a root of the
    resultant the count cannot certify, ambiguous root clusters, wrong
    kernel dimension); the caller should resample."""


class RetriesExhaustedError(OracleError):
    """Every attempt met a degenerate sample.  ``attempts`` holds the seed
    and the degeneracy reason of each attempt, in order."""

    def __init__(self, what: str, attempts: list[tuple[int, str]]):
        self.attempts = tuple(attempts)
        listed = "; ".join(f"seed {seed}: {reason}" for seed, reason in self.attempts)
        super().__init__(f"{what} retries exhausted after {len(self.attempts)} attempts: {listed}")


@dataclass(frozen=True)
class OracleConfig:
    seed: int
    coeff_bound: int = 1000
    torus_tol: float = 1e-8
    retries: int = 5

    def __post_init__(self) -> None:
        if self.coeff_bound <= 0 or self.torus_tol <= 0 or self.retries <= 0:
            raise ValueError("all oracle bounds must be positive")


class SparsePoly:
    """Bivariate polynomial as a map from lattice exponents to coefficients.

    Exact constructors store Fractions; numeric coefficients (the output of
    implicitization) are kept as given.  Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Point, object]):
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @staticmethod
    def from_int_terms(terms: dict[Point, int]) -> "SparsePoly":
        return SparsePoly({e: Fraction(c) for e, c in terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparsePoly) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"SparsePoly({self.terms!r})"

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePoly(out)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return SparsePoly(out)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        out: dict[Point, object] = {}
        for (ax, ay), ac in self.terms.items():
            for (bx, by), bc in other.terms.items():
                e = (ax + bx, ay + by)
                out[e] = out.get(e, 0) + ac * bc
        return SparsePoly(out)

    def scale(self, c) -> "SparsePoly":
        return SparsePoly({e: c * v for e, v in self.terms.items()})

    def diff(self, var: str) -> "SparsePoly":
        i = 0 if var == "x" else 1
        out: dict[Point, object] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = (e[0] - 1, e[1]) if i == 0 else (e[0], e[1] - 1)
            out[ne] = out.get(ne, 0) + c * e[i]
        return SparsePoly(out)

    def shift(self, dx: int, dy: int) -> "SparsePoly":
        return SparsePoly({(e[0] + dx, e[1] + dy): c for e, c in self.terms.items()})

    def strip_monomial(self) -> "SparsePoly":
        """Divide out the largest common monomial factor; a no-op on the
        curve inside the torus."""
        if not self.terms:
            return self
        mx = min(e[0] for e in self.terms)
        my = min(e[1] for e in self.terms)
        return self.shift(-mx, -my)

    def newton_polygon(self) -> LatticePolygon:
        if not self.terms:
            raise ValueError("zero polynomial has no Newton polygon")
        return LatticePolygon.hull(self.terms.keys())

    def evaluate(self, x: complex, y: complex) -> complex:
        return sum(complex(c) * x ** ex * y ** ey for (ex, ey), c in self.terms.items())

    def y_coeffs_at(self, x0: complex) -> list[complex]:
        """Coefficients of self(x0, y) as a dense list, highest y-degree first."""
        by_deg: dict[int, complex] = {}
        for (ex, ey), c in self.terms.items():
            by_deg[ey] = by_deg.get(ey, 0) + complex(c) * x0 ** ex
        top = max(by_deg)
        return [by_deg.get(d, 0j) for d in range(top, -1, -1)]

    def degree_y(self) -> int:
        return max(e[1] for e in self.terms)


def sample_poly(P: LatticePolygon, cfg: OracleConfig) -> SparsePoly:
    """Random nonzero integer coefficient per lattice point of P, with the
    support translated so every exponent is at least 2 (which is enough for
    the Hessian support identity to hold)."""
    P.require_dim2()
    rng = random.Random(cfg.seed)
    (xl, yl), _ = P.bounding_box()
    terms: dict[Point, int] = {}
    for px, py in lattice_points(P):
        c = rng.randint(1, cfg.coeff_bound) * rng.choice((-1, 1))
        terms[(px - xl + 2, py - yl + 2)] = c
    return SparsePoly.from_int_terms(terms)


def hessian_curve(f: SparsePoly) -> SparsePoly:
    """x^2 y^2 times the bordered Hessian determinant of f.

    For generic f with all exponents >= 2 the result has Newton polygon
    3 * newt(f)."""
    if any(ex < 2 or ey < 2 for ex, ey in f.terms):
        raise ValueError("hessian_curve expects all exponents >= 2")
    fx = f.diff("x")
    fy = f.diff("y")
    fxx = fx.diff("x")
    fxy = fx.diff("y")
    fyy = fy.diff("y")
    h = (fxy * fx * fy).scale(2) - fxx * fy * fy - fyy * fx * fx
    return h.shift(2, 2)


def _clear_denominators(f: SparsePoly) -> SparsePoly:
    den = math.lcm(*[Fraction(c).denominator for c in f.terms.values()]) if f else 1
    return f.scale(Fraction(den))


def _y_poly(f: SparsePoly) -> sympy.Poly:
    """f scaled integral, as a polynomial in y with coefficients in Z[x]:
    generator 0 is y, generator 1 is x."""
    import sympy

    if not f:
        raise ValueError("resultant of a zero polynomial")
    if f.degree_y() == 0:
        raise ValueError("resultant_y needs positive y-degree on both sides")
    terms = _clear_denominators(f).terms
    y, x = sympy.symbols("y x")
    return sympy.Poly.from_dict({(ey, ex): int(c) for (ex, ey), c in terms.items()}, y, x)


def resultant_y(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Resultant of f and g with respect to y: a univariate polynomial in x
    with exact integer coefficients (inputs are scaled integral first)."""
    res = _y_poly(f).resultant(_y_poly(g))
    return SparsePoly({(int(m[0]), 0): Fraction(int(c)) for m, c in res.terms()})


def _y_coeff(p: sympy.Poly, k: int) -> sympy.Poly:
    """The coefficient of y^k in p, a polynomial in x."""
    row = {(ex,): c for (ey, ex), c in p.as_dict(native=True).items() if ey == k}
    return p.from_dict(row, p.gens[1], domain=p.domain)


def _y_reversed(p: sympy.Poly) -> sympy.Poly:
    """y^deg p(x, 1/y): swaps the common zeroes at y = 0 and y = oo."""
    d = p.degree(0)
    terms = {(d - ey, ex): c for (ey, ex), c in p.as_dict(native=True).items()}
    return p.from_dict(terms, *p.gens, domain=p.domain)


def _linear_coeff(prs: list[sympy.Poly]) -> sympy.Poly:
    """a(x) of the first subresultant a(x) y + b(x): the last element of
    positive y-degree in the subresultant sequence of a pair."""
    last = [p for p in prs if p.degree(0) > 0][-1]
    if last.degree(0) != 1:
        raise DegenerateSampleError(
            f"first subresultant has y-degree {last.degree(0)}, not 1"
        )
    return _y_coeff(last, 1)


def count_torus_solutions(f: SparsePoly, g: SparsePoly, cfg: OracleConfig) -> int:
    """Number of distinct common zeroes of f and g with both coordinates in
    the torus, counted exactly (``cfg`` sets no tolerance here).

    Each root x0 != 0 of the squarefree resultant carries a common zero at
    finite y, or both y-leading coefficients vanish there (the roots of the
    factor I, with a common zero at y = oo).  Z collects the roots with a
    common zero at y = 0.  The first subresultant a y + b lies in the ideal
    of f and g, so where a(x0) != 0 at most one common y exists: then each
    root outside Z and I carries exactly one torus solution, and each root
    of Z none.  The same test on the y-reversed pair shows the roots of I
    carry none.  A sample that fails a test is degenerate.
    """
    F = _y_poly(f.strip_monomial())
    G = _y_poly(g.strip_monomial())
    R, prs = F.resultant(G, includePRS=True)
    if R.is_zero:
        raise DegenerateSampleError("identically-zero resultant (common factor)")
    a = _linear_coeff(prs)
    _, Rs = R.sqf_part().terms_gcd()
    Z = Rs.gcd(_y_coeff(F, 0)).gcd(_y_coeff(G, 0))
    I = Rs.gcd(_y_coeff(F, F.degree(0))).gcd(_y_coeff(G, G.degree(0)))
    if Z.gcd(I).degree() > 0:
        raise DegenerateSampleError("common zeroes at y = 0 and y = oo over one x")
    torus = Rs.exquo(Z * I)
    if (torus * Z).gcd(a).degree() > 0:
        raise DegenerateSampleError("two common zeroes over one root of the resultant")
    if I.degree() > 0:
        a_rev = _linear_coeff(_y_reversed(F).subresultants(_y_reversed(G)))
        if I.gcd(a_rev).degree() > 0:
            raise DegenerateSampleError("common zeroes at finite y and y = oo over one x")
    return torus.degree()


def _scaled_float(c: int, shift: int) -> float:
    if shift <= 0:
        return float(c)
    return float(c >> shift) if c >= 0 else -float((-c) >> shift)


def _polish_root(coeffs: list[int], dcoeffs: list[int], z0: complex, prec: int) -> complex:
    import mpmath

    with mpmath.workprec(prec):
        z = mpmath.mpc(z0)
        for _ in range(60):
            pv = mpmath.polyval(coeffs, z)
            dv = mpmath.polyval(dcoeffs, z)
            if dv == 0:
                break
            step = pv / dv
            z = z - step
            if abs(step) <= 1e-18 * (1 + abs(z)):
                break
        return complex(z)


def roots_of_int_poly(coeffs: list[int]) -> list[complex]:
    """Roots of a squarefree integer polynomial: companion-matrix start on
    scaled coefficients, then Newton polishing at sufficient precision."""
    import numpy as np

    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    maxbits = max(abs(c).bit_length() for c in coeffs if c)
    shift = max(0, maxbits - 500)
    start = np.roots([_scaled_float(c, shift) for c in coeffs])
    prec = maxbits + 64
    dcoeffs = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
    polished = [_polish_root(coeffs, dcoeffs, complex(z), prec) for z in start]
    for i, a in enumerate(polished):
        for b in polished[i + 1 :]:
            if abs(a - b) <= 1e-9 * (1 + abs(a)):
                raise DegenerateSampleError("root cluster ambiguous after polishing")
    return polished


def _polished_poly_roots(coeffs: list[complex]) -> list[complex]:
    """Roots of a complex-coefficient univariate poly with one Newton pass."""
    import numpy as np

    arr = np.array(coeffs, dtype=complex)
    nz = np.nonzero(np.abs(arr) > 1e-300)[0]
    if len(nz) == 0:
        return []
    arr = arr[nz[0] :]
    if len(arr) <= 1:
        return []
    roots = np.roots(arr)
    der = np.polyder(arr)
    out = []
    for z in roots:
        for _ in range(20):
            dv = np.polyval(der, z)
            if dv == 0:
                break
            step = np.polyval(arr, z) / dv
            z = z - step
            if abs(step) <= 1e-15 * (1 + abs(z)):
                break
        out.append(complex(z))
    return out


def _with_attempt_seed(cfg: OracleConfig, attempt: int) -> OracleConfig:
    return replace(cfg, seed=cfg.seed + 0x9E3779B9 * attempt)


def _retry_samples(
    P: LatticePolygon,
    cfg: OracleConfig,
    what: str,
    attempt: Callable[[SparsePoly, OracleConfig], _T],
) -> _T:
    """Run ``attempt`` on a curve sampled on P under each reseeded config in
    turn, until one attempt meets no degenerate sample."""
    failed: list[tuple[int, str]] = []
    for i in range(cfg.retries):
        acfg = _with_attempt_seed(cfg, i)
        try:
            return attempt(sample_poly(P, acfg), acfg)
        except DegenerateSampleError as exc:
            failed.append((acfg.seed, str(exc)))
    raise RetriesExhaustedError(what, failed)


def inflection_oracle(P: LatticePolygon, cfg: OracleConfig) -> int:
    """Count torus intersections of a sampled curve with its Hessian curve."""
    P.require_dim2()
    return _retry_samples(
        P, cfg, "inflection oracle", lambda f, c: count_torus_solutions(f, hessian_curve(f), c)
    )


def vertical_tangent_oracle(P: LatticePolygon, cfg: OracleConfig) -> int:
    """Count torus solutions of f = df/dy = 0 for a sampled curve."""
    P.require_dim2()
    return _retry_samples(
        P, cfg, "vertical tangent oracle", lambda f, c: count_torus_solutions(f, f.diff("y"), c)
    )


@dataclass(frozen=True)
class DualSample:
    points: tuple[tuple[complex, complex], ...]


def sample_dual_points(f: SparsePoly, n: int, cfg: OracleConfig) -> DualSample:
    """Points (a,b) on the dual curve: for random x near the unit circle,
    solve f(x,.) = 0 and map each torus root through the tangency
    parametrization (a,b) = -(f_x, f_y) / (x f_x + y f_y)."""
    if not f or f.newton_polygon().dim != 2:
        raise ValueError("need a genuinely bivariate polynomial")
    rng = random.Random(cfg.seed ^ 0xD1A15A3B)
    fx = f.diff("x")
    fy = f.diff("y")
    points: list[tuple[complex, complex]] = []
    tries = 0
    while len(points) < n:
        tries += 1
        if tries > 50 + 20 * max(n, 1):
            raise OracleError("insufficient valid dual samples")
        radius = 1 + 0.3 * (rng.random() - 0.5)
        x0 = radius * cmath.exp(2j * math.pi * rng.random())
        for y0 in _polished_poly_roots(f.y_coeffs_at(x0)):
            if len(points) >= n:
                break
            if abs(y0) <= cfg.torus_tol or abs(x0) <= cfg.torus_tol:
                continue
            vx = fx.evaluate(x0, y0)
            vy = fy.evaluate(x0, y0)
            den = x0 * vx + y0 * vy
            if abs(den) <= cfg.torus_tol:
                continue
            points.append((-vx / den, -vy / den))
    return DualSample(tuple(points))


def implicitize_dual(
    P: LatticePolygon,
    cfg: OracleConfig,
    poly: Optional[SparsePoly] = None,
) -> tuple[SparsePoly, LatticePolygon]:
    """Recover the dual curve's equation numerically on the predicted
    support and return it with its observed Newton polygon.

    The evaluation matrix of the predicted dual monomials at sampled dual
    points must have a one-dimensional kernel; that simultaneously pins the
    coefficients and validates the predicted polygon.
    """
    predicted = dual_polygon(P)
    support = lattice_points(predicted)
    if len(support) > 40:
        raise ValueError("dual support too large for implicitization")
    if poly is not None:
        # a given curve cannot be resampled: its first degeneracy is final
        return _implicitize_once(poly, predicted, support, cfg)
    return _retry_samples(
        P, cfg, "implicitization", lambda f, c: _implicitize_once(f, predicted, support, c)
    )


def _implicitize_once(
    f: SparsePoly,
    predicted: LatticePolygon,
    support: list[Point],
    cfg: OracleConfig,
) -> tuple[SparsePoly, LatticePolygon]:
    import numpy as np

    sample = sample_dual_points(f, 2 * len(support) + 4, cfg)
    A = np.array(
        [[a ** u * b ** v for (u, v) in support] for a, b in sample.points],
        dtype=complex,
    )
    _, s, vh = np.linalg.svd(A)
    # a one-dimensional kernel: a small last singular value, well separated
    # from the next one (the gap is relative, since the monomial matrix can
    # be ill-conditioned far above its kernel)
    if s[-1] > 1e-8 * s[0] or (len(s) > 1 and s[-2] < 1e4 * s[-1]):
        raise DegenerateSampleError("kernel dimension != 1 in dual implicitization")
    kernel = vh[-1].conj()
    kernel = kernel / kernel[np.argmax(np.abs(kernel))]
    terms = {
        e: complex(c)
        for e, c in zip(support, kernel)
        if abs(c) > 1e-6
    }
    observed = LatticePolygon.hull(terms.keys())
    if observed.canonical().vertices != predicted.canonical().vertices:
        raise DegenerateSampleError(
            "observed dual support does not match the predicted polygon"
        )
    return SparsePoly(terms), observed
