"""Analytic cross-check of the combinatorial formulas.

Samples a random integer-coefficient curve supported on a polygon, counts
its inflection points (via the bordered Hessian) and vertical tangents by
exact elimination, and recovers the dual curve's equation at tiny scale by
evaluating monomials of the predicted dual support on sampled tangency data.

The torus count is exact and uses only Python integers.  One subresultant
PRS in y (Brown and Traub, "On Euclid's algorithm and the theory of
subresultants", J. ACM 18, 1971) gives the resultant and a linear element
of the ideal that certifies every root of its squarefree part; a sample
that cannot be certified is rejected as degenerate, after the same pair
has failed in the two other monomial charts too.  The PRS runs on
Kronecker-packed integers: each y-coefficient, a polynomial in x, is
replaced by its value at x = 2**k.  Every coefficient of a PRS element,
and every principal coefficient, is +- a minor of the Sylvester matrix of
F and G with at most deg_y G rows of F and deg_y F rows of G.  Expanding
it along its rows, with ||p q||_1 <= ||p||_1 ||q||_1, bounds its
x-coefficients by ||F||_1^deg_y G * ||G||_1^deg_y F, so with k =
bitlen(bound) + 2 each of them is one balanced base-2**k digit and a
minor packs to 0 only if it is 0.  The intermediate pseudo-remainders are
not minors, so only the minors are tested for zero or unpacked.  The
univariate gcds use the heuristic gcd (Char, Geddes and
Gonnet, "GCDHEU: heuristic polynomial GCD algorithm based on integer GCD
computation", J. Symbolic Comput. 7, 1989), verified by exact division,
with the same PRS as fallback.  Floating point enters only dual sampling,
implicitization and the standalone root finder ``roots_of_int_poly``.

``numpy`` is imported inside the functions that use it (the numeric root
finder and the SVD), so importing this module does not load it.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional, TypeVar

from .formulas import dual_polygon
from .lattice import LatticePolygon, Point, lattice_points

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


# Distance from 0 below which a sampled coordinate, or the tangency
# denominator, counts as off the torus.
_TORUS_TOL = 1e-8
# Samples drawn before the oracle gives up on a polygon.
_RETRIES = 5


@dataclass(frozen=True)
class OracleConfig:
    seed: int
    coeff_bound: int = 1000

    def __post_init__(self) -> None:
        if self.coeff_bound <= 0:
            raise ValueError("the coefficient bound must be positive")


class SparsePoly:
    """Bivariate polynomial as a map from lattice exponents to coefficients.

    Exact constructors store ints; numeric coefficients (the output of
    implicitization) are kept as given.  Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Point, object]):
        self.terms = {e: c for e, c in terms.items() if c != 0}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparsePoly) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"SparsePoly({self.terms!r})"

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
    return SparsePoly(terms)


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


# Exact elimination over Z[x].  A bivariate polynomial is a list of its
# y-coefficients, highest degree first, each a polynomial in x packed into
# one integer (its value at x = 2**k); a univariate polynomial is a list of
# ints, lowest degree first, with no trailing zero.


def _integral_terms(f: SparsePoly) -> dict[Point, int]:
    if not f:
        raise ValueError("resultant of a zero polynomial")
    if f.degree_y() == 0:
        raise ValueError("resultant_y needs positive y-degree on both sides")
    if any(type(c) is not int for c in f.terms.values()):
        raise TypeError("elimination needs integer coefficients")
    return f.terms


def _packing_width(F: dict[Point, int], G: dict[Point, int]) -> int:
    """Bits per packed x-coefficient that hold every Sylvester minor of F
    and G (module docstring)."""
    norm = sum(map(abs, F.values())) ** max(ey for _, ey in G)
    norm *= sum(map(abs, G.values())) ** max(ey for _, ey in F)
    return norm.bit_length() + 2


def _pack_y(F: dict[Point, int], k: int) -> list[int]:
    top = max(ey for _, ey in F)
    rows = [0] * (top + 1)
    for (ex, ey), c in F.items():
        rows[top - ey] += c << (k * ex)
    return rows


def _pack(p: list[int], k: int) -> int:
    v = 0
    for c in reversed(p):
        v = (v << k) + c
    return v


def _unpack(v: int, k: int) -> list[int]:
    """The polynomial p with p(2**k) = v and all |coefficients| < 2**(k-1)."""
    half, mask, p = 1 << (k - 1), (1 << k) - 1, []
    while v:
        c = v & mask
        if c >= half:
            c -= 1 << k
        p.append(c)
        v = (v - c) >> k
    return p


def _prem(f: list[int], g: list[int]) -> list[int]:
    """lc(g)**(deg f - deg g + 1) * f mod g, in exactly that many steps.

    No coefficient is tested for zero: an intermediate one is not a minor,
    so its packed value may be 0 for a nonzero polynomial."""
    lc, n = g[0], len(g)
    for _ in range(len(f) - n + 1):
        top = f[0]
        f = [lc * a - top * b for a, b in zip(f[1:n], g[1:])] + [lc * a for a in f[n:]]
    return f


def _strip(p: list[int]) -> list[int]:
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _subresultants(f: list[int], g: list[int]) -> tuple[list[list[int]], int]:
    """Subresultant PRS of f and g (Brown-Traub), the longer first, and their
    resultant (0 unless the sequence ends in a constant).  Every element is
    +-a subresultant, and c is +-a principal subresultant coefficient, so
    after the exact division by b a leading zero is a zero polynomial."""
    if len(f) < len(g):
        f, g = g, f
    prs = [f, g]
    d = len(f) - len(g)
    h = _strip([-a for a in _prem(f, g)] if d % 2 == 0 else _prem(f, g))
    lc = g[0]
    c = lc**d
    res = c
    c = -c
    while h:
        prs.append(h)
        f, g, d = g, h, len(g) - len(h)
        b = -lc * c**d
        h = _strip([a // b for a in _prem(f, g)])
        lc = g[0]
        c = (-lc) ** d // c ** (d - 1) if d > 1 else -lc
        res = -c
    return prs, (res if len(prs[-1]) == 1 else 0)


def _primitive(p: list[int]) -> list[int]:
    g = math.gcd(*p)
    return [c // g for c in p] if p[-1] > 0 else [-c // g for c in p]


def _quotient(p: list[int], q: list[int]) -> Optional[list[int]]:
    """p / q in Z[x], or None when q does not divide p."""
    p, lc, n = list(p), q[-1], len(q) - 1
    out = [0] * max(len(p) - n, 0)
    for i in range(len(p) - 1 - n, -1, -1):
        c, r = divmod(p[i + n], lc)
        if r:
            return None
        out[i] = c
        for j in range(n):
            p[i + j] -= c * q[j]
    return out if not any(p[:n]) else None


def _heu_gcd(p: list[int], q: list[int]) -> Optional[list[int]]:
    """Heuristic gcd (Char-Geddes-Gonnet) of primitive p and q.  With
    2**s >= 2 * min(|p|_oo, |q|_oo) + 2, the interpolated gcd of p(2**s) and
    q(2**s) is gcd(p, q) if it divides both; None when no try verifies."""
    s = (2 * min(max(map(abs, p)), max(map(abs, q))) + 2).bit_length()
    for _ in range(4):
        h = _primitive(_unpack(math.gcd(_pack(p, s), _pack(q, s)), s))
        if _quotient(p, h) is not None and _quotient(q, h) is not None:
            return h
        s *= 2
    return None


def _gcd(p: list[int], q: list[int]) -> list[int]:
    """gcd of nonzero p and q in Z[x], primitive with a positive leading
    coefficient.  Falls back to the primitive part of the last element of
    their subresultant PRS."""
    p, q = _primitive(p), _primitive(q)
    if len(p) == 1 or len(q) == 1:
        return [1]
    h = _heu_gcd(p, q)
    if h is None:
        h = _primitive(_subresultants(p[::-1], q[::-1])[0][-1][::-1])
    return h


def _sqf_part(p: list[int]) -> list[int]:
    """The squarefree part of nonzero p, with powers of x divided out."""
    p = _primitive(p[next(i for i, c in enumerate(p) if c) :])
    if len(p) == 1:
        return p
    return _quotient(p, _gcd(p, [i * c for i, c in enumerate(p)][1:]))


def _eliminate(F: list[int], G: list[int], k: int) -> tuple[list[int], list[int]]:
    """The resultant of a packed pair and a(x) of its first subresultant
    a(x) y + b(x), the last element of positive y-degree of the PRS."""
    prs, res = _subresultants(F, G)
    if not res:
        raise DegenerateSampleError("identically-zero resultant (common factor)")
    if len(prs[-2]) != 2:
        raise DegenerateSampleError(f"first subresultant has y-degree {len(prs[-2]) - 1}, not 1")
    return _unpack(res, k), _unpack(prs[-2][0], k)


def resultant_y(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Resultant of f and g with respect to y: a univariate polynomial in x
    with exact integer coefficients."""
    F, G = _integral_terms(f), _integral_terms(g)
    k = _packing_width(F, G)
    _, res = _subresultants(_pack_y(F, k), _pack_y(G, k))
    return SparsePoly({(i, 0): c for i, c in enumerate(_unpack(res, k))})


def count_torus_solutions(f: SparsePoly, g: SparsePoly) -> int:
    """Number of distinct common zeroes of f and g with both coordinates in
    the torus, counted exactly.

    Each root x0 != 0 of the squarefree resultant carries a common zero at
    finite y, or both y-leading coefficients vanish there (the roots of the
    factor I, with a common zero at y = oo).  Z collects the roots with a
    common zero at y = 0.  The first subresultant a y + b lies in the ideal
    of f and g, so where a(x0) != 0 at most one common y exists: then each
    root outside Z and I carries exactly one torus solution, and each root
    of Z none.  The same test on the y-reversed pair shows the roots of I
    carry none.  A sample that fails a test is degenerate.
    """
    F = _integral_terms(f.strip_monomial())
    G = _integral_terms(g.strip_monomial())
    k = _packing_width(F, G)
    Fp, Gp = _pack_y(F, k), _pack_y(G, k)
    R, a = _eliminate(Fp, Gp, k)
    Rs = _sqf_part(R)
    Z = _gcd(Rs, _gcd(_unpack(Fp[-1], k), _unpack(Gp[-1], k)))
    I = _gcd(Rs, _gcd(_unpack(Fp[0], k), _unpack(Gp[0], k)))
    if len(_gcd(Z, I)) > 1:
        raise DegenerateSampleError("common zeroes at y = 0 and y = oo over one x")
    if len(_gcd(_quotient(Rs, I), a)) > 1:
        raise DegenerateSampleError("two common zeroes over one root of the resultant")
    if len(I) > 1:
        _, a_rev = _eliminate(Fp[::-1], Gp[::-1], k)
        if len(_gcd(I, a_rev)) > 1:
            raise DegenerateSampleError("common zeroes at finite y and y = oo over one x")
    return len(Rs) - len(Z) - len(I) + 1


def _scaled_float(c: int, shift: int) -> float:
    if shift <= 0:
        return float(c)
    return float(c >> shift) if c >= 0 else -float((-c) >> shift)


def roots_of_int_poly(coeffs: list[int]) -> list[complex]:
    """Roots of a squarefree integer polynomial, highest degree first: the
    coefficients are shifted right into float range, then rooted and
    polished in double precision.  A repeated root (found exactly, by the
    gcd with the derivative) or two roots that double precision cannot
    tell apart make the sample degenerate."""
    coeffs = _strip(coeffs)
    p = coeffs[::-1]  # lowest degree first, as the Z[x] kernel takes it
    if len(p) > 1 and len(_gcd(p, [i * c for i, c in enumerate(p)][1:])) > 1:
        raise DegenerateSampleError("repeated root")
    shift = max(0, max((abs(c).bit_length() for c in coeffs), default=0) - 500)
    polished = _polished_poly_roots([_scaled_float(c, shift) for c in coeffs])
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
    for i in range(_RETRIES):
        acfg = _with_attempt_seed(cfg, i)
        try:
            return attempt(sample_poly(P, acfg), acfg)
        except DegenerateSampleError as exc:
            failed.append((acfg.seed, str(exc)))
    raise RetriesExhaustedError(what, failed)


# Monomial changes of coordinates (i, j) -> chart(i, j).  Each is an
# automorphism of the torus, so it keeps the count but moves the projection
# to x that the certificates test.
_CHARTS: tuple[tuple[str, Callable[[int, int], Point]], ...] = (
    ("(i, j)", lambda i, j: (i, j)),
    ("(j, i)", lambda i, j: (j, i)),
    ("(i, i + j)", lambda i, j: (i, i + j)),
)


def _count_in_charts(f: SparsePoly, g: SparsePoly) -> int:
    """count_torus_solutions of the pair in the first chart that certifies
    it; degenerate, naming each chart's reason, when none does."""
    failed = []
    for name, chart in _CHARTS:
        pair = [SparsePoly({chart(*e): c for e, c in p.terms.items()}) for p in (f, g)]
        try:
            return count_torus_solutions(*pair)
        except DegenerateSampleError as exc:
            failed.append(f"chart {name}: {exc}")
    raise DegenerateSampleError(", ".join(failed))


def inflection_oracle(P: LatticePolygon, cfg: OracleConfig) -> int:
    """Count torus intersections of a sampled curve with its Hessian curve."""
    P.require_dim2()
    return _retry_samples(
        P, cfg, "inflection oracle", lambda f, c: _count_in_charts(f, hessian_curve(f))
    )


def vertical_tangent_oracle(P: LatticePolygon, cfg: OracleConfig) -> int:
    """Count torus solutions of f = df/dy = 0 for a sampled curve."""
    P.require_dim2()
    return _retry_samples(
        P, cfg, "vertical tangent oracle", lambda f, c: _count_in_charts(f, f.diff("y"))
    )


def sample_dual_points(
    f: SparsePoly, n: int, cfg: OracleConfig
) -> tuple[tuple[complex, complex], ...]:
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
            if abs(y0) <= _TORUS_TOL or abs(x0) <= _TORUS_TOL:
                continue
            vx = fx.evaluate(x0, y0)
            vy = fy.evaluate(x0, y0)
            den = x0 * vx + y0 * vy
            if abs(den) <= _TORUS_TOL:
                continue
            points.append((-vx / den, -vy / den))
    return tuple(points)


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
    support: tuple[Point, ...],
    cfg: OracleConfig,
) -> tuple[SparsePoly, LatticePolygon]:
    import numpy as np

    sample = sample_dual_points(f, 2 * len(support) + 4, cfg)
    A = np.array(
        [[a ** u * b ** v for (u, v) in support] for a, b in sample],
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
