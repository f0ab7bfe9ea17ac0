"""Analytic cross-check of the combinatorial formulas.

Samples a random integer-coefficient curve supported on a polygon, counts
its inflection points (via the bordered Hessian) and vertical tangents by
exact elimination, and computes the dual curve's exact integer equation
as a discriminant.

A polynomial in two variables is a ``dict[Point, int]`` from exponents to
coefficients that holds no zero coefficient (``Poly``).  The exact
functions reject a caller's dict with a zero coefficient (``ValueError``),
which would move the degrees and the Newton polygon they read, or a
non-integer one (``TypeError``).

The torus count is exact and uses only Python integers.  One subresultant
PRS in y (Brown and Traub, "On Euclid's algorithm and the theory of
subresultants", J. ACM 18, 1971) gives the resultant and a linear element
of the ideal.  A simple root of the resultant carries exactly one common
zero in P^1, as the order of the resultant at a root is the sum of the
intersection multiplicities over it, so only the repeated roots need the
linear element's certificate (``count_torus_solutions``); a sample that
cannot be certified is rejected as degenerate, after the same pair has
failed in the two other monomial charts too.  The PRS runs on
Kronecker-packed integers: each y-coefficient, a polynomial in x, is
replaced by its value at x = 2**k.  Every coefficient of a PRS element,
and every principal coefficient, is +- a minor of the Sylvester matrix of
F and G with at most deg_y G rows of F and deg_y F rows of G.  Expanding
it along its rows, with ||p q||_1 <= ||p||_1 ||q||_1, bounds its
x-coefficients by ||F||_1^deg_y G * ||G||_1^deg_y F, so with k =
bitlen(bound) + 2 each of them is one balanced base-2**k digit and a
minor packs to 0 only if it is 0.  The intermediate pseudo-remainders are
not minors, so only the minors are tested for zero or unpacked.  Each PRS
element is held as p * 2**s, with s the trailing zero bits that its packed
coefficients share, and the pseudo-remainders and exact divisions run on p
alone: the pseudo-remainder is homogeneous, and the odd part of the
divisor divides p's pseudo-remainder (``_subresultants``).  The dual
equation gains most: a packed coefficient ends in k zero bits for each
power of a that divides it, and in k*w for each power of b.  The
univariate gcds use the heuristic gcd (Char, Geddes and Gonnet, "GCDHEU:
heuristic polynomial GCD algorithm based on integer GCD computation",
J. Symbolic Comput. 7, 1989), verified by exact division, with the same
PRS as fallback.

Each oracle draws up to ``_RETRIES`` samples, at the seeds that
``_with_attempt_seed`` derives from the configured one.  A degenerate
sample uses up an attempt, and when every attempt is degenerate the
oracle raises ``RetriesExhaustedError`` with the seed and reason of each.
Otherwise the first certified count is the answer, unless the caller
gives a ``reach``: a certified count is never above the count of a
generic curve (proof in ``_retry_samples``), so a count below ``reach``
is redrawn, and the oracle returns the first count that reaches it, or
the largest of its samples.

The dual equation is the discriminant of the pencil of lines
a x + b y + 1 = 0 restricted to the curve, computed by the same PRS at
the same width, with each coefficient in Z[a, b] keyed by its Kronecker
exponent in a after b -> a**w, so packed at a = 2**k, b = 2**(k*w).  The
slot w of a power of b is 1 plus the bound on the discriminant's a-degree
that its weight gives (2 plus it for a line), which intermediate minors
may exceed: the dual
equation relies on the packing being a ring map, which keeps the
resultant, not on "a minor packs to 0 only if it is 0".  When
deg_x f < deg_y f, x and y are swapped first, which lowers the degree in
b, and a and b are swapped back in the result (``_dual_equation``).  The
bordered Hessian is built the same way: its derivatives are packed at
x = 2**k, y = 2**(k*w) and multiplied as integers (``hessian_curve``), so
every polynomial product in this module is a product of packed integers.

Floating point enters only the numeric dual sampler
``sample_dual_points`` and the standalone root finder
``roots_of_int_poly``, which the tests use as independent witnesses;
neither is on a path of the CLI.  They import ``numpy`` when called, so
the package needs only the standard library, and ``numpy`` comes with
the test extra.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional, TypeVar

from .formulas import dual_polygon
from .lattice import LatticePolygon, Point, _point_count, lattice_points

_T = TypeVar("_T")
Poly = dict[Point, int]


class OracleError(RuntimeError):
    pass


class DegenerateSampleError(OracleError):
    """The sampled curve hit a degeneracy; the caller should resample.  The
    count raises it on a zero resultant (a common factor), on a polynomial
    of y-degree 0 that is not a monomial, and on a repeated root of the
    resultant it cannot certify (no linear subresultant, or two common
    zeroes over one root), once every chart has failed; the dual equation
    on a zero discriminant, on a Newton polygon that is not the predicted
    dual polygon, and on a repeated factor; the numeric root finder on a
    repeated root or an ambiguous root cluster."""


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


def _diff(f: Poly, var: str) -> Poly:
    """df/dx or df/dy; distinct exponents stay distinct, so nothing adds up."""
    if var == "x":
        return {(ex - 1, ey): c * ex for (ex, ey), c in f.items() if ex}
    return {(ex, ey - 1): c * ey for (ex, ey), c in f.items() if ey}


def _strip_monomial(f: Poly) -> Poly:
    """f with its largest monomial factor divided out; a no-op on the curve
    inside the torus."""
    if not f:
        return f
    mx, my = min(ex for ex, _ in f), min(ey for _, ey in f)
    return {(ex - mx, ey - my): c for (ex, ey), c in f.items()}


def _require_coeffs(f: Poly) -> None:
    """Reject a coefficient that is not a nonzero int (module docstring)."""
    if any(type(c) is not int for c in f.values()):
        raise TypeError("the oracle needs integer coefficients")
    if not all(f.values()):
        raise ValueError("the polynomial stores a zero coefficient")


def sample_poly(P: LatticePolygon, cfg: OracleConfig) -> Poly:
    """Random nonzero integer coefficient per lattice point of P, with the
    support translated so that its lowest exponent is 0 in x and in y."""
    P.require_dim2()
    rng = random.Random(cfg.seed)
    (xl, yl), _ = P.bounding_box()
    return {
        (px - xl, py - yl): rng.randint(1, cfg.coeff_bound) * rng.choice((-1, 1))
        for px, py in lattice_points(P)
    }


def hessian_curve(f: Poly) -> Poly:
    """x^2 y^2 times the bordered Hessian determinant
    B(f) = det [[f_xx, f_xy, f_x], [f_xy, f_yy, f_y], [f_x, f_y, 0]] of f,
    for f with integer coefficients and nonnegative exponents.

    B = 2 f_xy f_x f_y - f_xx f_y^2 - f_yy f_x^2 is one integer product of
    the five derivatives, each packed at x = 2**k, y = 2**(k*w) as the dual
    equation is (``_dual_equation``).  With ||p q||_1 <= ||p||_1 ||q||_1,
    ||B||_oo <= ||B||_1 <= S = 2 ||f_xy||_1 ||f_x||_1 ||f_y||_1
    + ||f_xx||_1 ||f_y||_1^2 + ||f_yy||_1 ||f_x||_1^2, so with
    k = bitlen(S) + 2 every coefficient is one balanced base-2**k digit.
    Each of the three products has x-degree at most 3 deg_x f - 2 < w - 1
    for w = 3 deg_x f + 1, so a y-coefficient of B, packed at x = 2**k, is
    below 2**(k*(w-1)) <= 2**(k*w - 1) in absolute value: one balanced
    base-2**(k*w) digit.  So B unpacks exactly.

    Its torus zeros on f = 0 do not depend on a monomial factor of f.  For
    a monomial u, modulo f the gradient of u f is u grad f, and
    Hess(u f) = u Hess f + grad u grad f^T + grad f grad u^T.  Subtracting
    u_x / u and u_y / u times the border column from the first two
    columns, and then the same multiples of the border row from the first
    two rows, cancels the two rank-one terms, so B(u f) = u^3 B(f) mod f
    in Laurent polynomials, and u is a unit in the torus.  So the sample
    needs no shift: for generic f with every exponent at least 2 the
    result has Newton polygon 3 newt(f), larger than the count needs."""
    _require_coeffs(f)
    fx, fy = _diff(f, "x"), _diff(f, "y")
    derivs = (_diff(fx, "x"), _diff(fx, "y"), _diff(fy, "y"), fx, fy)
    nxx, nxy, nyy, nx, ny = (sum(map(abs, p.values())) for p in derivs)
    k = (2 * nxy * nx * ny + nxx * ny * ny + nyy * nx * nx).bit_length() + 2
    w = 3 * max((ex for ex, _ in f), default=0) + 1
    xx, xy, yy, x, y = (sum(c << k * (i + w * j) for (i, j), c in p.items()) for p in derivs)
    B = _unpack_ab(2 * xy * x * y - xx * y * y - yy * x * x, k, w)
    return {(i + 2, j + 2): c for (i, j), c in B.items()}


# Exact elimination over Z[x].  A Poly is packed as the list of its
# y-coefficients, highest degree first, each a polynomial in x packed into
# one integer (its value at x = 2**k); a univariate polynomial is a list of
# ints, lowest degree first, with no trailing zero.


def _integral_terms(f: Poly) -> Poly:
    if not f:
        raise ValueError("cannot eliminate y from a zero polynomial")
    if max(ey for _, ey in f) == 0:
        raise ValueError("cannot eliminate y from a polynomial of y-degree 0")
    _require_coeffs(f)
    return f


def _packing_width(F: Poly, G: Poly) -> int:
    """Bits per packed x-coefficient that hold every Sylvester minor of F
    and G (module docstring).  For F = h and G = h_x keyed by Kronecker
    exponents, ``_dual_equation`` unpacks no minor: it needs these bits only
    for lc_x(h) and the quotient Res_x(h, h_x) / lc_x(h), whose 1-norm is
    also at most ||h||_1**(m-1) ||h_x||_1**m, m = deg_x h."""
    norm = sum(map(abs, F.values())) ** max(ey for _, ey in G)
    norm *= sum(map(abs, G.values())) ** max(ey for _, ey in F)
    return norm.bit_length() + 2


def _pack_y(F: Poly, k: int) -> list[int]:
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


def _odd(p: list[int], s: int) -> tuple[list[int], int]:
    """(q, s + z) with q * 2**(s + z) = p * 2**s, where z is the number of
    trailing zero bits that every coefficient of the nonzero p shares."""
    m = 0
    for a in p:
        m |= a
    z = (m & -m).bit_length() - 1
    return ([a >> z for a in p], s + z) if z else (p, s)


def _subresultants(f: list[int], g: list[int]) -> tuple[list[list[int]], int]:
    """Subresultant PRS of f and g (Brown-Traub), the longer first, and their
    resultant (0 unless the sequence ends in a constant).  Every element is
    +-a subresultant, and c is +-a principal subresultant coefficient, so
    after the exact division by b a leading zero is a zero polynomial.

    c starts at -1.  Each step divides prem(f, g) by b, where
    d = deg f - deg g, b = (-1)**(d + 1) at the first step and
    b = -lc(f) * c**d after it, and then sets c = (-lc(g))**d / c**(d - 1).
    A pseudo-remainder by a constant is 0, so the last one is not formed;
    c still takes that last gap d, which matters when d > 1.

    Each element is held as (p, s), its value p * 2**s, with s the trailing
    zero bits that its packed coefficients share, and prem and the exact
    division run on p.  Two facts keep this exact:

    1. ``_prem`` is homogeneous: each of its d + 1 steps forms
       lc(g) f' - top(f') g, so by induction on the steps
       prem(2**s f, 2**t g) = 2**(s + (d + 1) t) prem(f, g).
    2. Write b = 2**v b_o with b_o odd, and E = s + (d + 1) t.  The next
       element 2**E prem(f, g) / b has integer coefficients (the packing is
       a ring homomorphism, so the exact division in Z[x] stays exact on
       the packed values).  So b_o divides 2**E prem(f, g) and, being
       coprime to 2**E, prem(f, g).  The element is then
       (prem(f, g) // b_o) * 2**(E - v); when E - v < 0, its integrality
       means the quotient's shared trailing zeros cover -(E - v), so the
       shift of the normalized (p, s) is s >= 0.

    The scalars lc, b, c and the resultant are full values, and every
    returned element is shifted back to its value."""
    if len(f) < len(g):
        f, g = g, f
    prs = [f, g]
    lc, d = g[0], len(f) - len(g)
    (f, s), (g, t) = _odd(f, 0), _odd(g, 0)
    b, c = (-1) ** (d + 1), -1
    while True:
        if len(g) > 1:
            v = (b & -b).bit_length() - 1
            b >>= v
            h = _strip([a // b for a in _prem(f, g)])
        else:
            h = []
        c = (-lc) ** d // c ** (d - 1) if d else c
        if not h:
            return prs, (-c if len(g) == 1 else 0)
        h, u = _odd(h, s + (d + 1) * t - v)
        prs.append([a << u for a in h])
        f, s, g, t, d = g, t, h, u, len(g) - len(h)
        b = -lc * c**d
        lc = prs[-1][0]


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
    q(2**s) is gcd(p, q) if it divides both, as a constant does; None when
    no try verifies."""
    s = (2 * min(max(map(abs, p)), max(map(abs, q))) + 2).bit_length()
    for _ in range(4):
        h = _primitive(_unpack(math.gcd(_pack(p, s), _pack(q, s)), s))
        if len(h) == 1 or _quotient(p, h) is not None and _quotient(q, h) is not None:
            return h
        s *= 2
    return None


def _gcd(p: list[int], q: list[int]) -> list[int]:
    """gcd of nonzero p and q in Z[x], primitive with a positive leading
    coefficient.  Falls back to the primitive part of the last element of
    their subresultant PRS."""
    if len(p) == 1 or len(q) == 1:
        return [1]
    p, q = _primitive(p), _primitive(q)
    h = _heu_gcd(p, q)
    if h is None:
        h = _primitive(_subresultants(p[::-1], q[::-1])[0][-1][::-1])
    return h


def _linear_coeff(prs: list[list[int]], k: int) -> list[int]:
    """a(x) of the first subresultant a(x) y + b(x) of a packed PRS that
    ends in a constant: its last element of positive y-degree."""
    if len(prs[-2]) != 2:
        raise DegenerateSampleError(f"first subresultant has y-degree {len(prs[-2]) - 1}, not 1")
    return _unpack(prs[-2][0], k)


def resultant_y(f: Poly, g: Poly) -> Poly:
    """Resultant of f and g with respect to y: a univariate polynomial in x
    with exact integer coefficients."""
    F, G = _integral_terms(f), _integral_terms(g)
    k = _packing_width(F, G)
    _, res = _subresultants(_pack_y(F, k), _pack_y(G, k))
    return {(i, 0): c for i, c in enumerate(_unpack(res, k)) if c}


def count_torus_solutions(f: Poly, g: Poly) -> int:
    """Number of distinct common zeroes of f and g with both coordinates in
    the torus, counted exactly.

    With their monomial factors divided out: a zero polynomial shares every
    factor, and one of y-degree 0 that is not a monomial cannot be
    projected to x in this chart, so both are degenerate; a monomial has
    no zero in the torus, so the count is 0.  Otherwise let R be the
    resultant in y, nonzero or the pair is degenerate, R0 its primitive
    part with the powers of x divided out, D = gcd(R0, R0'), Rs = R0 / D its
    squarefree part and M = gcd(Rs, D), whose roots are the repeated roots
    of R0.  Z collects the roots of Rs with a common zero at y = 0, and I
    those where both y-leading coefficients vanish, that is with a common
    zero at y = oo.  The count is deg Rs - deg Z - deg I, so 0 when R0 is a
    constant, as for a conic, whose bordered Hessian is a constant modulo
    f.

    Lemma: with m = deg_y f, n = deg_y g and F, G the forms of degrees m
    and n in (y0 : y1) over C[x] that f and g become, each root x0 of R
    has ord_x0 R = sum of I_q(f, g) over the common zeroes q of F and G in
    {x0} x P^1.  Proof: F(x0, .) and G(x0, .) are not both 0, or x - x0
    would divide f and g and R = 0; say G(x0, .) is not.  A constant
    Moebius change of y moves a point of P^1 where G(x0, .) does not vanish
    to y = oo.  It multiplies R by a nonzero constant and maps the zeroes
    to zeroes with the same multiplicities, so afterwards lc_y g(x0) != 0
    may be assumed.  Over the local ring O of C[x] at x0, A = O[y]/(g) is
    then free with basis 1, y, ..., y**(n-1), and the determinant of
    multiplication by f on A is R over a unit (Poisson's formula).  The
    order of a determinant over a discrete valuation ring is the length of
    its cokernel (Fulton, Intersection Theory, lemma A.2.6), here
    O[y]/(f, g), and as g does not vanish at y = oo over x0, that length is
    the sum of the I_q.

    So a simple root x0 of R0 carries exactly one common zero in P^1, a
    transverse one.  As x0 != 0 it lies in the torus unless x0 is a root
    of Z (the zero is at y = 0) or of I (at y = oo), never of both, and
    needs no certificate.  The repeated roots, those of M, are certified.
    The first subresultant a y + b of the PRS lies in the ideal of f and
    g, so where a(x0) != 0 at most one common y exists: then each root of
    M outside Z and I carries exactly one torus solution, and each root of
    M in Z none.  The same test on the y-reversed pair shows the roots of
    M in I carry none.  A sample that fails a test is degenerate.  When
    M = 1, the usual case, no certificate runs.
    """
    _require_coeffs(f)
    _require_coeffs(g)
    f, g = _strip_monomial(f), _strip_monomial(g)
    if not f or not g:
        raise DegenerateSampleError("identically-zero resultant (common factor)")
    if any(len(p) > 1 and max(ey for _, ey in p) == 0 for p in (f, g)):
        raise DegenerateSampleError("y-degree 0 after the monomial factor is divided out")
    if len(f) == 1 or len(g) == 1:
        return 0
    k = _packing_width(f, g)
    Fp, Gp = _pack_y(f, k), _pack_y(g, k)
    prs, res = _subresultants(Fp, Gp)
    if not res:
        raise DegenerateSampleError("identically-zero resultant (common factor)")
    R0 = _unpack(res, k)
    R0 = _primitive(R0[next(i for i, c in enumerate(R0) if c) :])
    if len(R0) == 1:
        return 0
    D = _gcd(R0, [i * c for i, c in enumerate(R0)][1:])
    Rs = _quotient(R0, D)
    Z = _gcd(Rs, _gcd(_unpack(Fp[-1], k), _unpack(Gp[-1], k)))
    I = _gcd(Rs, _gcd(_unpack(Fp[0], k), _unpack(Gp[0], k)))
    M = _gcd(Rs, D)
    if len(M) > 1:
        a = _linear_coeff(prs, k)
        ZM, IM = _gcd(M, Z), _gcd(M, I)
        if len(_gcd(ZM, IM)) > 1:
            raise DegenerateSampleError("common zeroes at y = 0 and y = oo over one x")
        if len(_gcd(_quotient(M, IM), a)) > 1:
            raise DegenerateSampleError("two common zeroes over one root of the resultant")
        if len(IM) > 1:
            # the reversed pair's Sylvester matrix permutes this one's, so its
            # PRS ends in a constant too
            a_rev = _linear_coeff(_subresultants(Fp[::-1], Gp[::-1])[0], k)
            if len(_gcd(IM, a_rev)) > 1:
                raise DegenerateSampleError("common zeroes at finite y and y = oo over one x")
    return len(Rs) - len(Z) - len(I) + 1


def _unpack_ab(v: int, k: int, w: int) -> Poly:
    """The polynomial in (a, b) whose b-coefficients are the balanced
    base-2**(k*w) digits of v and whose a-coefficients are theirs in base
    2**k."""
    return {(u, j): c for j, row in enumerate(_unpack(v, k * w)) for u, c in enumerate(_unpack(row, k)) if c}


def _dual_equation(f: Poly) -> Poly:
    """The equation G(a, b) of the dual curve of f = 0, whose points are the
    lines a x + b y + 1 = 0 tangent to it: primitive, with no monomial
    factor and a positive coefficient at its largest exponent.

    Such a line is tangent where h(x) = b**n f(x, -(1 + a x)/b), n = deg_y f,
    has a double root, so G is the discriminant Q = Res_x(h, h_x) / lc_x(h)
    with its monomial and integer content removed.  When deg_x f < deg_y f,
    x and y are swapped in f first, so that h has the lower b-degree.  The
    swap is a linear change of coordinates of P**2, and its dual swaps a
    and b, so a and b are swapped back in Q before the normalization.  The
    PRS runs on the kernel of ``count_torus_solutions``: h is keyed by
    (Kronecker exponent of a after b -> a**w, x-degree), so its
    x-coefficients pack at a = 2**k, b = 2**(k*w).

    One width holds Q, though Q is not a minor.  With m = deg_x h,
    subtract m times the first h-row of the Sylvester matrix of h and h_x
    from its first h_x-row: that row becomes the coefficients of
    x h_x - m h, of 1-norm at most m ||h||_1, and the first column holds
    lc_x(h) alone.  So Q = +-det M, M having m - 2 rows of h, that row and
    m - 1 rows of h_x, and ||Q||_1 <= m ||h||_1**(m-1) ||h_x||_1**(m-1)
    <= ||h||_1**(m-1) ||h_x||_1**m, as ||h_x||_1 >= m: the
    ``_packing_width`` norm of h and h_x.

    The slot of a power of b is w = 1 + B, and 2 + B for a line (m = 1).
    The x**e coefficient of h has
    a-degree deg[e] = max{t : (i, j) in supp f, t <= j, i + t = e}, and
    Q = +-Disc_x(h) is homogeneous of degree 2m - 2 and isobaric of weight
    m (m - 1) in h's x-coefficients (Gelfand, Kapranov and Zelevinsky,
    Discriminants, Resultants and Multidimensional Determinants, 1994,
    ch. 12): each monomial of Q is a product of 2m - 2 of them whose
    x-exponents e_1, ..., e_(2m-2) sum to m (m - 1), with mean m / 2.  With
    c the least concave majorant of deg on [0, m], by Jensen
    deg_a Q <= sum deg[e_i] <= sum c(e_i) <= (2m - 2) c(m / 2), so
    deg_a Q <= B = floor((2m - 2) c(m / 2)), and c(m / 2) is the highest
    chord of deg over e1 <= m / 2 <= e2.  As c >= 0 is concave,
    c(m / 2) >= c(e) / 2, so every a-degree in h is at most B + 1, at most
    B when m >= 2, and so below w: h's Kronecker keys are distinct.  A line
    has B = 0 and a-degrees up to 1, so it keeps w = 2.

    Only Q must fit in w; the intermediate subresultants need not (on
    conv{(0,0),(3,0),(3,2)} one has a-degree w + 1).  The packing is the ring
    map phi: a -> 2**k, b -> 2**(k*w), and the PRS over Z returns
    Res_x(phi h, phi h_x), a polynomial in their x-coefficients, which is
    phi(Res_x(h, h_x)) as phi keeps the x-degrees: lc_x(h), of a-degree
    deg[m] < w and 1-norm below 2**(k-2), packs to distinct balanced digits,
    so phi(lc_x h) != 0.  So res // H[0] = +-phi(Q), and Q unpacks
    exactly: its coefficients are below 2**(k-2), so a b-row of a-degree
    <= B <= w - 1 is below 2**(k w - 2) in absolute value, one balanced
    base-2**(k*w) digit, whose balanced base-2**k digits are the row's
    coefficients.
    """
    f = _integral_terms(_strip_monomial(f))
    swap = max(i for i, _ in f) < max(j for _, j in f)
    if swap:
        f = {(j, i): c for (i, j), c in f.items()}
    n = max(ey for _, ey in f)
    m = max(i + j for i, j in f)
    # each term c x**i y**j gives c (-1)**j C(j, t) x**(i + t) a**t b**(n - j),
    # none shared with another, so deg[e], the a-degree of h's x**e
    # coefficient, is the largest such t with i + t = e
    deg = [0] * (m + 1)
    for i, j in f:
        for e in range(i, i + j + 1):
            deg[e] = max(deg[e], e - i)
    # w - 1 = B, (2m - 2) times the least concave majorant of deg at m / 2:
    # the highest chord over e1 <= m / 2 <= e2, or deg[m / 2] itself; a line
    # keeps one slot more, for h's keys
    w = (2 if m == 1 else 1) + max(
        (2 * m - 2) * deg[e1] if e1 == e2
        else (m - 1) * (deg[e1] * (2 * e2 - m) + deg[e2] * (m - 2 * e1)) // (e2 - e1)
        for e1 in range(m // 2 + 1)
        for e2 in range((m + 1) // 2, m + 1)
    )
    h = {
        (t + w * (n - j), i + t): (-1) ** j * math.comb(j, t) * c
        for (i, j), c in f.items()
        for t in range(j + 1)
    }
    hx = {(e, d - 1): d * c for (e, d), c in h.items() if d}
    k = _packing_width(h, hx)
    H = _pack_y(h, k)
    _, res = _subresultants(H, _pack_y(hx, k))
    if not res:
        raise DegenerateSampleError("identically-zero discriminant (the curve has a repeated factor)")
    G = _unpack_ab(res // H[0], k, w)
    if swap:
        G = {(v, u): c for (u, v), c in G.items()}
    G = _strip_monomial(G)
    g = math.gcd(*G.values()) * (1 if G[max(G)] > 0 else -1)
    return {e: c // g for e, c in G.items()}


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
    attempt: Callable[[Poly], _T],
    reach: Optional[int] = None,
    samples: Optional[list[tuple[int, object]]] = None,
) -> _T:
    """Run ``attempt`` on a curve sampled on P under each reseeded config in
    turn.  Without ``reach`` the result is that of the first attempt that
    meets no degenerate sample.  With it, the attempts are counts, and the
    result is the first count >= ``reach``, or else the largest count of the
    ``_RETRIES`` samples.  ``samples`` receives (seed, count or degeneracy
    reason) for each sample drawn.

    Stopping short of ``reach`` only on a larger count is sound because a
    certified count is a lower bound for the generic one.  Let S be the
    lattice points of P, A = C^S the coefficients c, f_c = sum c_s x^s, and
    g_c either the bordered Hessian curve of f_c or df_c/dy, both
    polynomial in (c, x, y).  Let X = {(c, p) in A x (C*)^2 : f_c(p) =
    g_c(p) = 0} and pi: X -> A the projection; the generic fibre of pi has
    n points, the generic count, which the formula gives when P's
    assumptions hold.  A count is certified when the resultant is nonzero,
    so that f_c0 and g_c0 share finitely many zeros, and each root of its
    squarefree part is shown to carry one torus zero or none, by its
    order in the resultant or by a certificate (``count_torus_solutions``).  It is then the number of points of the
    finite fibre pi^-1(c0), and #pi^-1(c0) <= n:

    1. X is cut by two equations in the smooth (|S| + 2)-fold A x (C*)^2,
       so each of its components has dimension >= |S| (Krull).
    2. The points of X isolated in their fibre form an open set U (upper
       semicontinuity of fibre dimension), and pi^-1(c0) lies in U.  pi is
       quasi-finite on U, so each component of U has the dimension of its
       image's closure, hence exactly |S|: it dominates A.
    3. By Zariski's main theorem U -> A factors as an open immersion into
       a finite V -> A, V the closure of U.  Each component of V is finite
       and dominant onto the normal variety A, so none has more points
       over c0 than its degree, which in characteristic 0 is the size of
       its generic fibre (Shafarevich, Basic Algebraic Geometry 1, ch. II,
       section 6.3).  Two components meet in a set that does not dominate
       A, and neither does the rest of V outside U, so the degrees add up
       to the size of U's generic fibre, which is at most n.

    The argument holds for any complex c0 with a finite fibre, for the
    pair (f, f_y) as for (f, B(f)).  So a certified count above the formula
    refutes the formula, and one below it may be the sample's fault alone:
    c0 lies on the proper closed set where zeros merge or leave the torus.
    A count mod p is a further specialisation, which this argument over C
    does not cover."""
    drawn: list[tuple[int, object]] = []
    best: Optional[_T] = None
    for i in range(_RETRIES):
        acfg = _with_attempt_seed(cfg, i)
        try:
            result = attempt(sample_poly(P, acfg))
        except DegenerateSampleError as exc:
            drawn.append((acfg.seed, str(exc)))
            continue
        drawn.append((acfg.seed, result))
        best = result if best is None else max(best, result)
        if reach is None or result >= reach:
            break
    if samples is not None:
        samples += drawn
    if best is None:
        raise RetriesExhaustedError(what, drawn)
    return best


# Monomial changes of coordinates (i, j) -> chart(i, j).  Each is an
# automorphism of the torus, so it keeps the count but moves the projection
# to x that the certificates test.
_CHARTS: tuple[tuple[str, Callable[[int, int], Point]], ...] = (
    ("(i, j)", lambda i, j: (i, j)),
    ("(j, i)", lambda i, j: (j, i)),
    ("(i, i + j)", lambda i, j: (i, i + j)),
)


def _count_in_charts(f: Poly, g: Poly) -> int:
    """count_torus_solutions of the pair in the first chart that certifies
    it; degenerate, naming each chart's reason, when none does."""
    failed = []
    for name, chart in _CHARTS:
        pair = (f, g) if name == "(i, j)" else [{chart(*e): c for e, c in p.items()} for p in (f, g)]
        try:
            return count_torus_solutions(*pair)
        except DegenerateSampleError as exc:
            failed.append(f"chart {name}: {exc}")
    raise DegenerateSampleError(", ".join(failed))


def inflection_oracle(
    P: LatticePolygon,
    cfg: OracleConfig,
    reach: Optional[int] = None,
    samples: Optional[list[tuple[int, object]]] = None,
) -> int:
    """Count torus intersections of a sampled curve with its Hessian curve,
    redrawing a count below ``reach`` (``_retry_samples``)."""
    P.require_dim2()
    return _retry_samples(
        P, cfg, "inflection oracle", lambda f: _count_in_charts(f, hessian_curve(f)), reach, samples
    )


def vertical_tangent_oracle(
    P: LatticePolygon,
    cfg: OracleConfig,
    reach: Optional[int] = None,
    samples: Optional[list[tuple[int, object]]] = None,
) -> int:
    """Count torus solutions of f = df/dy = 0 for a sampled curve,
    redrawing a count below ``reach`` (``_retry_samples``)."""
    P.require_dim2()
    return _retry_samples(
        P, cfg, "vertical tangent oracle", lambda f: _count_in_charts(f, _diff(f, "y")), reach, samples
    )


def sample_dual_points(
    f: Poly, n: int, cfg: OracleConfig
) -> tuple[tuple[complex, complex], ...]:
    """Points (a,b) on the dual curve: for random x near the unit circle,
    solve f(x,.) = 0 and map each torus root through the tangency
    parametrization (a,b) = -(f_x, f_y) / (x f_x + y f_y)."""
    if not f or LatticePolygon.hull(f).dim != 2:
        raise ValueError("need a genuinely bivariate polynomial")
    rng = random.Random(cfg.seed ^ 0xD1A15A3B)
    fx, fy = _diff(f, "x"), _diff(f, "y")
    top = max(ey for _, ey in f)
    points: list[tuple[complex, complex]] = []
    tries = 0
    while len(points) < n:
        tries += 1
        if tries > 50 + 20 * max(n, 1):
            raise OracleError("insufficient valid dual samples")
        radius = 1 + 0.3 * (rng.random() - 0.5)
        x0 = radius * cmath.exp(2j * math.pi * rng.random())
        ys = [0j] * (top + 1)  # f(x0, y), highest y-degree first
        for (ex, ey), c in f.items():
            ys[top - ey] += complex(c) * x0**ex
        for y0 in _polished_poly_roots(ys):
            if len(points) >= n:
                break
            if abs(y0) <= _TORUS_TOL or abs(x0) <= _TORUS_TOL:
                continue
            vx, vy = (sum(complex(c) * x0**ex * y0**ey for (ex, ey), c in p.items()) for p in (fx, fy))
            den = x0 * vx + y0 * vy
            if abs(den) <= _TORUS_TOL:
                continue
            points.append((-vx / den, -vy / den))
    return tuple(points)


def implicitize_dual(
    P: LatticePolygon,
    cfg: OracleConfig,
    poly: Optional[Poly] = None,
) -> tuple[Poly, LatticePolygon]:
    """The exact dual equation of a curve sampled on P (or of ``poly``),
    with its Newton polygon, which must match the predicted dual polygon
    up to translation.  ``poly`` and the equation are ``dict[Point, int]``
    maps from exponents (in x, y and in a, b) to coefficients that hold no
    zero coefficient; a zero in ``poly`` raises ``ValueError``."""
    predicted = dual_polygon(P)
    # counted by Pick's theorem: the dual of d Delta holds O(d**4) points
    if _point_count(predicted) > 40:
        raise ValueError("dual support too large for implicitization")
    if poly is not None:
        # a given curve cannot be resampled: its first degeneracy is final
        return _implicitize_once(poly, predicted)
    return _retry_samples(P, cfg, "implicitization", lambda f: _implicitize_once(f, predicted))


def _implicitize_once(f: Poly, predicted: LatticePolygon) -> tuple[Poly, LatticePolygon]:
    G = _dual_equation(f)
    observed = LatticePolygon.hull(G)
    if observed.canonical().vertices != predicted.canonical().vertices:
        raise DegenerateSampleError(
            "observed dual support does not match the predicted polygon"
        )
    if not _is_squarefree(G):
        raise DegenerateSampleError("dual equation has a repeated factor")
    return G, observed


def _is_squarefree(G: Poly) -> bool:
    """True when G(a, b0 + s a) has G's total degree and no repeated root
    on one of three lines.  That proves G squarefree: a factor A**2 of G
    restricts to one of degree 2 deg A there.  A singular curve, such as a
    pair of lines, has a square factor in its discriminant for each node."""
    d = max(u + v for u, v in G)
    rows = [[0] * (d + 1) for _ in range(max(v for _, v in G) + 1)]
    for (u, v), c in G.items():
        rows[v][u] = c
    for b0, s in ((1, 2), (3, 5), (7, 11)):
        g = [0] * (d + 1)
        for row in reversed(rows):  # Horner in b
            g = [b0 * x + s * y + r for x, y, r in zip(g, [0] + g[:-1], row)]
        if g[d] and len(_gcd(g, [i * c for i, c in enumerate(g)][1:])) == 1:
            return True
    return False
