"""Output checks, each against an independent computation or a property
the method must have; never against a saved copy of earlier output.

``check_op`` looks at one operation's output, ``check_round`` at the
outputs of a whole round (invariance under translation and rotation, and
implicitized versus combinatorial dual polygons).  Both return a list of
messages, empty when the outputs are right.
"""
from __future__ import annotations

import cmath
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np

import geom

# The oracle draws attempt k of a run at seed ``seed + k * ATTEMPT_STRIDE``
# and gives each lattice point of P, in lexicographic order, the
# coefficient ``randint(1, 1000) * choice((-1, 1))``.  The dual check below
# rebuilds the sampled curve from that rule.
ATTEMPT_STRIDE = 0x9E3779B9
ATTEMPTS = 5
COEFF_BOUND = 1000
# Largest |sum c_uv a^u b^v| / sum |c_uv a^u b^v| accepted at a tangent
# line of the sampled curve.  On the dualfit inputs right equations read
# below 1e-13, and moving any one coefficient by 1 % of the largest reads
# above 3e-5.
DUAL_TOLERANCE = 1e-6
DUAL_POINTS = 6

ROTATION_INVARIANT = ("vol", "inflections", "bitangents", "genus", "euler_char", "dual_vol")
VERDICTS = {"Verified", "Unknown", "FailsKnown"}


def _pairs(key_map: dict) -> dict:
    return {tuple(int(c) for c in k.split(",")): w for k, w in key_map.items()}


def _pts(vs) -> list:
    return [tuple(v) for v in vs]


def _expect(errors: list, ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def _dual_shape(op) -> list | None:
    """Dual polygon predicted by a closed form for the named families."""
    kind, *p = op.family or ("",)
    if kind == "dD":
        m = p[0] * (p[0] - 1)
        return [(0, 0), (m, 0), (0, m)]
    if kind == "rect":
        m = 2 * p[0] * p[1]
        return [(0, 0), (m, 0), (0, m)]
    if kind == "tri":
        c, d = p
        return geom.hull([(c, 0), (0, d), (0, c * d), (c * d, 0)])
    return None


def _check_dual(errors, op, out) -> None:
    dual = geom.hull(_pts(out["dual_polygon"]))
    _expect(
        errors,
        _pairs(out["dual_fan"]) == geom.outer_edge_lengths(dual),
        f"{op.label}: dual-fan weights differ from the dual polygon's edge lengths",
    )
    shape = _dual_shape(op)
    if shape is not None:
        _expect(
            errors,
            geom.same_up_to_translation(dual, shape),
            f"{op.label}: dual polygon {out['dual_polygon']} is not the closed-form {shape}",
        )


def _closed_forms(op) -> dict:
    """Counts of the classical families (acceptance criteria 1-3)."""
    kind, *p = op.family or ("",)
    if kind == "dD":
        (d,) = p
        return {
            "inflections": 3 * d * (d - 2),
            "bitangents": Fraction(d * (d + 3) * (d - 3) * (d - 2), 2),
            "vertical_tangents": d * (d - 1),
        }
    if kind == "rect":
        c, d = p
        return {
            "inflections": 6 * c * d - 3 * c - 3 * d,
            "bitangents": 2 * c * c * d * d - 10 * c * d + 4 * c + 4 * d,
            "vertical_tangents": 2 * c * (d - 1),
        }
    if kind == "tri":
        c, d = p
        cd = c * d
        return {
            "inflections": 3 * cd - 2 * c - 2 * d,
            "bitangents": Fraction(cd * cd - 11 * cd + 6 * c + 6 * d, 2),
            "vertical_tangents": c * (d - 1),
        }
    return {}


def check_report(op, out) -> list:
    errors: list = []
    verts = geom.hull(op.points)
    _expect(errors, sorted(_pts(out["polygon"])) == sorted(verts), f"{op.label}: polygon is not the hull")
    da = geom.doubled_area(verts)
    _expect(errors, Fraction(out["vol"]) == Fraction(da, 2), f"{op.label}: vol {out['vol']}")
    pts = geom.lattice_points(verts)
    boundary = sum(geom.on_boundary(verts, p) for p in pts)
    _expect(errors, out["genus"] == len(pts) - boundary, f"{op.label}: genus {out['genus']}")
    _expect(errors, out["euler_char"] == boundary - da, f"{op.label}: euler_char {out['euler_char']}")
    dual = geom.hull(_pts(out["dual_polygon"]))
    _expect(
        errors,
        Fraction(out["dual_vol"]) == Fraction(geom.doubled_area(dual), 2),
        f"{op.label}: dual_vol {out['dual_vol']} is not the shoelace area of the dual polygon",
    )
    _check_dual(errors, op, out)
    for key, want in _closed_forms(op).items():
        got = Fraction(out[key])
        _expect(errors, got == want, f"{op.label}: {key} {got} != closed form {want}")
    return errors


def check_dual(op, out) -> list:
    errors: list = []
    verts = geom.hull(op.points)
    _expect(errors, sorted(_pts(out["polygon"])) == sorted(verts), f"{op.label}: polygon is not the hull")
    _check_dual(errors, op, out)
    return errors


def check_render(op, out) -> list:
    try:
        root = ET.fromstring(out["svg"])
    except ET.ParseError as exc:
        return [f"{op.label}: render output is not XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{op.label}: render root element is {root.tag}"]
    return []


def check_assumptions(op, out) -> list:
    errors: list = []
    verdicts = (out["a1"], out["a2"], out["a3"])
    _expect(errors, set(verdicts) <= VERDICTS, f"{op.label}: verdicts {verdicts}")
    _expect(
        errors,
        out["all_verified"] == (verdicts == ("Verified",) * 3),
        f"{op.label}: all_verified disagrees with the verdicts",
    )
    _expect(errors, bool(out["evidence"]), f"{op.label}: no evidence")
    thin_k = geom.thin_orbit_k(geom.hull(op.points))
    _expect(
        errors,
        (out["a2"] == "FailsKnown") == (thin_k is not None),
        f"{op.label}: a2 {out['a2']} but thin orbit k={thin_k}",
    )
    if op.family[:1] == ("thin",):
        witness = out.get("thin_witness") or {}
        _expect(errors, thin_k == op.family[1], f"{op.label}: built thin triangle not recognised")
        _expect(errors, witness.get("k") == op.family[1], f"{op.label}: thin witness {witness}")
    return errors


def check_nofast(op, out) -> list:
    errors: list = []
    _expect(errors, geom.contains_translate(geom.hull(op.points), geom.FIVE_DELTA),
            f"{op.label}: input does not contain 5*Delta")
    _expect(errors, out["all_verified"], f"{op.label}: battery without fast path is {out}")
    return errors


def check_verify(op, out) -> list:
    errors: list = []
    _expect(errors, out["match"] is True, f"{op.label}: match is {out['match']}")
    _expect(errors, out["assumptions"]["all_verified"] is True, f"{op.label}: assumptions not all Verified")
    for name, row in out["checks"].items():
        _expect(errors, row["formula"] == row["oracle"], f"{op.label}: {name} formula {row['formula']} oracle {row['oracle']}")
        _expect(errors, row["match"] == (row["formula"] == row["oracle"]), f"{op.label}: {name} match flag")
    forms = _closed_forms(op)
    for name in ("inflections", "vertical_tangents"):
        if name in forms:
            got = out["checks"][name]["formula"]
            _expect(errors, got == forms[name], f"{op.label}: {name} formula {got} != closed form {forms[name]}")
    return errors


def sampled_curve(points, seed: int) -> dict:
    """The oracle's sampled curve for one attempt seed, exponents from 0."""
    verts = geom.hull(points)
    rng = random.Random(seed)
    xl = min(x for x, _ in verts)
    yl = min(y for _, y in verts)
    return {
        (x - xl, y - yl): rng.randint(1, COEFF_BOUND) * rng.choice((-1, 1))
        for x, y in geom.lattice_points(verts)
    }


def tangent_lines(curve: dict, n: int, rng: random.Random) -> list:
    """(a, b) with a X + b Y + 1 = 0 tangent to the curve at n of its points."""
    top = max(j for _, j in curve)
    lines: list = []
    while len(lines) < n:
        x0 = (0.8 + 0.4 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        ycoeffs = [sum(c * x0 ** i for (i, j), c in curve.items() if j == d) for d in range(top, -1, -1)]
        for y0 in np.roots(ycoeffs):
            if not 1e-3 < abs(y0) < 1e3:
                continue
            fx = sum(c * i * x0 ** (i - 1) * y0 ** j for (i, j), c in curve.items() if i)
            fy = sum(c * j * x0 ** i * y0 ** (j - 1) for (i, j), c in curve.items() if j)
            den = x0 * fx + y0 * fy
            if abs(den) <= 1e-9 * (abs(x0 * fx) + abs(y0 * fy)):
                continue
            lines.append((-fx / den, -fy / den))
    return lines[:n]


def dual_residual(coeffs: dict, lines: list) -> float:
    """Largest relative residual of the dual equation over the lines."""
    worst = 0.0
    for a, b in lines:
        terms = [c * a ** u * b ** v for (u, v), c in coeffs.items()]
        worst = max(worst, abs(sum(terms)) / sum(abs(t) for t in terms))
    return worst


def check_implicitize(op, out) -> list:
    coeffs = {uv: complex(re, im) for uv, (re, im) in _pairs(out["dual_coefficients"]).items()}
    best = math.inf
    for attempt in range(ATTEMPTS):
        curve = sampled_curve(op.points, op.seed + ATTEMPT_STRIDE * attempt)
        lines = tangent_lines(curve, DUAL_POINTS, random.Random(op.seed))
        best = min(best, dual_residual(coeffs, lines))
        if best < DUAL_TOLERANCE:
            return []
    return [f"{op.label}: dual equation residual {best:.2e} >= {DUAL_TOLERANCE:g} at tangent lines of every attempt"]


CHECKS = {
    "report": check_report,
    "dual": check_dual,
    "render": check_render,
    "assumptions": check_assumptions,
    "nofast": check_nofast,
    "verify": check_verify,
    "implicitize": check_implicitize,
}


def check_op(op, code: int, out) -> list:
    """Messages for one operation; ``out`` is its parsed JSON output."""
    if code != 0:
        if code in op.allowed_exit and isinstance(out, dict) and "error" in out:
            return []
        return [f"{op.label}: {op.kind} exited {code}: {out}"]
    return CHECKS[op.kind](op, out)


def _same_assumptions(base, other, op) -> list:
    errors: list = []
    for key in ("a1", "a2", "a3", "all_verified", "evidence"):
        _expect(errors, base[key] == other[key], f"{op.label}: {key} changes under translation")
    wb, wo = base.get("thin_witness"), other.get("thin_witness")
    if wb is None or wo is None:
        _expect(errors, wb == wo, f"{op.label}: thin witness changes under translation")
    else:
        shift = op.offset if wb["rotation_power"] == 0 else (0, 0)
        moved = [wb["translation"][0] + shift[0], wb["translation"][1] + shift[1]]
        _expect(
            errors,
            (wo["k"], wo["rotation_power"], wo["translation"]) == (wb["k"], wb["rotation_power"], moved),
            f"{op.label}: thin witness {wo} is not {wb} translated",
        )
    return errors


def _same_report(base, other, op) -> list:
    errors: list = []
    if op.role == "rotate":
        for key in ROTATION_INVARIANT:
            _expect(errors, base[key] == other[key], f"{op.label}: {key} changes under rotation")
        return errors
    for key in base:
        if key == "polygon":
            want = sorted(geom.translate(_pts(base[key]), op.offset))
            _expect(errors, sorted(_pts(other[key])) == want, f"{op.label}: polygon not translated")
        else:
            _expect(errors, base[key] == other[key], f"{op.label}: {key} changes under translation")
    return errors


def check_round(ops: list, outs: list) -> list:
    """Messages for checks across operations of one round.  ``outs[i]`` is
    the parsed output of ``ops[i]``, or None when that op failed."""
    errors: list = []
    groups: dict = {}
    for op, out in zip(ops, outs):
        if op.group and out is not None:
            groups.setdefault(op.group, []).append((op, out))
    for members in groups.values():
        base = {op.kind: out for op, out in members if op.role == "base"}
        for op, out in members:
            if op.kind == "report" and op.role != "base":
                errors += _same_report(base["report"], out, op)
            elif op.kind == "assumptions" and op.role != "base":
                errors += _same_assumptions(base["assumptions"], out, op)
            elif op.kind == "dual" and "report" in base:
                for key in ("dual_fan", "dual_polygon"):
                    _expect(errors, out[key] == base["report"][key], f"{op.label}: dual and report disagree on {key}")
            elif op.kind == "implicitize":
                _expect(
                    errors,
                    geom.same_up_to_translation(_pts(out["observed_polygon"]), _pts(base["dual"]["dual_polygon"])),
                    f"{op.label}: observed polygon {out['observed_polygon']} is not the dual polygon",
                )
    return errors
