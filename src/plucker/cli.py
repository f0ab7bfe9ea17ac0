"""Command-line front end: ``plucker COMMAND --polygon FILE [options]``, with
the commands report, dual, assumptions, verify, implicitize and render
(``plucker --help`` lists them).  Polygons are read as a JSON array of [x, y]
integer pairs (the convex hull is taken on parse).  ``--format`` defaults to
svg for render and text otherwise; ``--format json`` prints one compact line
with sorted keys (``python3 -m json.tool`` indents it), and exact rationals
as "p/q" strings so they never pass through floating JSON numbers.

``--coeff-bound`` defaults to 10 for verify and 1000 for implicitize.

Exit codes: 0 success, 2 parse/usage error, 3 verification mismatch (an
oracle count above the formula, or below it on every sample that
certified), 4 oracle degeneracy after retries.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Optional

from .assumptions import (
    DEFAULT_SEARCH_BUDGET,
    AssumptionReport,
    full_assumption_report,
)
from .formulas import PluckerReport, plucker_report
from .lattice import LatticePolygon, Point
from .oracle import (
    OracleConfig,
    RetriesExhaustedError,
    implicitize_dual,
    inflection_oracle,
    vertical_tangent_oracle,
)
from .render import svg_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_DEGENERATE = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def read_polygon(source: str) -> LatticePolygon:
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source) as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read polygon: {exc}", EXIT_PARSE)
    return parse_polygon(text)


def parse_polygon(text: str) -> LatticePolygon:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting recurses
        raise CliError(f"polygon is not valid JSON: {exc}", EXIT_PARSE)
    if not isinstance(data, list) or not data:
        raise CliError("polygon must be a nonempty JSON array of [x,y] pairs", EXIT_PARSE)
    pts = []
    for i, item in enumerate(data):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in item)
        ):
            # named by index and type: the item itself may be megabytes long
            raise CliError(f"bad vertex {i} ({type(item).__name__}): expected [x, y] integers", EXIT_PARSE)
        pts.append((item[0], item[1]))
    return LatticePolygon.hull(pts)


def frac_str(v) -> str:
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def count_json(v):
    """Integers as JSON numbers, non-integers as exact "p/q" strings."""
    f = Fraction(v)
    return int(f) if f.denominator == 1 else frac_str(f)


def fan_json(fan: dict[Point, int]) -> dict:
    return {f"{u},{v}": w for (u, v), w in sorted(fan.items())}


def _fan_text(fan: dict[Point, int]) -> str:
    return ", ".join(f"({u},{v}):{w}" for (u, v), w in sorted(fan.items()))


def polygon_json(P: LatticePolygon) -> list:
    return [[x, y] for x, y in P.vertices]


def report_json(r: PluckerReport) -> dict:
    return {
        "polygon": polygon_json(r.polygon),
        "vol": frac_str(r.vol),
        "inflections": r.inflections,
        "bitangents": count_json(r.bitangents),
        "dual_fan": fan_json(r.dual_fan),
        "dual_polygon": polygon_json(r.dual_polygon),
        "dual_vol": frac_str(r.dual_vol),
        "euler_char": r.euler_char,
        "genus": r.genus,
        "vertical_tangents": r.vertical_tangents,
    }


def assumptions_json(rep: AssumptionReport) -> dict:
    out = {
        "a1": rep.a1.value,
        "a2": rep.a2.value,
        "a3": rep.a3.value,
        "all_verified": rep.all_verified,
        "evidence": [list(e) for e in rep.evidence],
    }
    if rep.thin_witness is not None:
        w = rep.thin_witness
        out["thin_witness"] = {
            "k": w.k,
            "translation": list(w.translation),
            "rotation_power": w.rotation_power,
        }
    return out


def report_text(r: PluckerReport) -> str:
    return "\n".join([
        f"polygon            {list(r.polygon.vertices)}",
        f"vol                {r.vol}",
        f"inflections        {r.inflections}",
        f"bitangents         {r.bitangents}",
        f"dual fan           {_fan_text(r.dual_fan)}",
        f"dual polygon       {list(r.dual_polygon.vertices)}",
        f"dual vol           {r.dual_vol}",
        f"euler char         {r.euler_char}",
        f"genus              {r.genus}",
        f"vertical tangents  {r.vertical_tangents}",
    ])


def assumptions_text(rep: AssumptionReport) -> str:
    lines = [f"a1 {rep.a1.value}", f"a2 {rep.a2.value}", f"a3 {rep.a3.value}"]
    for name, k, outcome in rep.evidence:
        lines.append(f"  [{name} r^{k}] {outcome}")
    if rep.thin_witness is not None:
        w = rep.thin_witness
        lines.append(f"  thin witness: k={w.k} translation={w.translation} rotation={w.rotation_power}")
    return "\n".join(lines)


def _budget() -> int:
    raw = os.environ.get("PLUCKER_BUDGET")
    if raw is None:
        return DEFAULT_SEARCH_BUDGET
    try:
        budget = int(raw)
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise CliError(f"PLUCKER_BUDGET must be a nonnegative integer, got {raw!r}", EXIT_PARSE)


def _require_verified_or_advisory(P: LatticePolygon, args) -> AssumptionReport:
    rep = full_assumption_report(P, budget=_budget())
    if not rep.all_verified and not args.advisory:
        raise CliError(
            "assumptions not all Verified "
            f"(a1={rep.a1.value}, a2={rep.a2.value}, a3={rep.a3.value}); "
            "pass --advisory to run the oracle anyway",
            EXIT_PARSE,
        )
    return rep


# verify redraws a sample that counts short (_retry_samples), so it samples
# small coefficients; implicitize prints its sample's dual equation, and
# keeps OracleConfig's bound
_COEFF_BOUND = {"verify": 10}


def _oracle_config(args) -> OracleConfig:
    bound = args.coeff_bound
    if bound is None:
        bound = _COEFF_BOUND.get(args.command, OracleConfig.coeff_bound)
    return OracleConfig(seed=args.seed, coeff_bound=bound)


# each command returns (JSON payload, its text rendering on demand, exit code)
_Result = tuple[object, Callable[[], str], int]


def cmd_report(P: LatticePolygon, args) -> _Result:
    r = plucker_report(P)
    return report_json(r), lambda: report_text(r), EXIT_OK


def cmd_dual(P: LatticePolygon, args) -> _Result:
    r = plucker_report(P)
    payload = {
        "polygon": polygon_json(P),
        "dual_fan": fan_json(r.dual_fan),
        "dual_polygon": polygon_json(r.dual_polygon),
    }
    return payload, lambda: (
        f"dual fan      {_fan_text(r.dual_fan)}\ndual polygon  {list(r.dual_polygon.vertices)}"
    ), EXIT_OK


def cmd_assumptions(P: LatticePolygon, args) -> _Result:
    rep = full_assumption_report(P, budget=_budget())
    return assumptions_json(rep), lambda: assumptions_text(rep), EXIT_OK


def cmd_verify(P: LatticePolygon, args) -> _Result:
    # a line lies on its own Hessian curve, so no sample could be counted:
    # the report rejects it before the gate and the oracle
    r = plucker_report(P)
    arep = _require_verified_or_advisory(P, args)
    cfg = _oracle_config(args)
    checks = {}
    for name, formula, oracle in (
        ("inflections", r.inflections, inflection_oracle),
        ("vertical_tangents", r.vertical_tangents, vertical_tangent_oracle),
    ):
        # a certified count is at most the generic one (_retry_samples), so
        # the oracle redraws a sample that falls short of the formula
        samples: list = []
        count = oracle(P, cfg, reach=formula, samples=samples)
        checks[name] = {
            "formula": formula,
            "oracle": count,
            "match": formula == count,
            "mismatch": None if formula == count else "surplus" if count > formula else "deficit",
            "samples": [
                {"seed": seed, "count" if isinstance(outcome, int) else "degenerate": outcome}
                for seed, outcome in samples
            ],
        }
    ok = all(row["match"] for row in checks.values())
    payload = {
        "polygon": polygon_json(P),
        "assumptions": assumptions_json(arep),
        "checks": checks,
        "match": ok,
    }

    def text() -> str:
        lines = [
            f"{name:18} formula {row['formula']:4}  oracle {row['oracle']:4}  "
            + ("ok" if row["match"] else f"MISMATCH ({row['mismatch']})")
            for name, row in checks.items()
        ]
        return "\n".join(lines + ["PASS" if ok else "FAIL"])

    return payload, text, EXIT_OK if ok else EXIT_MISMATCH


def cmd_implicitize(P: LatticePolygon, args) -> _Result:
    plucker_report(P)  # a line has no dual curve to implicitize
    if args.advisory:
        _budget()  # the report is never printed, but a bad budget still exits 2
    else:
        _require_verified_or_advisory(P, args)
    poly, observed = implicitize_dual(P, _oracle_config(args))
    terms = sorted(poly.items())
    # exact integers, as [real, imaginary] pairs
    payload = {
        "polygon": polygon_json(P),
        "dual_coefficients": {f"{u},{v}": [c, 0] for (u, v), c in terms},
        "observed_polygon": polygon_json(observed),
    }

    def text() -> str:
        lines = [f"a^{u} b^{v}  {c:+d}" for (u, v), c in terms]
        return "\n".join(lines + [f"observed polygon {list(observed.vertices)}"])

    return payload, text, EXIT_OK


def cmd_render(P: LatticePolygon, args) -> _Result:
    r = plucker_report(P)
    svg = svg_report(P, r.dual_fan, r.dual_polygon)
    return {"svg": svg}, lambda: svg, EXIT_OK


_COMMANDS = {
    "report": (cmd_report, "all invariants of the polygon"),
    "dual": (cmd_dual, "dual tropical fan and dual Newton polygon"),
    "assumptions": (cmd_assumptions, "tri-state genericity verdicts with evidence"),
    "verify": (cmd_verify, "formula vs analytic oracle, side by side"),
    "implicitize": (cmd_implicitize, "exact integer equation of the dual curve"),
    "render": (cmd_render, "SVG picture of the polygon, fan and dual"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plucker", usage="%(prog)s COMMAND --polygon FILE [options]",
        description="Plucker-type invariants of a generic plane curve computed from\n"
        "its Newton polygon, with analytic cross-checks",
        formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument(
        "command",
        choices=_COMMANDS,
        metavar="COMMAND",
        help="\n".join(f"{name:12} {doc}" for name, (_, doc) in _COMMANDS.items()),
    )
    parser.add_argument(
        "--polygon", required=True, metavar="FILE", help="path to a JSON [[x,y],...] file, or - for stdin"
    )
    parser.add_argument("--seed", type=int, default=1, help="oracle RNG seed")
    parser.add_argument(
        "--coeff-bound",
        type=int,
        help="largest |coefficient| of the oracle's sampled curve;\n"
        f"default {_COEFF_BOUND['verify']} for verify, {OracleConfig.coeff_bound} for implicitize",
    )
    parser.add_argument(
        "--format", choices=("json", "text", "svg"), help="default svg for render, text otherwise"
    )
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument(
        "--advisory", action="store_true", help="run the oracle even when assumptions are not all Verified"
    )
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first run and kept for the process."""
    return build_parser()


def _result(args) -> tuple[str, int]:
    """The text to emit and the exit code of one parsed command line."""
    fmt = args.format or ("svg" if args.command == "render" else "text")
    if fmt == "svg" and args.command != "render":
        return "error: svg format is only available for render", EXIT_PARSE
    try:
        P = read_polygon(args.polygon)
        payload, render_text, code = _COMMANDS[args.command][0](P, args)
        # an int of more than sys.get_int_max_str_digits() digits raises
        # ValueError in either format
        return json.dumps(payload, sort_keys=True) if fmt == "json" else render_text(), code
    except (CliError, RetriesExhaustedError, ValueError) as exc:
        msg = str(exc)
        text = json.dumps({"error": msg}) if fmt == "json" else f"error: {msg}"
        if isinstance(exc, CliError):
            return text, exc.code
        return text, EXIT_DEGENERATE if isinstance(exc, RetriesExhaustedError) else EXIT_PARSE


def run(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    text, code = _result(args)
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
