"""Self-test of the output checks: right outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Outputs come from the program itself, on a few cheap inputs of each
workload; every case then corrupts one field the way a bug would and
requires the checks to reject it.  Exits 1 if any case goes the wrong way.
"""
import copy
import sys

import worker  # puts src/ and this directory on sys.path
import checks
from workloads import FIVE_DELTA, Op, delta, rect, thin_triangle, tri, translate


def run(runner, op):
    code, out, _ = runner.call(op)
    return code, out


def main():
    runner = worker.Runner()
    cases = []  # (name, messages, expect_rejection)

    def case(name, messages, reject=True):
        cases.append((name, messages, reject))

    # survey
    d3 = Op("3Delta", "report", tuple(translate(delta(3), (7, -4))), family=("dD", 3))
    _, rep = run(runner, d3)
    case("report on 3Delta passes", checks.check_op(d3, 0, rep), reject=False)
    bad = copy.deepcopy(rep)
    bad["inflections"] += 1
    case("inflection count off by one", checks.check_op(d3, 0, bad))
    bad = copy.deepcopy(rep)
    bad["bitangents"] = 1
    case("bitangent count changed", checks.check_op(d3, 0, bad))
    bad = copy.deepcopy(rep)
    ray = next(iter(bad["dual_fan"]))
    bad["dual_fan"][ray] += 1
    case("dual edge lengthened by one in the fan", checks.check_op(d3, 0, bad))
    bad = copy.deepcopy(rep)
    x, y = bad["dual_polygon"][1]
    bad["dual_polygon"][1] = [x + 1, y]
    case("dual polygon vertex moved", checks.check_op(d3, 0, bad))
    for key, delta_value in (("genus", 1), ("euler_char", -1), ("vertical_tangents", 1)):
        bad = copy.deepcopy(rep)
        bad[key] += delta_value
        case(f"{key} changed", checks.check_op(d3, 0, bad))
    bad = copy.deepcopy(rep)
    bad["vol"] = "5/1"
    case("vol changed", checks.check_op(d3, 0, bad))
    bad = copy.deepcopy(rep)
    bad["dual_vol"] = "19/1"
    case("dual_vol changed", checks.check_op(d3, 0, bad))

    pent = [(0, 0), (3, 0), (4, 2), (2, 4), (0, 3)]
    group = [
        Op("p", "report", tuple(pent), group="g"),
        Op("p+t", "report", tuple(translate(pent, (5, 9))), group="g", role="translate", offset=(5, 9)),
        Op("p-rot", "report", tuple((b, -a - b) for a, b in pent), group="g", role="rotate"),
        Op("p", "dual", tuple(pent), group="g"),
    ]
    outs = [run(runner, op)[1] for op in group]
    case("translation and rotation group passes", checks.check_round(group, outs), reject=False)
    for i, key in ((1, "vertical_tangents"), (2, "bitangents"), (3, "dual_fan")):
        bad = copy.deepcopy(outs)
        if key == "dual_fan":
            ray = next(iter(bad[i][key]))
            bad[i][key][ray] += 1
        else:
            bad[i][key] = 0
        case(f"{group[i].role} {group[i].kind} disagrees on {key}", checks.check_round(group, bad))

    svg_op = Op("2Delta", "render", tuple(delta(2)))
    _, svg = run(runner, svg_op)
    case("render passes", checks.check_op(svg_op, 0, svg), reject=False)
    case("render output cut short", checks.check_op(svg_op, 0, {"svg": svg["svg"][:-10]}))

    # battery
    thin = Op("thin2r", "assumptions", tuple((b, -a - b) for a, b in thin_triangle(2)), family=("thin", 2))
    _, a_thin = run(runner, thin)
    case("thin triangle passes", checks.check_op(thin, 0, a_thin), reject=False)
    bad = dict(a_thin, a2="Verified")
    case("thin triangle verdict flipped", checks.check_op(thin, 0, bad))
    bad = copy.deepcopy(a_thin)
    bad["thin_witness"]["k"] = 3
    case("thin witness k wrong", checks.check_op(thin, 0, bad))
    r23 = Op("rect2x3", "assumptions", tuple(rect(2, 3)))
    _, a_rect = run(runner, r23)
    case("rect2x3 passes", checks.check_op(r23, 0, a_rect), reject=False)
    case("non-thin polygon FailsKnown", checks.check_op(r23, 0, dict(a_rect, a2="FailsKnown", all_verified=False)))
    case("all_verified contradicts verdicts", checks.check_op(r23, 0, dict(a_rect, all_verified=False)))
    pair = [
        Op("t", "assumptions", tuple(thin_triangle(1)), group="h"),
        Op("t+t", "assumptions", tuple(translate(thin_triangle(1), (3, 2))), group="h", role="translate", offset=(3, 2)),
    ]
    pouts = [run(runner, op)[1] for op in pair]
    case("translated battery pair passes", checks.check_round(pair, pouts), reject=False)
    bad = copy.deepcopy(pouts)
    bad[1]["evidence"][0][2] = "something else"
    case("evidence changes under translation", checks.check_round(pair, bad))
    bad = copy.deepcopy(pouts)
    bad[1]["thin_witness"]["translation"][0] += 1
    case("witness translation not moved with the input", checks.check_round(pair, bad))
    nofast = Op("5Delta-in", "nofast", tuple(FIVE_DELTA))
    _, nf = run(runner, nofast)
    case("battery without fast path passes", checks.check_op(nofast, 0, nf), reject=False)
    case("battery without fast path not all Verified", checks.check_op(nofast, 0, dict(nf, all_verified=False)))

    # verify
    ver = Op("rect2x3@1", "verify", tuple(rect(2, 3)), seed=1, family=("rect", 2, 3))
    code, v = run(runner, ver)
    case("verify passes", checks.check_op(ver, code, v), reject=False)
    bad = copy.deepcopy(v)
    bad["checks"]["inflections"]["oracle"] += 1
    case("oracle inflection count off by one", checks.check_op(ver, 0, bad))
    bad = copy.deepcopy(v)
    for row in bad["checks"].values():
        row["formula"] += 1
        row["oracle"] += 1
    case("formula and oracle both off by one", checks.check_op(ver, 0, bad))
    case("verify mismatch exit", checks.check_op(ver, 3, dict(v, match=False)))

    # dualfit
    label = "tri2,3"
    moved = tuple(translate(tri(2, 3), (-8, 3)))
    fit = [
        Op(label, "dual", moved, group=label),
        Op(label + "@2", "implicitize", moved, seed=2, advisory=True, group=label),
    ]
    fouts = [run(runner, op)[1] for op in fit]
    case("implicitize passes", checks.check_op(fit[1], 0, fouts[1]) + checks.check_round(fit, fouts), reject=False)
    bad = copy.deepcopy(fouts)
    bad[1]["observed_polygon"] = bad[1]["observed_polygon"][:-1]
    case("observed polygon lost a vertex", checks.check_round(fit, bad))
    bad = copy.deepcopy(fouts[1])
    coeffs = bad["dual_coefficients"]
    key = max(coeffs, key=lambda k: abs(complex(*coeffs[k])))
    first = next(iter(coeffs))
    coeffs[first][0] += 0.01 * abs(complex(*coeffs[key]))
    case("dual coefficient moved by 1 % of the largest", checks.check_op(fit[1], 0, bad))
    case("implicitize exit 4 where it is not expected", checks.check_op(fit[1], 4, {"error": "kernel"}))
    faulty = Op("quad@1", "implicitize", ((0, 0), (2, 0), (3, 1), (3, 2)), seed=1, allowed_exit=frozenset({4}))
    case("known-faulty op exiting 4 is counted, not wrong", checks.check_op(faulty, 4, {"error": "kernel"}), reject=False)
    case("known-faulty op with another exit code", checks.check_op(faulty, 2, {"error": "usage"}))

    wrong = 0
    for name, messages, reject in cases:
        ok = bool(messages) == reject
        wrong += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {messages}"))
    print(f"{len(cases) - wrong}/{len(cases)} cases as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
