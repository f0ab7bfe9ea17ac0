"""One fresh process of a benchmark run: set up, print READY, then (unless
``--setup-only``) time whole rounds of the workload's operations and print
one JSON line of results.

Set-up is everything a user pays before the first operation: importing
the program, building its argument parser and one warm-up call of each
operation kind the workload uses, timed from the moment the parent
process spawned this one.

Operation times are normalized to a reference machine speed.  The CPU of
a shared machine runs the same Python code up to 30 % slower or faster
from one second to the next, and the process's CPU time moves with it.
A fixed reference task of the benchmark's own (building and running a
small standard-library argument parser, ordinary interpreted Python like
most of the program), timed before and after every operation, tracks
that speed: each operation's wall time is scaled by REFERENCE_S over the
task's mean time around it.  On a machine where the task takes
REFERENCE_S the scaled and the raw times agree.
"""
import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


REFERENCE_S = 7.5e-4


def _reference_parse():
    p = argparse.ArgumentParser(prog="reference")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("a", "b", "c"):
        q = sub.add_parser(name)
        q.add_argument("--x", type=int, default=1)
        q.add_argument("--y", choices=("u", "v"), default="u")
    return p.parse_args(["b", "--x", "3"])


def reference_time():
    """The reference task's current duration: best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_parse()
        best = min(best, time.perf_counter() - start)
    return best


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True, help="time.time() of the spawn")
    return p.parse_args()


class Runner:
    """Calls the program in-process, the CLI through ``plucker.cli.run``."""

    def __init__(self):
        from plucker import cli
        from plucker.assumptions import full_assumption_report
        from plucker.lattice import LatticePolygon

        self.cli = cli
        self.full_report = full_assumption_report
        self.hull = LatticePolygon.hull
        cli.build_parser()

    def call(self, op):
        """(exit code, parsed output, seconds inside the program)."""
        if op.kind == "nofast":
            P = self.hull(op.points)
            start = time.perf_counter()
            rep = self.full_report(P, fast_path=False)
            seconds = time.perf_counter() - start
            out = {"a1": rep.a1.value, "a2": rep.a2.value, "a3": rep.a3.value, "all_verified": rep.all_verified}
            return 0, out, seconds
        argv = [op.kind, "--polygon", "-", "--format", "json", "--seed", str(op.seed)]
        if op.advisory:
            argv.append("--advisory")
        buf = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(json.dumps([list(p) for p in op.points]))
        try:
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                code = self.cli.run(argv)
                seconds = time.perf_counter() - start
        finally:
            sys.stdin = stdin
        return code, json.loads(buf.getvalue()), seconds


def run_round(runner, ops, checks, state):
    """One pass over the list; latencies and check messages go to ``state``."""
    outs = []
    before = reference_time()
    for i, op in enumerate(ops):
        try:
            code, out, seconds = runner.call(op)
        except Exception as exc:  # a traceback is a wrong output, not a crash of the benchmark
            code, out, seconds = -1, repr(exc), 0.0
        after = reference_time()
        state["latencies"].setdefault(i, []).append(seconds * 2 * REFERENCE_S / (before + after))
        state["raw_seconds"] += seconds
        before = after
        state["attempted"] += 1
        if code != 0:
            state["failed"] += 1
        state["errors"] += checks.check_op(op, code, out)
        outs.append(out if code == 0 else None)
    state["errors"] += checks.check_round(ops, outs)


def new_state():
    return {"latencies": {}, "raw_seconds": 0.0, "attempted": 0, "failed": 0, "errors": []}


def ops_per_s(state):
    return state["attempted"] / sum(sum(v) for v in state["latencies"].values())


def latency_p50(state):
    """Latency of the median operation of the list, each operation taken
    at its median over the rounds.  Every run weighs every operation the
    same, so the figure cannot jump between cost groups of the list."""
    return statistics.median(statistics.median(v) for v in state["latencies"].values())


def main():
    args = parse_args()
    if args.trace:
        start = time.perf_counter()
        import sympy  # noqa: F401  (its import cost is a set-up layer of its own)

        sympy_ms = 1000.0 * (time.perf_counter() - start)
    import workloads

    runner = Runner()
    for op in workloads.WARMUP[args.workload]:
        code, out, _ = runner.call(op)
        if code != 0:
            raise SystemExit(f"warm-up {op.kind} exited {code}: {out}")
    print(f"READY {time.time() - args.spawned_at!r}", flush=True)
    if args.setup_only:
        return

    import checks

    ops = workloads.WORKLOADS[args.workload](args.seed)
    plain = new_state()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced = new_state()
        start = time.perf_counter()
        # untraced and traced rounds alternate so that both see the same machine
        while not plain["attempted"] or time.perf_counter() - start < args.seconds:
            run_round(runner, ops, checks, plain)
            tracer.install()
            try:
                run_round(runner, ops, checks, traced)
            finally:
                tracer.uninstall()
        metrics = tracer.metrics(traced["attempted"])
        metrics["setup.sympy_import.ms"] = {"value": sympy_ms, "unit": "ms"}
        overhead = 100.0 * (1.0 - ops_per_s(traced) / ops_per_s(plain))
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        errors = plain["errors"] + traced["errors"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    else:
        start = time.perf_counter()
        while not plain["attempted"] or time.perf_counter() - start < args.seconds:
            run_round(runner, ops, checks, plain)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": {"value": ops_per_s(plain), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000.0 * latency_p50(plain), "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        errors, attempted, failed = plain["errors"], plain["attempted"], plain["failed"]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": errors[:20],
        "rounds": attempted // len(ops),
        "ops_per_round": len(ops),
        "raw_ops_per_s": plain["attempted"] / plain["raw_seconds"],
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
