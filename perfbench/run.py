"""Benchmark of the plucker CLI, end to end and per layer.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``;
there is nothing to build beyond byte-compiling it.  With ``--trace 0``
the run spawns SETUPS fresh interpreters one after another, times each
from spawn to ready, and lets the last one time whole rounds of the
workload for ``--seconds``.  With ``--trace 1`` one process alternates
untraced and traced rounds and reports per-layer counters.  The last line
of standard output is the JSON result; a copy goes to ``.perfbench/``.
"""
import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 5
TIMEOUT_S = 170.0
# One process, no pool, and native libraries held to one thread each.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("survey", "battery", "verify", "dualfit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def spawn(args, deadline, setup_only):
    """Run one worker; return (its set-up seconds, its last output line)."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=dict(os.environ, **CHILD_ENV))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("benchmark worker overran its time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return float(lines[0].split()[1]), lines[-1]


def main():
    args = parse_args()
    deadline = time.monotonic() + TIMEOUT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "plucker", "cli.py")):
        print("perfbench: src/plucker is missing; run from the root of a plucker checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src", "plucker"), quiet=1)
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(spawn(args, deadline, setup_only=True)[0])
    setup_s, line = spawn(args, deadline, setup_only=False)
    setups.append(setup_s)
    child = json.loads(line)
    metrics = child["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for message in child["errors"]:
        print("check failed:", message, file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {child['rounds']} rounds of "
        f"{child['ops_per_round']} ops, {child['attempted']} attempted, {child['failed']} failed; "
        f"{child['raw_ops_per_s']:.4f} ops/s before normalization"
    )
    for name, m in sorted(metrics.items()):
        print(f"  {name:36} {m['value']:14.4f} {m['unit']}")
    result = {k: child[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
