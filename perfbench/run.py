#!/usr/bin/env python3
"""Repository benchmark: builds perfbench, runs it on one workload for a
fixed time and prints every metric by name with its unit.

    python3 perfbench/run.py --workload rmat-skew|road-deep \
        --seed N --seconds S --trace 0|1 [--size full|smoke] [--perturb]

The last line of standard output is one JSON object:
    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}
With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
declares (tracing off); with --trace 1 they are its per-layer metrics, from
a traced run. The names and units are read from BENCHMARK.json. The
measuring, checking and reducing happen in the perfbench program; see
perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_LIMIT_S = 175  # the program is killed past this; a run must end within 180 s

_child = None  # the running child process, killed and reaped on SIGTERM/SIGINT


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout=None, capture=False):
    """Runs cmd to completion; returns (exit code, stdout), or (None, None)
    after killing and reaping it when it outlives `timeout` seconds."""
    global _child
    _child = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
        return _child.returncode, out
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        return None, None
    finally:
        _child = None


def on_signal(signum, _frame):
    if _child is not None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def build():
    """Configures (once) and builds the program; output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "3"])
    return all(run_child(cmd)[0] == 0 for cmd in steps) and os.path.exists(BINARY)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one MRBC score (the smoke test's failure check)")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    declared = bench["per_layer" if args.trace else "end_to_end"]

    if not build():
        log("perfbench: build failed")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.perturb:
        cmd.append("--perturb")
    code, out = run_child(cmd, timeout=RUN_LIMIT_S, capture=True)
    try:
        result = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
    except (ValueError, IndexError):
        result = None
    if result is None:
        log(f"perfbench: the program {'timed out' if code is None else f'exited with {code}'}"
            " or printed no result")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    got = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in got]
    if missing:
        log(f"perfbench: the program did not report {', '.join(missing)}")
        return 1
    metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{int(result['rounds'])} rounds (each engine call and each of the "
          f"{int(result['ingest_batches'])} streamed batches timed once per round), {attempted} checks, "
          f"worst relative score gap {result['worst_rel_gap']:.3g}")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
