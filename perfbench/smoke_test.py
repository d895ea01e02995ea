#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at reduced size (--size smoke), untraced and traced,
and checks that each run is correct with no failed operation and prints
every metric BENCHMARK.json declares with a unit and a finite value
(end-to-end metrics must also be non-zero). Then runs once with --perturb,
which corrupts one MRBC score, and checks that the wrong score is counted
as a failure. Exits non-zero on the first problem.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    if perturb:
        cmd.append("--perturb")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"FAIL {workload} trace={trace}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"FAIL {workload}: unexpected result keys {sorted(result)}")
    return result


def check_metrics(workload, trace, result, declared):
    got = result["metrics"]
    for name in declared:
        m = got.get(name)
        if m is None or not m.get("unit"):
            raise SystemExit(f"FAIL {workload} trace={trace}: {name} not printed with a unit")
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise SystemExit(f"FAIL {workload}: {name} = {v!r} is not a finite number")
        if not trace and v == 0:
            raise SystemExit(f"FAIL {workload}: end-to-end metric {name} is 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    for w in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, e2e), (1, layers)):
            r = run(w, trace)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                raise SystemExit(f"FAIL {w} trace={trace}: correct={r['correct']} "
                                 f"attempted={r['attempted']} failed={r['failed']}")
            check_metrics(w, trace, r, declared)
            print(f"ok   {w} trace={trace}: {len(r['metrics'])} metrics, "
                  f"{r['attempted']} operations checked")
    r = run("rmat-skew", 0, perturb=True)
    if r["correct"] or r["failed"] < 1:
        raise SystemExit(f"FAIL perturbed score not counted: correct={r['correct']} "
                         f"failed={r['failed']}")
    print(f"ok   perturbed MRBC score counted: {r['failed']} of {r['attempted']} failed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
