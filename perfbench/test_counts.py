#!/usr/bin/env python3
"""Check the benchmark's metric list and that its exact counts repeat.

    python3 perfbench/test_counts.py

Runs every workload in BENCHMARK.json twice with one seed and once
with a second seed, untraced and traced, each with a short timed
phase. Every run must check out (correct, no failed ops) and report
exactly the metrics BENCHMARK.json lists for it -- the end-to-end ones
untraced, the per-layer ones traced -- each with its listed unit.
Every metric whose unit marks it as an exact count (cycles, bits,
bytes, count) must be identical between the two same-seed runs.
Counts do not depend on the run length, so a short phase suffices.
Exits 1 on any difference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = {"cycles", "bits", "bytes", "count"}
RUN_SECONDS = 1


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"outputs did not check out")
    return result["metrics"]


def unit_errors(metrics, listed):
    """Names missing, unlisted or with another unit than listed."""
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: m["unit"] for k, m in metrics.items()}
    errs = [f"missing {k}" for k in want if k not in got]
    errs += [f"unlisted {k}" for k in got if k not in want]
    errs += [f"{k} in {got[k]}, listed in {want[k]}"
             for k in want if k in got and got[k] != want[k]]
    return errs


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = {0: bench["end_to_end"], 1: bench["per_layer"]}

    bad = 0
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            before = bad
            a = run(w, 11, trace)
            b = run(w, 11, trace)
            c = run(w, 29, trace)
            for m in (a, b, c):
                for e in unit_errors(m, listed[trace]):
                    print(f"FAIL {w} trace={trace}: {e}")
                    bad += 1
            counts = [k for k, m in a.items() if m["unit"] in COUNT_UNITS]
            for k in counts:
                if a[k]["value"] != b[k]["value"]:
                    print(f"FAIL {w} trace={trace} {k}: "
                          f"{a[k]['value']} != {b[k]['value']}")
                    bad += 1
            if bad == before:
                print(f"ok   {w} trace={trace}: {len(a)} metrics as "
                      f"listed, {len(counts)} counts repeat exactly; "
                      f"second seed checks out")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
