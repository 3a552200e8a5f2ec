#!/usr/bin/env python3
"""A/A mode: two interleaved sets of runs of the same build.

Runs the command in BENCHMARK.json from the repository root, alternating
set A and set B, each run with its own seed: 1, 2, ... in both sets. It
prints every run's values, then for each workload and end-to-end metric
each set's median and quartiles, the spread (interquartile distance over
the median), and whether the two medians agree within the metric's bound.

    python3 perfbench/aa.py --runs 5                  # BENCHMARK.json workloads, two sets
    python3 perfbench/aa.py --runs 10 --sets 1 --workload compile

With --sets 1 it makes one set only, which is the ten-seed spread check.
It exits nonzero when a run fails, a spread exceeds its bound, or two sets
disagree by more than a bound. setup_s is exempt from the spread check
only: a run sets up only three times, too few for a steady per-run median
(its shift between sets is still checked).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workload", action="append", help="repeatable; default: those in BENCHMARK.json")
    opts = parser.parse_args()
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        sets = [[] for _ in range(opts.sets)]
        for seed in range(1, opts.runs + 1):
            for s in range(opts.sets):
                values = run_once(bench["command"], workload, seed, bench['run_seconds'])
                sets[s].append(values)
                print(f"  {workload} set {'AB'[s]} seed {seed}: "
                      + " ".join(f"{n}={v:.6g}" for n, v in values.items()), flush=True)
        print(f"\n{workload}: {opts.runs} runs per set, {bench['run_seconds']} s each", flush=True)
        for name, bound in bounds.items():
            cells = []
            stats = [describe([r[name] for r in runs]) for runs in sets]
            for label, (med, q1, q3, spread) in zip("AB", stats):
                flag = "" if name == "setup_s" or spread <= bound else " SPREAD>BOUND"
                ok &= not flag
                cells.append(f"{label}: {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}{flag}")
            if len(stats) == 2:
                shift = abs(stats[1][0] - stats[0][0]) / stats[0][0]
                agree = shift <= bound
                ok &= agree
                cells.append(f"shift {shift:.3f} {'agree' if agree else 'DISAGREE'}")
            print(f"  {name:<12} bound {bound:<5} " + " | ".join(cells), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
