#!/usr/bin/env python3
"""Steadiness check for the gmmu benchmark.

Runs two independent sets of untraced runs of the same build (each run
with its own seed) for every workload in BENCHMARK.json and reports, per
workload and end-to-end metric, each set's median and quartiles, the
spread (interquartile distance over the median) and whether the two sets
agree within the metric's bound:

  * every spread, setup_s's too, is within the bound, and
  * the two sets' medians differ by at most the bound, either way.

Set A uses seeds SEED_BASE .. SEED_BASE+runs-1, set B the next `runs`.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...] [--seconds S]

Exits 1 when any check fails or any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = 1000


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(argv)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"run reported a failed check: {' '.join(argv)}")
    return result["metrics"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("--workload", action="append",
                    help="workload to check (repeatable; default all)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # Build once so no run pays for compilation.
    subprocess.run(bench["command"] + ["--workload", names[0], "--seconds", "0.001"],
                   cwd=ROOT, capture_output=True, check=False)

    ok = True
    for name in names:
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = SEED_BASE + s * args.runs + i
                runs.append(run_once(bench["command"], name, seed, args.seconds))
            sets.append(runs)
        print(f"== {name}")
        print(f"{'metric':<20} {'set':<3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            meds = []
            for s, runs in enumerate(sets):
                values = [r[m["name"]]["value"] for r in runs]
                med, q1, q3 = summary(values)
                meds.append(med)
                spread = (q3 - q1) / med if med else 0.0
                within = spread <= m["bound"]
                ok &= within
                print(f"{m['name']:<20} {'AB'[s]:<3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {m['bound']:>6}  "
                      f"{'ok' if within else 'SPREAD OVER BOUND'}")
            drift = worse_by(meds[0], meds[1], m["better"])
            agree = abs(drift) <= m["bound"]
            ok &= agree
            print(f"{m['name']:<20} B vs A: worse by {drift:+.4f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
