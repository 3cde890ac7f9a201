#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 e2ebench/steadiness.py [--workload W ...] [--runs 10] [--seconds S]

Runs two sets of --runs runs of the same build on each workload, each run
with its own seed (set A seeds 1.., set B seeds 101..), alternating which
set goes first in each pair. For every end-to-end metric in BENCHMARK.json
it prints each set's median and quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median next to the metric's bound, and how far set B's
median is worse than set A's. It also compares the share of failed
operations between the sets. The exit code is 1 when any spread exceeds its
bound, any median drifts past its bound, or the failed shares differ. Run it
from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, seed, seconds):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        help="workload to check (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    steady = True
    for workload in workloads:
        sets = [[], []]
        for i in range(args.runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[s].append(run(spec, workload, 1 + 100 * s + i,
                                   args.seconds))
        print(f"\n{workload}: {args.runs} runs per set, {args.seconds} s each")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"  failed share of attempted: {sorted(shares)}")
        steady = steady and len(shares) == 1
        print(f"  {'metric':28} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>7} {'bound':>6} {'worse':>7}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary(
                    [r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                worse = ""
                if s == 1:
                    delta = (med - meds[0]) / meds[0] if meds[0] else 0.0
                    delta = -delta if m["better"] == "higher" else delta
                    worse = f"{delta:+7.3f}"
                    steady = steady and delta <= bound
                flag = ""
                if spread > bound:
                    flag = "  over bound"
                    steady = False
                elif spread > bound / 3:
                    flag = "  over bound/3"
                print(f"  {name:28} {'AB'[s]:>3} {med:14.6g} {q1:14.6g} "
                      f"{q3:14.6g} {spread:7.3f} {bound:6.2f} {worse:>7}{flag}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
