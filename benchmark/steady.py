#!/usr/bin/env python3
"""Steadiness mode: run every workload of BENCHMARK.json repeatedly, each
run with its own seed, and report for each end-to-end metric the median,
the quartiles and the spread (interquartile distance over the median),
next to the host steal share of each run.

A metric whose spread exceeds its bound is flagged FAIL; one above a
third of its bound is flagged WIDE (steady enough to be accepted, not
enough to resolve a change the size of its bound).

Run from the root of the repository:

    python3 benchmark/steady.py                  # 10 runs of every workload
    python3 benchmark/steady.py --runs 5 --workloads holm-tcp
    python3 benchmark/steady.py --first-seed 101  # a second set of seeds
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    """One benchmark run; returns (result object, steal share)."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    steal = float("nan")
    for line in lines:
        if line.startswith("info: host.steal_frac = "):
            steal = float(line.split("=")[1].split()[0])
    return json.loads(lines[-1]), steal


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in names}
    steals = {w: [] for w in names}
    failures = 0
    # Workloads take turns, so a noisy stretch of the host is spread over
    # all of them instead of landing on one.
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in names:
            result, steal = run_once(spec["command"], w, seed, spec["run_seconds"])
            steals[w].append(steal)
            if not result["correct"] or result["failed"]:
                failures += 1
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m}={values[w][m][-1]:.4g}" for m in bounds) + f", steal={steal:.3f}",
                flush=True)

    flagged = 0
    print()
    print(f"{'workload':<10} {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in names:
        for m, bound in bounds.items():
            v = values[w][m]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            if spread > bound:
                verdict, flagged = "FAIL", flagged + 1
            elif spread > bound / 3:
                verdict = "WIDE"
            else:
                verdict = "ok"
            print(f"{w:<10} {m:<14} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>7.3f} {bound:>6.2f}  {verdict}")
        s = steals[w]
        print(f"{w:<10} {'host.steal':<14} {statistics.median(s):>10.3f} "
              f"{min(s):>10.3f} {max(s):>10.3f}")
    if failures or flagged:
        print(f"\n{failures} run(s) with failed checks, {flagged} metric(s) over their bound")
        sys.exit(1)


if __name__ == "__main__":
    main()
