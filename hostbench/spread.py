#!/usr/bin/env python3
"""Spread report: repeat benchmark runs back to back, one seed each.

    python3 hostbench/spread.py --workload saturated_horizon --runs 10 \
        [--first-seed 1] [--seconds 40] [--trace 0]

Runs hostbench/run.py --runs times per workload with seeds first-seed,
first-seed + 1, ... and prints, for every metric, the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median
and, for end-to-end metrics, the bound from BENCHMARK.json. A spread above a
third of its bound is flagged. Failed operations are summed per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("run.py failed for %s seed %d" % (workload, seed))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workload:
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.first_seed + i, seconds,
                                    args.trace))
            print("%s seed %d: %s" % (
                workload, args.first_seed + i,
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in results[-1]["metrics"].items()
                         if k in bounds)), flush=True)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print("== %s: %d runs, %d of %d operations failed" % (
            workload, len(results), failed, attempted))
        print("%-36s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = " <-- over bound/3" if bound and spread > bound / 3 else ""
            print("%-36s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                name, median, q1, q3, spread,
                "" if bound is None else "%.2f" % bound, flag))


if __name__ == "__main__":
    main()
