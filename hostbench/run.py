#!/usr/bin/env python3
"""Host-cost benchmark of the wtpg_sched simulator: build, run, check, report.

Run from the root of a source tree:

    python3 hostbench/run.py --workload saturated_horizon --seed 1 \
        --seconds 40 --trace 0

Builds hostbench/ (which compiles ../src) into $CARGO_TARGET_DIR/hostbench,
or .bench_build/hostbench when that variable is unset, runs one workload for
--seconds of host time and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones (see BENCHMARK.json and
hostbench/layer_map.json). Lines before it carry the build stamp, the
fidelity line of paper_rt70 and every failed check.

On the seeds recorded in hostbench/expected.json each run's simulated
outcome must equal the recorded one; --record rewrites those entries for the
given seed instead of checking them.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_rt70", "saturated_horizon", "openworld_observed")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")


def fail(message):
    print("hostbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a source tree" % ROOT)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "hostbench")


def load_expected():
    if not os.path.isfile(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f)


def check_recorded(workload, seed, outcomes, expected):
    """Returns the run ids whose outcome differs from the recorded one."""
    recorded = expected.get(workload, {}).get(str(seed), {})
    return sorted(run for run, outcome in outcomes.items()
                  if run in recorded and recorded[run] != outcome)


def record(workload, seed, outcomes):
    expected = load_expected()
    entry = expected.setdefault(workload, {}).setdefault(str(seed), {})
    entry.update(outcomes)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's outcomes in expected.json")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    out = build_dir()
    binary = build(out)
    proc = subprocess.run(
        [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
         "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
         "--out-dir=" + os.path.join(out, "out")],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark program exited with status %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    if args.record:
        record(args.workload, args.seed, report["outcomes"])
    mismatched = check_recorded(args.workload, args.seed, report["outcomes"],
                                load_expected())
    failures = report["failures"] + [
        run + ": simulated outcome differs from expected.json"
        for run in mismatched]
    attempted = report["attempted"]
    failed = min(attempted, report["failed"] + len(mismatched))

    metrics = report["metrics"]
    if list(metrics) != declared_metrics(args.trace):
        fail("reported metrics do not match BENCHMARK.json")
    for failure in failures:
        print("FAILED: " + failure)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
