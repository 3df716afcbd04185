#!/usr/bin/env python3
"""Builds odybench from the checkout's sources and runs one workload.

    python3 odybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 odybench/run.py --selftest

The build goes to .bench_build/ at the root of the checkout (configured once,
then brought up to date before every run; the first build takes about a
minute on four cores).  Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result.  With --trace 1 the span
file is written to .bench_build/spans-<workload>.jsonl.  When
odybench/steadiness.json records a digest for the workload at this seed, the
run must reproduce it.  The exit code is the benchmark's, or non-zero if the
build fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "odybench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
STEADINESS = os.path.join(BENCH_DIR, "steadiness.json")
# A run must end within 180 s; the benchmark itself stops well before this.
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds |target|; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("odybench: no Odyssey sources next to odybench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        # Runs sharing a checkout build one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
        for step in steps:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                sys.exit(f"odybench: build step failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, target)


def recorded_digest(workload, seed):
    """The digest steadiness.json records for |workload| at |seed|, or None."""
    if not os.path.isfile(STEADINESS):
        return None
    with open(STEADINESS) as f:
        record = json.load(f)
    return record["workloads"].get(workload, {}).get("digests", {}).get(str(seed))


def run(command):
    """Runs |command| with stdout passed through; returns its exit code."""
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"odybench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="build and run the self-tests")
    args = parser.parse_args()
    if args.selftest:
        return run([build("odybench_selftest")])
    if not args.workload:
        parser.error("--workload is required")
    command = [
        build("odybench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace == 1:
        command += ["--spans-out", os.path.join(BUILD_DIR, f"spans-{args.workload}.jsonl")]
    digest = recorded_digest(args.workload, args.seed)
    if digest is not None:
        command += ["--expect-digest", digest]
    return run(command)


if __name__ == "__main__":
    sys.exit(main())
