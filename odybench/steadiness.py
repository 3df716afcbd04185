#!/usr/bin/env python3
"""Measures how steady odybench's end-to-end metrics are across seeds.

    python3 odybench/steadiness.py [--out odybench/steadiness.json]

Runs odybench/run.py --trace 0 at seeds 1-10 and at the held-out seed 1001 for
each workload in BENCHMARK.json, each run lasting its run_seconds.  For every
end-to-end metric it reports the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread over seeds 1-10:
the distance between the quartiles as a share of the median.  Every spread
must stay under the metric's bound; the benchmark aims for a third of it.

Every run must exit 0 and report correct.  Each run's simulated-output digest
is recorded per seed; run.py makes a later run at a recorded seed reproduce
it, so two passes whose digests differ fail.  A change that alters the
simulated output on purpose deletes steadiness.json and records a new pass.
The exit code is 1 when a spread exceeds its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
HELD_OUT_SEED = 1001


def run_once(workload, seed, seconds):
    """Returns the JSON result and the digest of one run."""
    command = [sys.executable, os.path.join(ROOT, "odybench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {result.returncode}:\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    if not report["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output")
    digest = re.search(r"digest=([0-9a-f]{16})", result.stdout).group(1)
    return report, digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="", help="write the record here as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"run_seconds": seconds, "runs": len(SEEDS), "held_out_seed": HELD_OUT_SEED,
              "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        digests = {}
        failed = attempted = 0
        for seed in SEEDS:
            report, digests[str(seed)] = run_once(workload, seed, seconds)
            failed += report["failed"]
            attempted += report["attempted"]
            for name in bounds:
                values[name].append(report["metrics"][name]["value"])
        held_out, digests[str(HELD_OUT_SEED)] = run_once(workload, HELD_OUT_SEED, seconds)
        entry = {"failed": failed, "attempted": attempted, "digests": digests, "metrics": {}}
        print(f"{workload}: failed {failed}/{attempted}")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "held_out": held_out["metrics"][name]["value"],
                "values": vals,
            }
            worst = max(worst, spread / bounds[name])
            print(f"  {name:14s} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f} (bound {bounds[name]})  "
                  f"held-out {held_out['metrics'][name]['value']:.6g}")
        record["workloads"][workload] = entry
    print(f"worst spread / bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
