#!/usr/bin/env python3
"""End-to-end checks for the ody_bench CLI.

Drives the installed binary the way CI does: runs the smoke campaign at two
job counts and byte-compares the artifacts and traces, renders an artifact
as tables, then exercises the compare gate's exit codes — pass on identical
artifacts, fail on a synthetically regressed baseline, usage errors on
garbage.  Both tools must refuse a seed that is not plain decimal, and a
failed artifact write must exit 2.  The full campaign at one trial per cell
must equal tests/golden/BENCH_full_cap1.json byte for byte, which pins every
paper cell; after an intentional behaviour change, regenerate it with
ODY_REGEN_GOLDEN=1.

Usage: ody_bench_cli_test.py <path-to-ody_bench> <path-to-ody_fuzz>
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FAILURES = []
GOLDEN_FULL = Path(__file__).resolve().parent / "golden" / "BENCH_full_cap1.json"


def check(name, ok, detail=""):
    tag = "ok" if ok else "FAIL"
    print(f"{tag:4} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def run(program, *args, cwd=None):
    return subprocess.run([str(program), *args], capture_output=True, text=True, cwd=cwd)


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} <path-to-ody_bench> <path-to-ody_fuzz>", file=sys.stderr)
        return 2
    bench = Path(sys.argv[1]).resolve()
    fuzz = Path(sys.argv[2]).resolve()

    with tempfile.TemporaryDirectory(prefix="ody_bench_cli_") as tmp:
        tmp = Path(tmp)
        a = tmp / "smoke_j1.json"
        b = tmp / "smoke_j2.json"

        result = run(bench, "list")
        check("list exits 0", result.returncode == 0, result.stderr)
        check("list names tier1", "tier1" in result.stdout)
        check("list names scenarios", "fig08_supply_agility" in result.stdout)

        trace_a = tmp / "trace_j1.json"
        trace_b = tmp / "trace_j4.json"
        result = run(
            bench, "run", "--campaign=smoke", "--jobs=1", f"--out={a}", f"--trace-out={trace_a}"
        )
        check("run --jobs=1 exits 0", result.returncode == 0, result.stderr)
        result = run(bench, "run", "--campaign=smoke", "--jobs=2", f"--out={b}")
        check("run --jobs=2 exits 0", result.returncode == 0, result.stderr)
        check(
            "artifacts are byte-identical across job counts",
            a.read_bytes() == b.read_bytes(),
        )
        result = run(
            bench, "run", "--campaign=smoke", "--jobs=4", f"--out={tmp / 'smoke_j4.json'}",
            f"--trace-out={trace_b}",
        )
        check("run --jobs=4 --trace-out exits 0", result.returncode == 0, result.stderr)
        check("trace is written", trace_a.is_file() and trace_a.stat().st_size > 0)
        check(
            "traces are byte-identical across job counts",
            trace_a.is_file() and trace_b.is_file()
            and trace_a.read_bytes() == trace_b.read_bytes(),
        )

        result = run(bench, "table", f"--artifact={a}")
        check("table exits 0", result.returncode == 0, result.stderr)
        check("table names the scenario", "fig08_supply_agility" in result.stdout)

        # The default output name is BENCH_<campaign>.json in the cwd.
        result = run(bench, "run", "--campaign=smoke", cwd=tmp)
        check("run with default --out exits 0", result.returncode == 0, result.stderr)
        check("default artifact name", (tmp / "BENCH_smoke.json").is_file())

        full = tmp / "full_cap1.json"
        result = run(
            bench, "run", "--campaign=full", "--trials-cap=1", "--jobs=2",
            f"--out={tmp / 'full_cap1_wall.json'}", f"--strip-wall-out={full}",
        )
        check("run --campaign=full --trials-cap=1 exits 0", result.returncode == 0, result.stderr)
        if os.environ.get("ODY_REGEN_GOLDEN") is not None:
            GOLDEN_FULL.write_bytes(full.read_bytes())
            print(f"regenerated {GOLDEN_FULL}")
        check(
            "full campaign at one trial matches the golden",
            full.is_file() and full.read_bytes() == GOLDEN_FULL.read_bytes(),
            "regenerate with ODY_REGEN_GOLDEN=1 if the change is intentional",
        )

        result = run(bench, "compare", f"--baseline={a}", f"--current={b}")
        check("compare identical artifacts exits 0", result.returncode == 0, result.stderr)

        # A baseline whose lower-is-better mean is 20% below today's value
        # must fail the gate at 5% tolerance: the CLI is the CI gate, so the
        # nonzero exit is the contract.
        artifact = json.loads(a.read_text())
        regressed = False
        for metric in artifact["metrics"]:
            if metric["direction"] == "lower" and metric["mean"] > 0:
                metric["mean"] *= 0.8
                regressed = True
        check("smoke artifact has gateable metrics", regressed)
        baseline = tmp / "regressed_baseline.json"
        baseline.write_text(json.dumps(artifact))
        result = run(bench, "compare", f"--baseline={baseline}", f"--current={a}")
        check("compare regressed baseline exits 1", result.returncode == 1, result.stdout)
        check("compare reports the regression", "REGRESSED" in result.stdout)
        result = run(
            bench, "compare", f"--baseline={baseline}", f"--current={a}", "--tolerance=50"
        )
        check("loose tolerance passes the same delta", result.returncode == 0, result.stdout)
        # A non-finite allowance would pass every row; it is a usage error.
        for tolerance in ("nan", "inf", "1e999"):
            result = run(
                bench, "compare", f"--baseline={baseline}", f"--current={a}",
                f"--tolerance={tolerance}",
            )
            check(f"compare --tolerance={tolerance} exits 2", result.returncode == 2, result.stdout)

        garbage = tmp / "garbage.json"
        garbage.write_text("not json at all")
        result = run(bench, "compare", f"--baseline={garbage}", f"--current={a}")
        check("compare with garbage baseline exits 2", result.returncode == 2)
        result = run(bench, "table", f"--artifact={garbage}")
        check("table with garbage artifact exits 2", result.returncode == 2)
        result = run(bench, "table", f"--artifact={tmp / 'missing.json'}")
        check("table with missing artifact exits 2", result.returncode == 2)
        result = run(bench, "run", "--campaign=smoke", "--seed=-1", f"--out={tmp / 'neg.json'}")
        check("run --seed=-1 exits 2", result.returncode == 2, result.stdout)
        result = run(fuzz, "--runs=1", "--seed=-1")
        check("ody_fuzz --seed=-1 exits 2", result.returncode == 2, result.stdout)
        result = run(bench, "run", "--campaign=no_such_campaign")
        check("run with unknown campaign exits 2", result.returncode == 2)
        # A write that fails only when the buffered bytes are flushed must
        # still be reported, not claimed as written.
        result = run(bench, "run", "--campaign=smoke", "--out=/dev/full")
        check("run --out=/dev/full exits 2", result.returncode == 2, result.stderr)
        check("run --out=/dev/full reports the failed write", "cannot write" in result.stderr)
        result = run(bench, "frobnicate")
        check("unknown subcommand exits 2", result.returncode == 2)

    if FAILURES:
        print(f"{len(FAILURES)} CLI check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("all ody_bench CLI checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
