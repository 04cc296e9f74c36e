"""The benchmark's outcome digests, one row per (workload, seed).

Each row of tests/bench_digests.json names a workload, a seed, whether
the run is traced, and the outcome digest that `bench/run.py --seconds 0`
must report for it; the digest is the same on CPython 3.10-3.13, and
every model the sweep runs is read from its text file. Seed 1 runs with
--trace 1, which also builds the tracer, which patches engine functions
by name, so a rename fails here. Seed 301 runs untraced: it is the seed
and the paths the benchmark gates (fre-minimal and pipeline-paper run the
order codes of fre and of the max-min/min-max folds). Tier-1 checks the
pipeline-paper and fre-minimal rows (tests/test_bench_digests.py), the
runs that step max-min/min-max components and that solve through fre;
sweep-sfcm30 runs neither; tests/ci_checks.py checks every row.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def rows() -> list:
    """Every row of tests/bench_digests.json, in order."""
    return json.loads((ROOT / "tests" / "bench_digests.json").read_text(
        encoding="utf-8"))


def run(row) -> tuple:
    """(exit code, stdout, the outcome digests reported) of one
    `bench/run.py --seconds 0` run of `row`."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", row["workload"],
         "--seed", str(row["seed"]), "--seconds", "0",
         "--trace", str(row["trace"])],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    digests = [json.loads(line)["report"]["outcome_digest"]
               for line in out.stdout.splitlines()
               if line.startswith('{"report"')]
    return out.returncode, out.stdout, digests

