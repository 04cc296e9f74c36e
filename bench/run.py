"""fuzzymaps benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is loaded from ./src. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it is a JSON report
with the environment, sample counts, `failed_frac` and an outcome digest.
The exit code is 0 only when every op passed its output check. The gated
workloads and metrics are listed in BENCHMARK.json at the checkout root.
`cli-cold` (one `python -m fuzzymaps.cli run --trace` child per op) runs
the same way but is not gated there: across ten seeded runs on a shared
2-vCPU host its p50 and p90 spread by up to 10 % and 13 %.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sweep-sfcm30", "pipeline-paper", "fre-minimal", "cli-cold")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = os.path.join(SRC, "fuzzymaps", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: no package source at {package}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import fuzzymaps

    if os.path.dirname(os.path.abspath(fuzzymaps.__file__)) != os.path.dirname(
            package):
        print(f"error: fuzzymaps imported from {fuzzymaps.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    from bench import harness

    return harness.main(args, ROOT, SRC)


if __name__ == "__main__":
    sys.exit(main())
