"""Every check CI runs (.github/workflows/test.yml), in its order, and
their one runner, given the argv prefix that runs the CLI:

    python tests/ci_checks.py fuzzymaps                 # console script
    PYTHONPATH=src python tests/ci_checks.py python -m fuzzymaps.cli

Each check raises AssertionError naming what failed; the runner prints
each failure and exits 1 if any. Tier-1 runs help_pages and traced_runs
through a child interpreter (tests/test_cli.py).
"""

import pathlib
import shlex
import subprocess
import sys
import tempfile

import bench_digests
import cli_golden
from fuzzymaps import verify_trace

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(command, *args) -> str:
    """The stdout of `command` + args, run at the repository root, or
    AssertionError naming the call when it exits nonzero."""
    argv = [*command, *map(str, args)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        raise AssertionError(f"{shlex.join(argv)} exited {proc.returncode}:"
                             f"\n{proc.stdout}{proc.stderr}")
    return proc.stdout


def help_pages(command) -> None:
    # the top-level help and each command's help: each must exit 0 and
    # print its own usage line, whose prog is `fuzzymaps` however the CLI
    # is run. Help text differs between Python versions, so no golden case
    # holds it; this runs both of main's parser paths (the top-level
    # parser, and a command's own parser)
    for words in ([], ["validate"], ["run"], ["compose"], ["fre"]):
        usage = " ".join(["usage: fuzzymaps", *words, "[-h]"])
        out = run_cli(command, *words, "--help")
        if not any(line.startswith(usage) for line in out.splitlines()):
            raise AssertionError(f"no line starts {usage!r}:\n{out}")


def _traced_run(command, trace, fixture, *options, golden=None) -> str:
    """The trace that `run` of the fixture's model and seed writes to the
    file `trace`, or AssertionError unless it is byte for byte the golden
    trace `golden`, where one is named."""
    run_cli(command, "run", "--model", f"tests/fixtures/{fixture}.model",
            "--input", f"tests/fixtures/{fixture}_seed.vec", *options,
            "--trace", trace)
    if golden and trace.read_bytes() != (
            ROOT / "tests" / "fixtures" / golden).read_bytes():
        raise AssertionError(f"the written trace differs from {golden}")
    return trace.read_text(encoding="utf-8")


def traced_runs(command) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp, "run.trace")
        # run, render and verify over a mixed CM/RM, fuzzy/neutrosophic
        # union, byte for byte the same run's golden trace
        verify_trace(_traced_run(command, trace, "six_model_mixture",
                                 golden="six_model_mixture.trace"))
        # the same union at a non-default cut constant and order policy,
        # which its trace's run line must record
        text = _traced_run(command, trace, "six_model_mixture",
                           "--threshold-k", "0.5",
                           "--order-policy", "indeterminacy")
        verify_trace(text)
        run_line = text.splitlines()[1]
        if not run_line.endswith(" policy=indeterminacy threshold-k=0.5"):
            raise AssertionError(
                f"run line does not end in the run's settings: {run_line}")
        # a union of neutrosophic max-min and min-max components, CM and
        # RM, whose values hold n against nI ties, at each order policy,
        # byte for byte its golden trace
        for policy in ("book", "indeterminacy"):
            _traced_run(command, trace, "neutro_level_union",
                        "--order-policy", policy,
                        golden=f"neutro_level_union_{policy}.trace")


def golden_cases(command) -> None:
    # every golden CLI case of tests/cli_cases/: passes only when each case
    # exits with its code and prints exactly its stdout and stderr
    failures = []
    for case in cli_golden.load_all():
        try:
            cli_golden.check(case, command)
        except AssertionError as exc:
            failures.append(str(exc))
    if failures:
        raise AssertionError("\n".join(failures))


def benchmark_smokes() -> None:
    # each row fails if any op fails its workload's independent check
    # (sweep: the integer FCM step; fre: Sanchez p-hat, solvability and
    # minimal vectors; pipeline: verify_trace and the apply/cut/pin step,
    # the only smoke run over neutrosophic, maxmin and minmax components
    # and RM pairs), or if the outcome digest is not its (workload, seed)
    # row's in tests/bench_digests.json, which bench_digests.py explains
    failures = []
    for row in bench_digests.rows():
        code, stdout, digests = bench_digests.run(row)
        if code or digests != [row["outcome_digest"]]:
            failures.append(f"{row['workload']} seed {row['seed']}: exit "
                            f"{code}, outcome_digest {digests} is not "
                            f"{row['outcome_digest']}\n{stdout}")
    if failures:
        raise AssertionError("\n".join(failures))
    # cli-cold fails if any child `fuzzymaps run --trace` call exits
    # nonzero, prints other than in-process `cli.main`, or writes a trace
    # that verify_trace rejects: the only run of the CLI from a child
    # interpreter that the benchmark itself starts
    run_cli([sys.executable, "bench/run.py"], "--workload", "cli-cold",
            "--seed", 1, "--seconds", 0, "--trace", 0)


def main(command) -> int:
    failed = 0
    for check, *args in ((help_pages, command), (traced_runs, command),
                         (golden_cases, command), (benchmark_smokes,)):
        try:
            check(*args)
        except Exception as exc:  # AssertionError, or a trace that fails
            failed += 1
            print(f"FAILED {check.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"passed {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND...")
    sys.exit(main(sys.argv[1:]))
