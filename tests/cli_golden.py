"""The golden CLI cases of tests/cli_cases/: their loader and checker.

A case is a directory holding:

    argv             the arguments after `fuzzymaps`, one line of shell
                     words; paths are relative to the repository root
    exit             the expected exit code
    stdout           the exact expected stdout (no file: none)
    stderr           the exact expected stderr (no file: none), or
    stderr-contains  lines that must each occur in stderr, for argparse
                     usage errors, whose usage text differs between
                     Python versions
    any other file   an input of the case, named in argv

Tier-1 runs every case in-process (tests/test_cli.py);
tests/ci_checks.py runs every case through a command, such as the
installed console script.
"""

import contextlib
import difflib
import io
import os
import pathlib
import shlex
import subprocess
from dataclasses import dataclass

from fuzzymaps import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
CASES = ROOT / "tests" / "cli_cases"
_FILES = ("argv", "exit", "stdout", "stderr", "stderr-contains")


@dataclass(frozen=True)
class Case:
    name: str
    argv: list[str]
    exit: int
    stdout: str
    stderr: str | None  # None: checked by `stderr_contains` alone
    stderr_contains: list[str]


def load(path: pathlib.Path) -> Case:
    """The case in directory `path`; ValueError for a file that is
    neither an expected output nor an input named in argv, or for a case
    with no argv or no exit code."""
    text = {p.name: p.read_text(encoding="utf-8") for p in path.iterdir()
            if p.name in _FILES}
    argv = shlex.split(text.get("argv", ""))
    if not argv or "exit" not in text:
        raise ValueError(f"case {path.name}: no argv or no exit code")
    rel = path.relative_to(ROOT)
    unknown = sorted(p.name for p in path.iterdir()
                     if p.name not in text and str(rel / p.name) not in argv)
    if unknown:
        raise ValueError(f"case {path.name}: unknown files {unknown}")
    if "stderr" in text and "stderr-contains" in text:
        raise ValueError(f"case {path.name}: both stderr and stderr-contains")
    return Case(path.name, argv, int(text["exit"]), text.get("stdout", ""),
                None if "stderr-contains" in text else text.get("stderr", ""),
                text.get("stderr-contains", "").splitlines())


def load_all() -> list[Case]:
    return [load(path) for path in sorted(CASES.iterdir())]


def _run(case: Case, command: list[str] | None) -> tuple[int, str, str]:
    if command is not None:
        proc = subprocess.run([*command, *case.argv], cwd=ROOT,
                              capture_output=True)
        return (proc.returncode, proc.stdout.decode("utf-8"),
                proc.stderr.decode("utf-8"))
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(case.argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def check(case: Case, command: list[str] | None = None) -> None:
    """Run `case` through `cli.main` in this process when `command` is
    None, else through a child process of `command` + argv, and raise
    AssertionError naming every way its output differs from the case."""
    code, out, err = _run(case, command)
    problems = [] if code == case.exit else [
        f"exit code {code}, expected {case.exit}"]
    expected = [("stdout", out, case.stdout)]
    if case.stderr is not None:
        expected.append(("stderr", err, case.stderr))
    for stream, got, want in expected:
        if got != want:
            problems.append("".join(difflib.unified_diff(
                want.splitlines(keepends=True), got.splitlines(keepends=True),
                f"expected {stream}", stream)))
    problems += [f"stderr lacks {line!r}:\n{err}"
                 for line in case.stderr_contains if line not in err]
    if problems:
        raise AssertionError(f"case {case.name}: {shlex.join(case.argv)}\n"
                             + "\n".join(problems))

