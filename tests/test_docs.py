"""The library examples in README.md and PAPER.md run as written, and
each command of their CLI quick start is a golden CLI case."""

import doctest
import pathlib
import shlex

import pytest

import cli_golden

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_library_examples_run_as_doctests(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples open fixtures by relative path
    result = doctest.testfile(str(ROOT / name), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_cli_quick_start_commands_are_golden_cases(name):
    text = (ROOT / name).read_text(encoding="utf-8")
    section = text.split("## Quick start: CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```")[0]
    commands = [shlex.split(line)
                for line in block.replace("\\\n", " ").splitlines()]
    argvs = [case.argv for case in cli_golden.load_all()]
    assert len(commands) == 4
    for command in commands:
        assert command[0] == "fuzzymaps" and command[1:] in argvs, command
