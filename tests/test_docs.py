"""The library examples in README.md and PAPER.md run as written."""

import doctest
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_library_examples_run_as_doctests(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples open fixtures by relative path
    result = doctest.testfile(str(ROOT / name), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
