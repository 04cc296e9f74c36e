"""The CLI: every golden case of tests/cli_cases/ (see cli_golden.py),
CI's help and traced-run checks (see ci_checks.py), argv numerals, state
across `main` calls, and the exit code of every error class."""

import pathlib
import shlex
import sys

import pytest

import ci_checks
import cli_golden
import fuzzymaps
from fuzzymaps import cli as cli_module

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CASES = {case.name: case for case in cli_golden.load_all()}
CHILD = [sys.executable, "-m", "fuzzymaps.cli"]


def _in_process(case):
    def test():
        cli_golden.check(case)
    return test


@pytest.mark.parametrize("name", [
    "compose_maxmin_preference",
    "compose_non_utf8_file",
    "run_step_cap_in_non_ascii_digits",
    "run_step_cap_names_the_unsettled_component",
    "validate_bad_token_is_a_parse_error_at_its_line_and_column",
])
def test_case_in_a_child_interpreter(name):
    cli_golden.check(CASES[name], CHILD)


# ----------------------------------------------------------- help and traces

def test_help_pages_print_their_usage_lines():
    ci_checks.help_pages(CHILD)


def test_traced_runs_write_their_golden_traces():
    ci_checks.traced_runs(CHILD)


def test_run_trace_is_reproducible(tmp_path):
    out = []
    for name in ("a.trace", "b.trace"):
        path = tmp_path / name
        ci_checks.run_cli(CHILD, "run",
                          "--model", FIXTURES / "mixed_operator_union.model",
                          "--input", FIXTURES / "mixed_operator_seed.vec",
                          "--trace", path)
        out.append(path.read_bytes())
    assert out[0] == out[1]


# ------------------------------------------------------------ argv numerals

RUN_NUMERALS = [
    ("--max-steps", "\u0661"),  # ARABIC-INDIC DIGIT ONE
    ("--max-steps", "1_0"),
    ("--max-steps", "+3"),
    ("--max-steps", " 5"),
    ("--threshold-k", "1_0"),
    ("--threshold-k", "\uff11"),  # FULLWIDTH DIGIT ONE
    ("--threshold-k", "0x1"),
]


def _run_argv(option, value):
    return ["run", "--model", str(FIXTURES / "single_square_signed.model"),
            "--input", str(FIXTURES / "single_square_seed_b.vec"),
            option, value]


@pytest.mark.parametrize("option, value", RUN_NUMERALS)
def test_run_options_take_ascii_numerals_only(capsys, option, value):
    # the numerals of the file grammars: int() and float() would also
    # take other scripts' digits and underscores
    with pytest.raises(SystemExit) as err:
        cli_module.main(_run_argv(option, value))
    assert err.value.code == 2
    assert f"argument {option}: not " in capsys.readouterr().err


# ------------------------------------------------------------------ parsing

def _parsed(parse, argv, capsys):
    """What `parse(argv)` gives: ("args", the command function, the repr
    of each argument but `command`, so that a NaN equals itself), or
    ("exit", code, the last stderr line from `error:` on)."""
    try:
        command, args = parse(argv)
    except SystemExit as exc:
        err = capsys.readouterr().err.splitlines()
        return "exit", exc.code, err[-1][err[-1].find("error: "):]
    return "args", command, {k: repr(v) for k, v in vars(args).items()
                             if k != "command"}


def _top_level_parse(argv):
    args = cli_module._build_parser().parse_args(argv)
    return cli_module._COMMANDS[args.command], args


@pytest.mark.parametrize("argv", [
    *(case.argv for case in CASES.values()),
    *(_run_argv(option, value) for option, value in RUN_NUMERALS),
    ["compose", "--op", "nope", "a", "b"],
    ["run"],
    [],
    ["--", "fre", "--matrix", "q", "--target", "r", "--minimal"],
], ids=lambda argv: shlex.join(argv) or "no-arguments")
def test_dispatch_parses_as_the_top_level_parser(capsys, argv):
    # a command word first is parsed by that command's own subparser
    # alone; the command and its arguments, or the usage error after its
    # prog prefix, are those the top-level parser gives
    assert _parsed(cli_module._parse, argv, capsys) == _parsed(
        _top_level_parse, argv, capsys)


def test_main_without_arguments_names_the_missing_command(capsys):
    with pytest.raises(SystemExit) as err:
        cli_module.main([])
    assert err.value.code == 2
    assert "required: command" in capsys.readouterr().err


# ------------------------------------------------------------------- state

def test_consecutive_main_calls_share_no_state(capsys, tmp_path):
    model = FIXTURES / "mixed_operator_union.model"
    seed = FIXTURES / "mixed_operator_seed.vec"

    def call(*argv):
        code = cli_module.main([str(a) for a in argv])
        out = capsys.readouterr()
        return code, out.out, out.err

    default_run = call("run", "--model", model, "--input", seed)
    assert default_run[0] == 0
    optioned = call("run", "--model", model, "--input", seed,
                    "--order-policy", "indeterminacy", "--threshold-k", "0.5",
                    "--max-steps", "3", "--trace", tmp_path / "t.trace")
    assert optioned != default_run
    assert call("validate", "--model", model)[2] == ""
    assert call("fre", "--matrix", FIXTURES / "fre_q.txt", "--target",
                FIXTURES / "fre_r.txt", "--minimal")[0] == 0
    # the options of earlier calls are gone from the next one
    assert call("run", "--model", model, "--input", seed) == default_run
    assert call("fre", "--matrix", FIXTURES / "fre_q.txt", "--target",
                FIXTURES / "fre_r.txt")[1].count("minimal:") == 0
    with pytest.raises(SystemExit):
        cli_module.main(["compose", "--op", "nope", "a", "b"])
    capsys.readouterr()
    assert call("run", "--model", model, "--input", seed) == default_run
    args = cli_module._build_parser().parse_args(["validate", "--model", "m"])
    assert vars(args) == {"command": "validate", "model": "m"}


# ---------------------------------------------------------------- exit codes

# every error class with the code the CLI exits with when it is raised
EXIT_CODES = {
    fuzzymaps.FuzzymapsError: 7,
    fuzzymaps.ParseError: 2,
    fuzzymaps.ClassViolation: 3,
    fuzzymaps.NonzeroDiagonal: 3,
    fuzzymaps.InvalidInput: 3,
    fuzzymaps.NonSquareCM: 3,
    fuzzymaps.NonCMComponent: 3,
    fuzzymaps.NonRMComponent: 3,
    fuzzymaps.WrongEntryPoint: 3,
    fuzzymaps.DomainError: 3,
    fuzzymaps.ModeMismatch: 3,
    fuzzymaps.EmptyUnion: 3,
    fuzzymaps.ShapeMismatch: 4,
    fuzzymaps.IterationCapExceeded: 5,
    fuzzymaps.BudgetExceeded: 6,
    fuzzymaps.OrderUndefined: 7,
    fuzzymaps.TraceError: 7,
}


def _error_classes(cls=fuzzymaps.FuzzymapsError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_every_error_class_has_a_pinned_exit_code():
    assert set(_error_classes()) == set(EXIT_CODES)
    assert fuzzymaps.trace.TraceError is fuzzymaps.TraceError


@pytest.mark.parametrize("error, code", EXIT_CODES.items(),
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_main_exits_with_the_error_class_code(monkeypatch, capsys, error,
                                              code):
    def fail(args):
        raise error("boom")

    monkeypatch.setitem(cli_module._COMMANDS, "validate", fail)
    assert error.exit_code == code
    assert cli_module.main(["validate", "--model", "any.model"]) == code
    assert capsys.readouterr().err == "error: boom\n"


# one in-process test per case, named after the case's directory; last,
# so that no test above can hide a case under its name
for _name, _case in CASES.items():
    assert f"test_{_name}" not in globals(), _name
    globals()[f"test_{_name}"] = _in_process(_case)
