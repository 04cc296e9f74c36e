"""End-to-end CLI tests driven through subprocess, plus the exit code of
every error class."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

import fuzzymaps
from fuzzymaps import cli as cli_module
from fuzzymaps import verify_trace

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# a tri component holding 0.5: a domain failure, not a parse error
OUT_OF_DOMAIN_MODEL = ("model SFCM\n"
                       "component 1 CM fuzzy circle tri 2x2\n"
                       "0 0.5\n1 0\nend\n")
OUT_OF_DOMAIN_ERROR = ("error: line 3: component 1: entry (1,2) = 0.5 is "
                       "outside domain tri\n")


def cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "fuzzymaps.cli", *map(str, args)],
        capture_output=True, text=True, **kwargs)


# ----------------------------------------------------------------- validate

def test_validate_good_model():
    proc = cli("validate", "--model", FIXTURES / "single_square_signed.model")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "class: SFCM" in lines
    assert "component 1: CM fuzzy circle tri 5x5" in lines
    assert "classification: special fuzzy square" in lines
    assert lines[-1] == "valid"


def test_validate_bad_diagonal():
    proc = cli("validate", "--model",
               FIXTURES / "mixed_algebra_square_bad_diag.model")
    assert proc.returncode == 3
    assert ("problem: component 3: diagonal cell (2,2) is 1, must be 0"
            in proc.stdout)
    assert proc.stdout.splitlines()[-1] == "invalid"


def test_validate_unreadable_file(tmp_path):
    bad = tmp_path / "broken.model"
    bad.write_text("garbage ???\n")
    proc = cli("validate", "--model", bad)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 1:")


def test_validate_entry_outside_domain_is_a_validation_error(tmp_path):
    model = tmp_path / "dom.model"
    model.write_text(OUT_OF_DOMAIN_MODEL)
    proc = cli("validate", "--model", model)
    assert proc.returncode == 3
    assert proc.stdout == ("problem: line 3: component 1: entry (1,2) = 0.5 "
                           "is outside domain tri\ninvalid\n")
    assert proc.stderr == ""


def test_mixed_neutro_unit_value_is_invalid_for_validate_and_run(tmp_path):
    # a mixed a + bI has no order for max-min, so validate and run agree
    model = FIXTURES / "neutro_unit_mixed_bad.model"
    proc = cli("validate", "--model", model)
    assert proc.returncode == 3
    assert proc.stdout == ("problem: line 5: component 1: entry (1,2) = "
                           "0.5+0.3I is outside domain neutro-unit\n"
                           "invalid\n")
    seed = tmp_path / "seed.vec"
    seed.write_text("domain 1 0\n")
    proc = cli("run", "--model", model, "--input", seed)
    assert proc.returncode == 3
    assert "outside domain neutro-unit" in proc.stderr


def test_validate_unknown_operator_is_a_parse_error_at_its_line():
    proc = cli("validate", "--model",
               FIXTURES / "unknown_operator_bad.model")
    assert proc.returncode == 2
    assert proc.stderr == "error: line 2: unknown operator 'convolve'\n"
    assert proc.stdout == ""


def test_validate_bad_token_is_a_parse_error_at_its_line_and_column():
    proc = cli("validate", "--model", FIXTURES / "bad_token.model")
    assert proc.returncode == 2
    assert proc.stderr == "error: line 7, col 8: bad scalar 'one'\n"
    assert proc.stdout == ""


def test_validate_missing_file(tmp_path):
    proc = cli("validate", "--model", tmp_path / "nope.model")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


# ---------------------------------------------------------------------- run

def test_run_square_fixed_point():
    proc = cli("run", "--model", FIXTURES / "single_square_signed.model",
               "--input", FIXTURES / "single_square_seed_b.vec")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "classification: special fuzzy square"
    assert "component 1: fixed point: [0 0 1 1 0]" in lines
    assert lines[-1] == "steps: 2"


def test_run_rect_fixed_pair():
    proc = cli("run", "--model", FIXTURES / "single_rect_signed.model",
               "--input", FIXTURES / "single_rect_domain_seed.vec")
    assert proc.returncode == 0
    assert ("component 1: fixed pair: domain=[1 1 1 0 1 1] range=[1 1 1 1]"
            in proc.stdout)


def test_run_writes_verifiable_trace(tmp_path):
    trace = tmp_path / "run.trace"
    proc = cli("run", "--model", FIXTURES / "six_model_mixture.model",
               "--input", FIXTURES / "six_model_mixture_seed.vec",
               "--trace", trace)
    assert proc.returncode == 0
    text = trace.read_text()
    assert text.startswith("trace 1\n")
    assert verify_trace(text)  # raises TraceError if inconsistent
    # byte for byte the golden trace of this run, whose CM and RM
    # neutrosophic circle components step on the trit kernel
    assert trace.read_bytes() == (FIXTURES / "six_model_mixture.trace"
                                  ).read_bytes()


def test_run_trace_is_reproducible(tmp_path):
    out = []
    for name in ("a.trace", "b.trace"):
        path = tmp_path / name
        proc = cli("run", "--model", FIXTURES / "mixed_operator_union.model",
                   "--input", FIXTURES / "mixed_operator_seed.vec",
                   "--trace", path)
        assert proc.returncode == 0
        out.append(path.read_bytes())
    assert out[0] == out[1]


def test_run_iteration_cap():
    proc = cli("run", "--model", FIXTURES / "single_square_signed.model",
               "--input", FIXTURES / "single_square_seed_b.vec",
               "--max-steps", 1)
    assert proc.returncode == 5
    assert "unsettled" in proc.stderr


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_run_rejects_a_step_cap_below_one(cap):
    # no run settles in under one step: bad input, not a cap exceeded
    proc = cli("run", "--model", FIXTURES / "single_square_signed.model",
               "--input", FIXTURES / "single_square_seed_b.vec",
               "--max-steps", cap)
    assert proc.returncode == 3
    assert proc.stderr == f"error: max steps must be at least 1, got {cap}\n"
    assert proc.stdout == ""


def test_run_rejects_non_finite_threshold():
    for k in ("nan", "inf"):
        proc = cli("run", "--model",
                   FIXTURES / "single_square_signed.model",
                   "--input", FIXTURES / "single_square_seed_b.vec",
                   "--threshold-k", k)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: threshold k must be finite")
        assert proc.stdout == ""


def test_run_input_length_mismatch(tmp_path):
    vec = tmp_path / "short.vec"
    vec.write_text("domain 1 0 0\n")
    proc = cli("run", "--model", FIXTURES / "single_square_signed.model",
               "--input", vec)
    assert proc.returncode == 3
    assert "input length 3" in proc.stderr


def test_run_entry_outside_domain_is_a_validation_error(tmp_path):
    model = tmp_path / "dom.model"
    model.write_text(OUT_OF_DOMAIN_MODEL)
    vec = tmp_path / "x.vec"
    vec.write_text("domain 1 0\n")
    proc = cli("run", "--model", model, "--input", vec)
    assert proc.returncode == 3
    assert proc.stderr == OUT_OF_DOMAIN_ERROR
    assert proc.stdout == ""


def test_run_rejects_relational_classes(tmp_path):
    model = tmp_path / "rel.model"
    model.write_text("model SFRE\n"
                     "component 1 RM fuzzy maxmin unit 2x2\n"
                     "0.9 0.6\n0.4 0.3\nend\n")
    vec = tmp_path / "x.vec"
    vec.write_text("domain 1 0\n")
    proc = cli("run", "--model", model, "--input", vec)
    assert proc.returncode == 3
    assert "fre" in proc.stderr


# ------------------------------------------------------------------ compose

def test_compose_maxmin_preference():
    proc = cli("compose", "--op", "maxmin",
               FIXTURES / "compose_pref_left.txt",
               FIXTURES / "compose_pref_right.txt")
    assert proc.returncode == 0
    assert proc.stdout == ("0.6 0.2 0.4 0.6\n"
                           "1 0.7 0.4 1\n"
                           "0.4 0.2 0.3 0.4\n")


@pytest.mark.parametrize("args, out", [
    (["--op", "maxmin"], "I 0.8 0.4I 0.6\n"
                         "1 0.7 0.4I 1\n"
                         "0.8I 0.2I 0.4I 0.8I\n"),
    (["--op", "minmax", "--order-policy", "indeterminacy"],
     "I 0.2I 0.4I I\n"
     "0.5I 0.5I 0.4I 0.5I\n"
     "0.8I 0.2I 0.8I 0.5I\n"),
], ids=["maxmin-book", "minmax-indeterminacy"])
def test_compose_neutrosophic_under_each_policy(args, out):
    # reals in [0, 1] and pure multiples of I under the two orders
    proc = cli("compose", *args, FIXTURES / "compose_neutro_left.txt",
               FIXTURES / "compose_neutro_right.txt")
    assert proc.returncode == 0
    assert proc.stdout == out


def test_compose_mul_identity(tmp_path):
    ident = tmp_path / "i.txt"
    ident.write_text("1 0\n0 1\n")
    other = tmp_path / "m.txt"
    other.write_text("7+I 2\nI -6I\n")
    proc = cli("compose", "--op", "mul", ident, other)
    assert proc.returncode == 0
    assert proc.stdout == other.read_text()


def test_compose_overflowing_entry_is_a_parse_error(tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("1e400 0\n0 1\n")
    proc = cli("compose", "--op", "add", big, big)
    assert proc.returncode == 2
    assert proc.stderr == ("error: line 1, col 1: scalar '1e400' is out "
                           "of range\n")


def test_compose_non_ascii_digit_is_a_parse_error(capsys):
    bad = FIXTURES / "fullwidth_digit_bad.txt"
    assert cli_module.main(["compose", "--op", "maxmin", str(bad),
                            str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 1, col 5: bad scalar '１'\n"
    assert captured.out == ""


def test_compose_non_finite_result_is_a_validation_error(tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("1e200 1e200\n1e200 1e200\n")
    proc = cli("compose", "--op", "mul", big, big)
    assert proc.returncode == 3
    assert proc.stderr == "error: inf is not a finite scalar\n"
    assert proc.stdout == ""


def test_compose_unordered_value_is_an_engine_error(tmp_path):
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("1+I 0\n0 1\n")
    proc = cli("compose", "--op", "maxmin", mixed, mixed)
    assert proc.returncode == 7
    assert proc.stderr == "error: 1+I has no defined order\n"
    assert proc.stdout == ""


def test_compose_shape_mismatch():
    right = FIXTURES / "compose_pref_right.txt"
    proc = cli("compose", "--op", "maxmin", right, right)
    assert proc.returncode == 4
    assert "3x4" in proc.stderr


# ---------------------------------------------------------------------- fre

def test_fre_solvable_with_minimal():
    proc = cli("fre", "--matrix", FIXTURES / "fre_q.txt",
               "--target", FIXTURES / "fre_r.txt", "--minimal")
    assert proc.returncode == 0
    assert proc.stdout == ("max-solution: 0.3 1\n"
                           "solvable: yes\n"
                           "residual: 0.4 0.3\n"
                           "minimal: 0 0.4\n")


def test_fre_unsolvable_names_column(tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("0.3\n0.2\n")
    r = tmp_path / "r.txt"
    r.write_text("0.5\n")
    proc = cli("fre", "--matrix", q, "--target", r)
    # unsolvability is a finding, not a failure
    assert proc.returncode == 0
    assert "solvable: no" in proc.stdout
    assert "necessary-condition: fails at column(s) 1" in proc.stdout


def test_fre_minimal_off_the_grid(tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("0.9 0.6\n0.4 0.3\n")
    r = tmp_path / "r.txt"
    r.write_text("0.35 0.3\n")
    proc = cli("fre", "--matrix", q, "--target", r, "--minimal")
    assert proc.returncode == 0
    assert proc.stdout == ("max-solution: 0.3 0.35\n"
                           "solvable: yes\n"
                           "residual: 0.35 0.3\n"
                           "minimal: 0 0.35\n")


def test_fre_compares_the_residual_exactly(tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("0.3\n")
    r = tmp_path / "r.txt"
    r.write_text("0.3000000000001\n")
    proc = cli("fre", "--matrix", q, "--target", r, "--minimal")
    assert proc.returncode == 0
    assert proc.stdout == ("max-solution: 1\n"
                           "solvable: no\n"
                           "residual: 0.3\n"
                           "necessary-condition: fails at column(s) 1\n"
                           "minimal: none\n")


def test_fre_budget_exceeded(tmp_path):
    # every row reaches every column: 8**8 covers
    q = tmp_path / "q.txt"
    q.write_text("1 1 1 1 1 1 1 1\n" * 8)
    r = tmp_path / "r.txt"
    r.write_text("0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n")
    proc = cli("fre", "--matrix", q, "--target", r, "--minimal")
    assert proc.returncode == 6
    assert "budget" in proc.stderr


def test_fre_grid_step_is_not_an_option(tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("0.5\n")
    r = tmp_path / "r.txt"
    r.write_text("0.5\n")
    proc = cli("fre", "--matrix", q, "--target", r,
               "--minimal", "--grid-step", 0.1)
    assert proc.returncode == 2
    assert "--grid-step" in proc.stderr


def test_fre_minimal_rejects_indeterminate_matrix_entry(tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("I\n0.1\n")
    r = tmp_path / "r.txt"
    r.write_text("0.3\n")
    proc = cli("fre", "--matrix", q, "--target", r,
               "--neutrosophic", "--minimal")
    assert proc.returncode == 3
    assert "solvable: yes" in proc.stdout
    assert "minimal:" not in proc.stdout
    assert proc.stderr.startswith("error: minimal-solution enumeration is "
                                  "real-valued")
    assert "neutrosophic=True" not in proc.stderr


# ------------------------------------------------------------------ parsing

def test_missing_required_arguments():
    proc = cli("run")
    assert proc.returncode == 2
    assert "--model" in proc.stderr


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
    fuzzymaps.ComponentCountMismatch: 4,
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

    monkeypatch.setattr(cli_module, "cmd_validate", fail)
    assert error.exit_code == code
    assert cli_module.main(["validate", "--model", "any.model"]) == code
    assert capsys.readouterr().err == "error: boom\n"
