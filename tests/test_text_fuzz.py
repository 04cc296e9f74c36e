"""Fuzzed text entry points: mutated copies of the fixture model, vector
and matrix files. The readers may raise only a FuzzymapsError, and the
CLI must exit with a documented code (see fuzzymaps.cli), never with a
traceback."""

import contextlib
import io
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymaps import (
    FuzzymapsError,
    parse_matrix_text,
    parse_model_text,
    parse_vector_text,
)
from fuzzymaps import cli as cli_module

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MODELS = ["single_square_signed.model", "six_model_mixture.model",
          "mixed_operator_union.model", "three_expert_rect.model"]
VECTORS = ["single_square_seed_a.vec", "six_model_mixture_seed.vec",
           "mixed_operator_seed.vec", "three_expert_rect_seed.vec"]
MATRICES = ["fre_q.txt", "fre_r.txt", "compose_neutro_left.txt",
            "compose_pref_right.txt"]
TEXTS = {name: (FIXTURES / name).read_text()
         for name in MODELS + VECTORS + MATRICES}

# the exit codes the CLI documents
EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}

# characters a mutation inserts: the grammar's own, separators the
# readers split on, and look-alikes other scripts and int() accept
_ALPHABET = ("0123456789.+-eEIx#_ \t\n\x0b\x1c\xa0　"
             "１٣²[]|=" "abcCMRMunit")
# whole tokens a mutation puts in place of one
_TOKENS = ["0", "1", "-1", "I", "2I", "0.5", "0.5+0.3I", "1e400", "nan",
           "inf", "10" * 20, "0_1", "１", "٣", "+1", "2x2", "0x3", "3x0",
           "1x99", "RM", "CM", "neutrosophic", "maxmin", "unit", "any",
           "domain", "range", "component", "end", "rows", "cols", "expert",
           "model", "SFCM", "SMFCRNCRM", "#", ""]


@st.composite
def mutated(draw, name):
    """The fixture `name` after one to four edits: a character splice, a
    token replaced, or a line dropped, duplicated or swapped."""
    text = TEXTS[name]
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(["splice", "token", "line"]))
        if how == "splice":
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 4))
            text = (text[:at] + draw(st.text(_ALPHABET, max_size=4))
                    + text[at + cut:])
        elif how == "token":
            tokens = text.split(" ")
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(st.sampled_from(_TOKENS))
            text = " ".join(tokens)
        else:
            lines = text.splitlines(keepends=True) or [""]
            at = draw(st.integers(0, len(lines) - 1))
            other = draw(st.integers(0, len(lines) - 1))
            edit = draw(st.sampled_from(["drop", "duplicate", "swap"]))
            if edit == "drop":
                del lines[at]
            elif edit == "duplicate":
                lines.insert(at, lines[at])
            else:
                lines[at], lines[other] = lines[other], lines[at]
            text = "".join(lines)
    return text


def _reads_or_raises_fuzzymaps_error(parse, text):
    try:
        parse(text)
    except FuzzymapsError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MODELS).flatmap(mutated))
def test_mutated_model_text_raises_only_fuzzymaps_errors(text):
    _reads_or_raises_fuzzymaps_error(parse_model_text, text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VECTORS).flatmap(mutated))
def test_mutated_vector_text_raises_only_fuzzymaps_errors(text):
    _reads_or_raises_fuzzymaps_error(parse_vector_text, text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MATRICES).flatmap(mutated))
def test_mutated_matrix_text_raises_only_fuzzymaps_errors(text):
    _reads_or_raises_fuzzymaps_error(parse_matrix_text, text)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(workdir, command, files, *flags):
    """`cli.main` on `command`, each (flag, text) of `files` passed as a
    file holding the text, and `flags`; its output is discarded."""
    argv = [command, *flags]
    for idx, (flag, text) in enumerate(files):
        path = workdir / f"input{idx}"
        path.write_text(text, encoding="utf-8")
        argv += [flag, str(path)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli_module.main(argv)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODELS).flatmap(mutated))
def test_validate_on_a_mutated_model_exits_with_a_documented_code(
        workdir, text):
    assert _exit_code(workdir, "validate", [("--model", text)]) in EXIT_CODES


def mutated_or_not(name):
    return st.one_of(mutated(name), st.just(TEXTS[name]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(MODELS))).flatmap(
    lambda i: st.tuples(mutated_or_not(MODELS[i]),
                        mutated_or_not(VECTORS[i]))))
def test_run_on_mutated_files_exits_with_a_documented_code(workdir, pair):
    model, vector = pair
    code = _exit_code(workdir, "run", [("--model", model),
                                       ("--input", vector)])
    assert code in EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(mutated_or_not("fre_q.txt"), mutated_or_not("fre_r.txt"))
def test_fre_on_mutated_files_exits_with_a_documented_code(workdir, q, r):
    code = _exit_code(workdir, "fre", [("--matrix", q), ("--target", r)],
                      "--minimal")
    assert code in EXIT_CODES
