"""Model, vector, and matrix text formats: round trips and diagnostics."""

import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymaps import fileformats
from fuzzymaps import (
    ComponentTag,
    DOMAIN_SIDE,
    DomainError,
    InvalidInput,
    Matrix,
    ModelFile,
    ParseError,
    RANGE_SIDE,
    Scalar,
    ValueDomain,
    build_model,
    parse_matrix_text,
    parse_model_text,
    parse_scalar,
    parse_vector_text,
    render_scalar,
    serialize_matrix,
    serialize_model,
)
from fuzzymaps.fileformats import parse_model_structure

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

MODEL_FILES = sorted(p.name for p in FIXTURES.glob("*.model")
                     if "bad" not in p.name)
VECTOR_FILES = sorted(p.name for p in FIXTURES.glob("*.vec"))

GOOD_MODEL = """\
model SMFCFRM demo
component 1 CM fuzzy circle tri 2x2
rows on off
expert chief planner
0 1
-1 0
component 2 RM fuzzy circle tri 2x3
0 1 -1
1 0 0
end
"""


def test_parse_good_model():
    mf = parse_model_text(GOOD_MODEL)
    assert isinstance(mf, ModelFile)
    assert mf.name == "demo"
    assert mf.model.model_class.value == "SMFCFRM"
    assert mf.model.labels[0] == (("on", "off"),)
    assert mf.model.experts == ("chief planner", "expert 2")
    assert mf.model.matrix.components[1][0].shape == (2, 3)


def test_comments_and_blank_lines_ignored():
    noisy = GOOD_MODEL.replace("model SMFCFRM demo",
                               "# preamble\n\nmodel SMFCFRM demo  # tail")
    assert parse_model_text(noisy).model == parse_model_text(GOOD_MODEL).model


@pytest.mark.parametrize("name", MODEL_FILES)
def test_fixture_files_round_trip(name):
    text = (FIXTURES / name).read_text()
    first = parse_model_text(text)
    canon = serialize_model(first)
    second = parse_model_text(canon)
    assert second.model == first.model
    assert second.name == first.name
    # canonical form is a fixed point of the round trip
    assert serialize_model(second) == canon


@pytest.mark.parametrize("name", MODEL_FILES)
def test_fixtures_are_already_canonical(name):
    text = (FIXTURES / name).read_text()
    assert serialize_model(parse_model_text(text)) == text


@pytest.mark.parametrize("name", VECTOR_FILES)
def test_vector_fixtures_round_trip(name):
    text = (FIXTURES / name).read_text()
    state = parse_vector_text(text)
    # each line is its part's side and rendered entries
    assert text.splitlines() == [
        " ".join((state.side, *map(render_scalar, part)))
        for part in state.parts]


def _square_model(name="", experts=None, labels=None):
    square = Matrix.from_rows([[0, 1], [-1, 0]], domain="tri")
    return ModelFile(name=name, model=build_model(
        "SFCM", [(square, ComponentTag())] * 2, labels=labels,
        experts=experts))


@pytest.mark.parametrize("field, value, message", [
    ("name", "my#model", "model name 'my#model' reads back as 'my'"),
    ("name", "my  model", "model name 'my  model' reads back as 'my model'"),
    ("name", " lead", "model name ' lead' reads back as 'lead'"),
    ("expert", "e#1", "expert name 'e#1' reads back as 'e'"),
    ("expert", "chief ", "expert name 'chief ' reads back as 'chief'"),
    ("label", "a b", "row label 'a b' is not one token without '#'"),
    ("label", "a#", "row label 'a#' is not one token without '#'"),
    ("label", "", "row label '' is not one token without '#'"),
])
def test_serialize_refuses_what_would_read_back_otherwise(field, value,
                                                          message):
    model = _square_model(**{"name": {"name": value},
                             "expert": {"experts": [value, "b"]},
                             "label": {"labels": [((value, "x"),), None]},
                             }[field])
    with pytest.raises(InvalidInput) as err:
        serialize_model(model)
    assert str(err.value) == message


@pytest.mark.parametrize("name, expert, label", [
    ("my model", "chief  planner", "x_1"),
    ("", "", "I"),
    ("a-b", "a\xa0b", "\u00e9t\u00e9"),
])
def test_serialize_keeps_what_reads_back_as_itself(name, expert, label):
    model = _square_model(name, [expert, "b"], [((label, "x"),), None])
    assert parse_model_text(serialize_model(model)) == model


@settings(max_examples=300, deadline=None)
@given(*[st.text("ab0 \t\xa0#\n\x85", max_size=5)] * 3)
def test_serialized_model_reads_back_or_is_refused(name, expert, label):
    model = _square_model(name, [expert, "b"], [((label, "x"),), None])
    try:
        text = serialize_model(model)
    except InvalidInput:
        return
    assert parse_model_text(text) == model


# ------------------------------------------------------------- model errors

def clip(marker):
    """GOOD_MODEL truncated just before the line containing `marker`."""
    lines = GOOD_MODEL.splitlines()
    idx = next(i for i, ln in enumerate(lines) if marker in ln)
    return "\n".join(lines[:idx]) + "\n"


def test_missing_end():
    with pytest.raises(ParseError) as err:
        parse_model_text(clip("end"))
    assert "end" in str(err.value)


def test_truncated_matrix():
    with pytest.raises(ParseError) as err:
        parse_model_text(clip("1 0 0"))
    assert "truncated" in str(err.value)


def test_a_huge_declared_size_is_a_truncation():
    # the block reader must not size anything by the declared row count
    huge = 10 ** 30
    text = f"model SMFCFRM\ncomponent 1 RM fuzzy circle tri {huge}x2\n0 1\n"
    with pytest.raises(ParseError) as err:
        parse_model_structure(text)
    assert str(err.value) == (f"line 3: component 1: matrix truncated, "
                              f"expected {huge} rows")


def test_content_after_end():
    with pytest.raises(ParseError) as err:
        parse_model_text(GOOD_MODEL + "0 1\n")
    assert "after" in str(err.value)


def test_bad_scalar_reports_line_and_column():
    bad = GOOD_MODEL.replace("0 1 -1", "0 oops -1")
    with pytest.raises(ParseError) as err:
        parse_model_text(bad)
    assert err.value.line == 8
    assert err.value.col == 3
    assert "line 8, col 3" in str(err.value)


def test_missing_rect_label_half_takes_its_default_names():
    text = GOOD_MODEL.replace("component 2 RM fuzzy circle tri 2x3\n",
                              "component 2 RM fuzzy circle tri 2x3\n"
                              "cols x y z\n")
    model = parse_model_text(text).model
    assert model.labels[1] == (("d1", "d2"), ("x", "y", "z"))
    assert model.experts == ("chief planner", "expert 2")


def test_bad_size_token():
    bad = GOOD_MODEL.replace("2x3", "2by3")
    with pytest.raises(ParseError):
        parse_model_text(bad)


def test_component_index_out_of_order():
    bad = GOOD_MODEL.replace("component 2 RM", "component 3 RM")
    with pytest.raises(ParseError) as err:
        parse_model_text(bad)
    assert "out of order" in str(err.value)


def test_unknown_class_in_header():
    with pytest.raises(ParseError):
        parse_model_text(GOOD_MODEL.replace("SMFCFRM", "SQXCM"))


def test_row_count_must_match_declared_size():
    bad = GOOD_MODEL.replace("rows on off", "rows on off extra")
    with pytest.raises(ParseError):
        parse_model_text(bad)


def test_cols_labels_rejected_on_squares():
    bad = GOOD_MODEL.replace("rows on off", "cols on off")
    with pytest.raises(ParseError) as err:
        parse_model_text(bad)
    assert "RM" in str(err.value)


def test_wide_row_rejected():
    bad = GOOD_MODEL.replace("0 1\n-1 0", "0 1 1\n-1 0")
    with pytest.raises(ParseError):
        parse_model_text(bad)


def test_entry_outside_declared_domain_is_a_domain_error():
    # a domain failure is a validation error, not a parse error; the
    # message still names the line and component that hold the entry
    bad = GOOD_MODEL.replace("-1 0\n", "-1 0.5\n")
    for parse in (parse_model_structure, parse_model_text):
        with pytest.raises(DomainError) as err:
            parse(bad)
        assert str(err.value) == ("line 6: component 1: entry (2,2) = 0.5 "
                                  "is outside domain tri")


@pytest.mark.parametrize("text, message", [
    # an entry on a component's first row is reported at that row, not at
    # the component's last row
    pytest.param(GOOD_MODEL.replace("0 1\n-1 0\n", "0 0.5\n-1 0\n"),
                 "line 5: component 1: entry (1,2) = 0.5 is outside domain "
                 "tri", id="first-row"),
    pytest.param((FIXTURES / "neutro_unit_mixed_bad.model").read_text(),
                 "line 5: component 1: entry (1,2) = 0.5+0.3I is outside "
                 "domain neutro-unit", id="neutro-unit-fixture"),
])
def test_entry_outside_domain_names_the_line_that_holds_it(text, message):
    with pytest.raises(DomainError) as err:
        parse_model_structure(text)
    assert str(err.value) == message


def test_empty_file():
    with pytest.raises(ParseError):
        parse_model_text("")
    with pytest.raises(ParseError):
        parse_model_text("# only a comment\n")


# ------------------------------------------------------------ vector format

def test_parse_vector_sides():
    state = parse_vector_text("domain 0 1 0\ndomain 1 0\n")
    assert state.side == DOMAIN_SIDE
    assert state.parts[1] == (Scalar(1), Scalar(0))
    ranged = parse_vector_text("range 0 I\n")
    assert ranged.side == RANGE_SIDE
    assert ranged.parts[0][1] == parse_scalar("I")


def test_vector_side_disagreement():
    with pytest.raises(ParseError) as err:
        parse_vector_text("domain 0 1\nrange 1 0\n")
    assert "disagrees" in str(err.value)


def test_vector_bad_tag_and_empty():
    with pytest.raises(ParseError):
        parse_vector_text("sideways 0 1\n")
    with pytest.raises(ParseError):
        parse_vector_text("domain\n")
    with pytest.raises(ParseError):
        parse_vector_text("")


def test_vector_bad_entry_position():
    with pytest.raises(ParseError) as err:
        parse_vector_text("domain 0 ? 1\n")
    assert err.value.line == 1
    assert err.value.col == 10


@pytest.mark.parametrize("parse, text, col", [
    # the bad token also occurs inside an earlier token
    (parse_matrix_text, "1e0 e0\n", 5),
    (parse_vector_text, "domain 1e0 e0\n", 12),
    # leading whitespace counts toward the column
    (parse_matrix_text, "   0 x\n", 6),
    (parse_vector_text, "  domain 0 x\n", 12),
])
def test_bad_scalar_column_counts_in_the_raw_line(parse, text, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, col)


# separators str.split() and `\s` both take: ASCII, a file separator,
# a no-break space and an ideographic space
_SEPARATORS = [" ", "\t", "\x0b", "\x1c", "\xa0", "\u3000"]
# good tokens, and bad ones that also occur inside good ones
_ROW_TOKENS = ["0", "1", "-1", "I", "0.5", "2+3I", "7I-1", "1e0", "e0",
               "x", "1_0", "１", "+", "I+I"]


def _first_bad_column(line, skip):
    """The 1-based column of the first token after `skip` that
    parse_scalar rejects, walking the line's runs of non-space; None if
    all parse."""
    for token in list(re.finditer(r"\S+", line))[skip:]:
        try:
            parse_scalar(token.group())
        except ParseError:
            return token.start() + 1
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SEPARATORS),
                          st.sampled_from(_ROW_TOKENS)), min_size=1,
                max_size=8),
       st.sampled_from(_SEPARATORS), st.integers(0, 1))
def test_scalar_row_error_column_is_the_finditer_column(pairs, tail, skip):
    line = "".join(sep + token for sep, token in pairs) + tail
    tokens = [token for _, token in pairs][skip:]
    col = _first_bad_column(line, skip)
    if col is None:
        assert fileformats._scalar_row(line, 4, skip=skip) == tuple(
            map(parse_scalar, tokens))
        return
    with pytest.raises(ParseError) as err:
        fileformats._scalar_row(line, 4, skip=skip)
    assert (err.value.line, err.value.col) == (4, col)
    bad = line[col - 1:].split()[0]
    assert err.value.message.endswith(repr(bad))


@pytest.mark.parametrize("size", ["0_2x2", "2x0_2", "２x2", "2x٢", "+2x2"])
def test_size_is_ascii_digits_only(size):
    bad = GOOD_MODEL.replace("tri 2x2", f"tri {size}")
    with pytest.raises(ParseError, match="^line 2: bad size"):
        parse_model_text(bad)


@pytest.mark.parametrize("index", ["+1", "1_0", "١", "01_"])
def test_component_index_is_ascii_digits_only(index):
    bad = GOOD_MODEL.replace("component 1 CM", f"component {index} CM")
    with pytest.raises(ParseError, match="^line 2: bad component index"):
        parse_model_text(bad)


def test_bad_token_fixture_names_its_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_model_text((FIXTURES / "bad_token.model").read_text())
    assert str(err.value) == "line 7, col 8: bad scalar 'one'"


@pytest.mark.parametrize("text, where", [
    ("0.3 １\n0 0.7\n", "line 1, col 5: bad scalar '１'"),
    ("0 1\n٣ 0\n", "line 2, col 1: bad scalar '٣'"),
])
def test_non_ascii_numerals_are_bad_scalars(text, where):
    with pytest.raises(ParseError) as err:
        parse_matrix_text(text)
    assert str(err.value) == where
    bad_line = next(l for l in text.splitlines() if not l.isascii())
    with pytest.raises(ParseError, match="bad scalar"):
        parse_vector_text("domain " + bad_line)


# ------------------------------------------------------------ matrix format

def test_matrix_text_round_trip():
    text = "0.3 0.1 0.6\n0 0.7 1\n0.4 0.2 0.3\n"
    m = parse_matrix_text(text)
    assert m.shape == (3, 3)
    assert serialize_matrix(m) == text


def test_matrix_text_with_indeterminate_entries():
    m = parse_matrix_text("7+I I\nI -6I\n")
    assert m.at(0, 0) == parse_scalar("7+I")
    assert serialize_matrix(m) == "7+I I\nI -6I\n"


def test_matrix_text_ragged():
    with pytest.raises(ParseError):
        parse_matrix_text("0 1\n0\n")
    with pytest.raises(ParseError):
        parse_matrix_text("")


# ------------------------------------- block reads against a row-by-row read

def _read_block_by_rows(lines, pos, rows, cols, where, domain):
    """A block read one row at a time: `_scalar_row` per row, then
    `Matrix.from_rows`, with the truncation and domain errors the readers
    give."""
    grid, linenos = [], []
    for lineno, line in lines[pos:pos + rows]:
        grid.append(fileformats._scalar_row(line, lineno, cols, where))
        linenos.append(lineno)
    if len(grid) < rows:
        raise ParseError(f"{where}: matrix truncated, expected {rows} rows",
                         line=lines[-1][0])
    try:
        return Matrix.from_rows(grid, domain=domain)
    except DomainError as exc:
        lineno = next(n for n, row in zip(linenos, grid)
                      if not all(map(domain.contains, row)))
        raise DomainError(f"line {lineno}: {where}: {exc}") from None


def _model_matrices_by_rows(text):
    """The matrices of a model file whose headers are well formed, each
    block read by `_read_block_by_rows`."""
    lines, pos, out = fileformats._lines(text), 1, []
    while pos < len(lines) and lines[pos][1].split()[0] != "end":
        tokens = lines[pos][1].split()
        rows, cols = map(int, tokens[6].split("x"))
        pos += 1
        while pos < len(lines) and lines[pos][1].split()[0] in ("rows",
                                                                 "expert"):
            pos += 1
        out.append(_read_block_by_rows(
            lines, pos, rows, cols, f"component {tokens[1]}",
            ValueDomain.parse(tokens[5])))
        pos += rows
    return tuple(out)


def _matrix_by_rows(text):
    lines = fileformats._lines(text)
    if not lines:
        raise ParseError("empty matrix file", line=1)
    return _read_block_by_rows(lines, 0, len(lines), len(lines[0][1].split()),
                               "matrix", ValueDomain.ANY)


def _outcome(read, text):
    """What `read(text)` returns, or its error's class, text, line and
    column."""
    try:
        return read(text)
    except (ParseError, DomainError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "col", None))


# tokens inside each domain, a few spelling one value twice
_INSIDE = {
    "tri": ["0", "1", "-1", "1e0", "-0"],
    "unit": ["0", "1", "0.5", "0.25", "1e-1"],
    "neutro-tri": ["0", "1", "-1", "I"],
    "neutro-unit": ["0", "0.5", "I", "0.3I"],
    "any": ["0", "2", "-7.5", "I", "7+I", "2I-1"],
}
_OUTSIDE = ["2", "-2", "0.5", "-0.5", "I", "0.5+0.3I", "2I"]
_BAD = ["x", "1_0", "１", "+", "I+I", "e0"]
_FAULTS = ["none", "bad", "short", "long", "truncate", "domain"]


def _dress(draw, lines):
    """`lines` as file text, with blank and comment lines between them and
    trailing comments, some of which hold scalar tokens."""
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(["", "   ", "# 0 1 x", "#"]),
                             max_size=2))
        out.append(line + draw(st.sampled_from(["", "", " # 1 x", "#0"])))
    return "\n".join(out) + draw(st.sampled_from(["\n", ""]))


def _inject(draw, blocks, domains):
    """Apply at most one fault to one row of `blocks` (lists of token
    lists, edited in place); returns (block, row) to cut the file before
    when the fault is a truncation, else None."""
    fault = draw(st.sampled_from(_FAULTS))
    b = draw(st.integers(0, len(blocks) - 1))
    r = draw(st.integers(0, len(blocks[b]) - 1))
    row = blocks[b][r]
    c = draw(st.integers(0, len(row) - 1))
    outside = [t for t in _OUTSIDE
               if not domains[b].contains(parse_scalar(t))]
    if fault == "bad":
        row[c] = draw(st.sampled_from(_BAD))
    elif fault == "short":
        del row[c]
    elif fault == "long":
        row.insert(c, draw(st.sampled_from(_INSIDE["any"])))
    elif fault == "domain" and outside:
        row[c] = draw(st.sampled_from(outside))
    elif fault == "truncate":
        return b, r
    return None


@st.composite
def _model_texts(draw):
    names = draw(st.lists(st.sampled_from(sorted(_INSIDE)), min_size=1,
                          max_size=3))
    domains = [ValueDomain.parse(n) for n in names]
    shapes = [(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
              for _ in names]
    blocks = [[draw(st.lists(st.sampled_from(_INSIDE[n]), min_size=cols,
                             max_size=cols)) for _ in range(rows)]
              for n, (rows, cols) in zip(names, shapes)]
    cut = _inject(draw, blocks, domains)
    lines = [draw(st.sampled_from(["model SMFCFRM", "model SMFCFRM a name"]))]
    for idx, (name, (rows, cols), block) in enumerate(
            zip(names, shapes, blocks)):
        lines.append(f"component {idx + 1} RM fuzzy circle {name} "
                     f"{rows}x{cols}")
        if draw(st.booleans()):
            lines.append("rows " + " ".join(f"r{i}" for i in range(rows)))
        if draw(st.booleans()):
            lines.append("expert an expert")
        for r, row in enumerate(block):
            if cut == (idx, r):
                return _dress(draw, lines)
            sep = draw(st.sampled_from([" ", "  ", "\t", " \xa0"]))
            lines.append(draw(st.sampled_from(["", " "])) + sep.join(row))
    return _dress(draw, lines + ["end"])


@st.composite
def _matrix_texts(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    block = [draw(st.lists(st.sampled_from(_INSIDE["any"]), min_size=cols,
                           max_size=cols)) for _ in range(rows)]
    cut = _inject(draw, [block], [ValueDomain.ANY])
    if cut is not None:
        block = block[:cut[1]]
    return _dress(draw, [draw(st.sampled_from(["", " "])) + " ".join(row)
                         for row in block])


@settings(max_examples=400, deadline=None)
@given(_model_texts())
def test_model_blocks_read_as_row_by_row(text):
    def matrices(text):
        return tuple(m for m, _ in parse_model_structure(text).components)

    assert _outcome(matrices, text) == _outcome(_model_matrices_by_rows, text)


@settings(max_examples=300, deadline=None)
@given(_matrix_texts())
def test_matrix_text_reads_as_row_by_row(text):
    assert _outcome(parse_matrix_text, text) == _outcome(_matrix_by_rows, text)
