"""Model, vector, and matrix text formats: round trips and diagnostics."""

import pathlib

import pytest

from fuzzymaps import (
    DOMAIN_SIDE,
    DomainError,
    ModelFile,
    ParseError,
    RANGE_SIDE,
    Scalar,
    parse_matrix_text,
    parse_model_structure,
    parse_model_text,
    parse_scalar,
    parse_vector_text,
    serialize_matrix,
    serialize_model,
    serialize_vector,
)

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
    assert mf.model.matrix.matrices[1].shape == (2, 3)


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
    assert serialize_vector(state) == text
    assert parse_vector_text(serialize_vector(state)) == state


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
