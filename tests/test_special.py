"""Union-of-components structure: tags, classification, transposes, apply."""

import copy
import pickle

import pytest

from fuzzymaps import (
    CM,
    I,
    ComponentCountMismatch,
    DOMAIN_SIDE,
    RANGE_SIDE,
    RM,
    ComponentTag,
    EmptyUnion,
    Matrix,
    NonSquareCM,
    Scalar,
    ShapeMismatch,
    SpecialStateVector,
    ValueDomain,
    SpecialMatrix,
    mat_mul,
    maxmin_compose,
    minmax_compose,
    other_side,
    parse_scalar,
    render_part,
    row_vector,
    run_mixed,
    special_apply,
    special_transpose,
)
from fuzzymaps.dynamics import landing_side
from fuzzymaps.special import apply_part

TRI = ValueDomain.TRI
UNIT = ValueDomain.UNIT


def tri(rows):
    return Matrix.from_rows([[Scalar(v) for v in r] for r in rows],
                            domain=TRI)


def sq(n, fill=0):
    return tri([[fill] * n for _ in range(n)])


def rect(r, c):
    return tri([[0] * c for _ in range(r)])


# ---------------------------------------------------------------------- tags

@pytest.mark.parametrize("value", [
    pytest.param(parse_scalar("0.5-2I"), id="Scalar"),
    pytest.param(Matrix(2, 2, [0, 1, I, -1], ValueDomain.NEUTRO_TRI),
                 id="Matrix"),
    pytest.param(SpecialMatrix([
        (Matrix(2, 2, [0, 1, -1, 0], TRI), ComponentTag()),
        (Matrix(1, 3, [1, 0, I]), ComponentTag(kind=RM,
                                               algebra="neutrosophic"))]),
        id="SpecialMatrix"),
    pytest.param(SpecialStateVector([[1, 0], [I]], side=RANGE_SIDE),
                 id="SpecialStateVector"),
])
@pytest.mark.parametrize("clone", [
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(lambda v: pickle.loads(pickle.dumps(v)), id="pickle"),
])
def test_values_copy_and_pickle(value, clone):
    got = clone(value)
    assert type(got) is type(value)
    assert got == value
    assert hash(got) == hash(value)
    assert repr(got) == repr(value)


def test_matrix_clone_leaves_its_memos_behind():
    m = Matrix(1, 2, [0, 1])
    assert m._memo(lambda matrix: matrix.cols) == 2
    for got in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert got == m
        assert got._memos is None


def test_tag_defaults():
    t = ComponentTag()
    assert t.kind == CM
    assert t.algebra == "fuzzy"
    assert t.op == "circle"


def test_tag_validation():
    with pytest.raises(ValueError):
        ComponentTag(kind="XY")
    with pytest.raises(ValueError):
        ComponentTag(algebra="classical")
    with pytest.raises(ValueError):
        ComponentTag(op="convolve")


def test_other_side():
    assert other_side(DOMAIN_SIDE) == RANGE_SIDE
    assert other_side(RANGE_SIDE) == DOMAIN_SIDE


# -------------------------------------------------------------- construction

def test_empty_union_rejected():
    with pytest.raises(EmptyUnion):
        SpecialMatrix([])


def test_cm_component_must_be_square():
    with pytest.raises(NonSquareCM):
        SpecialMatrix([(rect(2, 3), ComponentTag())])


def test_rm_component_any_shape():
    s = SpecialMatrix([(rect(2, 3), ComponentTag(kind=RM))])
    assert len(s) == 1


# ------------------------------------------------------------- classification

def test_classification_table():
    cm = ComponentTag()
    ncm = ComponentTag(algebra="neutrosophic")
    rm = ComponentTag(kind=RM)
    nrm = ComponentTag(kind=RM, algebra="neutrosophic")
    cases = [
        ([(sq(3), cm), (sq(3), cm)], "special fuzzy square"),
        ([(sq(3), cm), (sq(4), cm)], "special fuzzy mixed square"),
        ([(sq(3), ncm), (sq(3), ncm)], "special neutrosophic square"),
        ([(sq(3), cm), (sq(4), ncm)],
         "special fuzzy and neutrosophic mixed square"),
        ([(rect(2, 3), rm), (rect(2, 3), rm)], "special fuzzy rectangular"),
        ([(rect(2, 3), rm), (rect(4, 2), nrm)],
         "special fuzzy and neutrosophic mixed rectangular"),
        ([(sq(3), cm), (rect(2, 3), rm)], "special fuzzy mixed matrix"),
        ([(sq(3), ncm), (rect(2, 3), nrm)],
         "special neutrosophic mixed matrix"),
        ([(sq(3), cm), (rect(2, 3), nrm)],
         "special fuzzy and neutrosophic mixed matrix"),
    ]
    for comps, want in cases:
        assert SpecialMatrix(comps).classification == want


# ------------------------------------------------------------------ transpose

def test_special_transpose_matches_plain_for_shapes():
    s = SpecialMatrix([(rect(2, 3), ComponentTag(kind=RM)),
                       (rect(4, 1), ComponentTag(kind=RM))])
    assert [m.shape for m in special_transpose(s).matrices] == [(3, 2),
                                                                (1, 4)]


def test_transpose_involution_on_union():
    s = SpecialMatrix([(tri([[0, 1], [-1, 0]]), ComponentTag()),
                       (tri([[1, 0, -1]]), ComponentTag(kind=RM))])
    back = special_transpose(special_transpose(s))
    assert back.matrices == s.matrices
    assert back.tags == s.tags


def test_special_transpose_flips_square_rm_like_the_engine():
    # a square RM component still alternates with its transpose, so two
    # applies through special_transpose land on the engine's step-2 raw
    s = SpecialMatrix([(tri([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                        ComponentTag(kind=RM)),
                       (tri([[0, 1], [1, 0]]), ComponentTag())])
    x = SpecialStateVector([[Scalar(1), Scalar(0), Scalar(0)],
                            [Scalar(1), Scalar(0)]])
    first, second = run_mixed(s, x).trace[:2]
    y = SpecialStateVector(first.updated,
                           side=landing_side(RM, DOMAIN_SIDE, 1))
    back = special_apply(y, special_transpose(s))
    assert back.parts == second.raw
    assert back.parts[0] == (Scalar(1), Scalar(0), Scalar(0))


# --------------------------------------------------------------------- states

def test_make_state_and_render():
    x = SpecialStateVector([[Scalar(0), Scalar(1)], [Scalar(1)]],
                           side=DOMAIN_SIDE)
    assert isinstance(x, SpecialStateVector)
    assert x.side == DOMAIN_SIDE
    assert render_part(x.parts[0]) == "[0 1]"
    assert render_part((parse_scalar("I"), Scalar(0.5))) == "[I 0.5]"


# ---------------------------------------------------------------------- apply

def test_special_apply_cm_keeps_side():
    m = SpecialMatrix([(tri([[0, 1], [1, 0]]), ComponentTag())])
    x = SpecialStateVector([[Scalar(1), Scalar(0)]])
    y = special_apply(x, m, "circle")
    assert y.side == DOMAIN_SIDE
    assert y.parts[0] == (Scalar(0), Scalar(1))


def test_special_apply_rm_flips_side():
    m = SpecialMatrix([(tri([[1, 0, 1], [0, 1, 0]]), ComponentTag(kind=RM))])
    x = SpecialStateVector([[Scalar(1), Scalar(0)]], side=DOMAIN_SIDE)
    y = special_apply(x, m, "circle")
    assert y.side == RANGE_SIDE
    assert y.parts[0] == (Scalar(1), Scalar(0), Scalar(1))
    # the return trip runs against the transposed union
    back = special_apply(y, special_transpose(m), "circle")
    assert back.side == DOMAIN_SIDE
    assert len(back.parts[0]) == 2


def test_apply_checks_component_count_and_length():
    m = SpecialMatrix([(sq(2), ComponentTag())])
    with pytest.raises(ComponentCountMismatch):
        special_apply(
            SpecialStateVector([[Scalar(0), Scalar(1)], [Scalar(1)]]),
            m, "circle")
    with pytest.raises(ShapeMismatch):
        special_apply(SpecialStateVector([[Scalar(0), Scalar(1), Scalar(1)]]),
                      m, "circle")


def test_union_slots_do_not_interact():
    a = tri([[0, 1], [1, 0]])
    b = tri([[0, -1], [-1, 0]])
    joint = special_apply(
        SpecialStateVector([[Scalar(1), Scalar(0)], [Scalar(1), Scalar(0)]]),
        SpecialMatrix([(a, ComponentTag()), (b, ComponentTag())]), "circle")
    alone0 = special_apply(SpecialStateVector([[Scalar(1), Scalar(0)]]),
                           SpecialMatrix([(a, ComponentTag())]), "circle")
    alone1 = special_apply(SpecialStateVector([[Scalar(1), Scalar(0)]]),
                           SpecialMatrix([(b, ComponentTag())]), "circle")
    assert joint.parts[0] == alone0.parts[0]
    assert joint.parts[1] == alone1.parts[0]


def test_special_apply_mixed_one_step():
    # no op: each component uses its tagged operator - one circle square,
    # one maxmin membership square whose levels stay raw
    c = tri([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    m = Matrix.from_rows(
        [[Scalar(v) for v in row]
         for row in [[0.2, 0.9, 0.1], [0.8, 0.1, 0.5], [0.3, 0.3, 0.7]]],
        domain=UNIT)
    s = SpecialMatrix([(c, ComponentTag()),
                       (m, ComponentTag(op="maxmin"))])
    x = SpecialStateVector([[Scalar(1), Scalar(0), Scalar(0)],
                            [Scalar(0.5), Scalar(1), Scalar(0)]])
    y = special_apply(x, s)
    assert y.parts[0] == (Scalar(0), Scalar(1), Scalar(0))
    # maxmin row: max(min(.5,.2),min(1,.8),min(0,.3)) etc.
    assert y.parts[1] == (Scalar(0.8), Scalar(0.5), Scalar(0.5))


@pytest.mark.parametrize("op, product", [("circle", mat_mul),
                                         ("maxmin", maxmin_compose),
                                         ("minmax", minmax_compose)])
def test_apply_part_is_one_row_of_the_product(op, product):
    m = Matrix.from_rows([[Scalar(0.2), I, Scalar(1), Scalar(0)],
                          [Scalar(0.7), Scalar(0.4), I, Scalar(1)],
                          [Scalar(0), Scalar(0.9), Scalar(0.3), I]])
    part = (Scalar(0.5), I, Scalar(1))
    assert apply_part(part, m, op) == product(row_vector(part), m).row(0)
