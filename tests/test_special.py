"""Union-of-components structure: tags, classification, seeds, and the
per-component transpose and apply that a run steps each part with."""

import copy
import pickle

import pytest

from fuzzymaps import (
    CM,
    I,
    DOMAIN_SIDE,
    RANGE_SIDE,
    RM,
    ComponentTag,
    DomainError,
    EmptyUnion,
    InvalidInput,
    Matrix,
    NonSquareCM,
    ParseError,
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
    transpose,
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


def _used_and_fresh():
    """Two equal (union, seed) pairs, built apart: a run fills the memos of
    the first one, its matrices, union and seed, and the second is
    untouched."""
    def build():
        union = SpecialMatrix([
            (Matrix(2, 2, [0, 1, -1, 0], TRI), ComponentTag()),
            (Matrix(2, 3, [1, 0, -1, 0, 1, I], ValueDomain.NEUTRO_TRI),
             ComponentTag(kind=RM, algebra="neutrosophic"))])
        return union, SpecialStateVector([[1, 0], [0, 1]])
    used, seed = build()
    for k in (0.0, 0.5):
        run_mixed(used, seed, threshold_k=k)
    return (used, seed, *used.matrices), (*build(), *build()[0].matrices)


def test_memos_leave_equality_hashing_and_pickling_unchanged():
    # the matrices, the union and the seed keep what a run derived from
    # them, outside their values
    for used, fresh in zip(*_used_and_fresh()):
        assert used._memos and fresh._memos is None
        assert used == fresh and fresh == used
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        for clone in (copy.copy(used), copy.deepcopy(used),
                      pickle.loads(pickle.dumps(used))):
            assert clone == used and hash(clone) == hash(used)
            assert clone._memos is None


def test_tag_defaults():
    t = ComponentTag()
    assert t.kind == CM
    assert t.algebra == "fuzzy"
    assert t.op == "circle"


def test_tag_validation():
    with pytest.raises(ParseError, match="unknown component kind 'XY'"):
        ComponentTag(kind="XY")
    with pytest.raises(ParseError, match="unknown algebra 'classical'"):
        ComponentTag(algebra="classical")
    with pytest.raises(ParseError, match="unknown operator 'convolve'"):
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
    # each RM component's transpose flips its shape
    s = SpecialMatrix([(rect(2, 3), ComponentTag(kind=RM)),
                       (rect(4, 1), ComponentTag(kind=RM))])
    assert [transpose(m).shape for m in s.matrices] == [(3, 2), (1, 4)]


def test_transpose_involution_on_union():
    # transposing twice gives every component's matrix back
    s = SpecialMatrix([(tri([[0, 1], [-1, 0]]), ComponentTag()),
                       (tri([[1, 0, -1]]), ComponentTag(kind=RM))])
    assert tuple(transpose(transpose(m)) for m in s.matrices) == s.matrices


def test_each_part_returns_through_its_own_sides_operand():
    # each part of a mixed union lands on its own side: a square RM part
    # on the range, still alternating with its transpose, and the CM part
    # on the domain. One apply_part from there gives the step-2 raw part.
    s = SpecialMatrix([(tri([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                        ComponentTag(kind=RM)),
                       (tri([[0, 1], [1, 0]]), ComponentTag())])
    x = SpecialStateVector([[Scalar(1), Scalar(0), Scalar(0)],
                            [Scalar(1), Scalar(0)]])
    first, second = run_mixed(s, x).trace[:2]
    sides = [landing_side(tag.kind, DOMAIN_SIDE, 1) for tag in s.tags]
    assert sides == [RANGE_SIDE, DOMAIN_SIDE]
    for (mat, tag), side, part, raw in zip(s, sides, first.updated,
                                           second.raw):
        operand = transpose(mat) if side == RANGE_SIDE else mat
        assert apply_part(part, operand, tag.op) == raw
    assert second.raw[0] == (Scalar(1), Scalar(0), Scalar(0))


# --------------------------------------------------------------------- states

def test_make_state_and_render():
    x = SpecialStateVector([[Scalar(0), Scalar(1)], [Scalar(1)]],
                           side=DOMAIN_SIDE)
    assert isinstance(x, SpecialStateVector)
    assert x.side == DOMAIN_SIDE
    assert render_part(x.parts[0]) == "[0 1]"
    assert render_part((parse_scalar("I"), Scalar(0.5))) == "[I 0.5]"


@pytest.mark.parametrize("value, message", [
    pytest.param(10**400, "state part 2, coordinate 3 is an int too large "
                          "for a float", id="int-beyond-float"),
    (True, "state part 2, coordinate 3 = True is not a scalar"),
    ("1", "state part 2, coordinate 3 = '1' is not a scalar"),
    (None, "state part 2, coordinate 3 = None is not a scalar"),
])
def test_seed_coordinate_that_is_not_a_scalar_is_a_domain_error(value,
                                                                 message):
    with pytest.raises(DomainError) as err:
        SpecialStateVector([[1, 0], [0, Scalar(1), value]])
    assert str(err.value) == message


@pytest.mark.parametrize("parts, message", [
    pytest.param([1, 0], "state part 1 must be a sequence, got 1",
                 id="bare-part"),
    pytest.param([[1, 0], 1], "state part 2 must be a sequence, got 1",
                 id="second-part"),
    pytest.param(5, "state parts must be a sequence, got 5", id="no-parts"),
])
def test_seed_part_that_is_not_a_sequence_is_a_shape_mismatch(parts,
                                                               message):
    with pytest.raises(ShapeMismatch) as err:
        SpecialStateVector(parts)
    assert str(err.value) == message


@pytest.mark.parametrize("components, message", [
    pytest.param(5, "union components must be a sequence, got 5",
                 id="no-components"),
    pytest.param([(sq(2),)], "each union component must be a (Matrix, "
                 "ComponentTag) pair", id="one-item"),
    pytest.param([5], "each union component must be a (Matrix, "
                 "ComponentTag) pair", id="bare-component"),
])
def test_union_component_that_is_not_a_pair_is_a_shape_mismatch(components,
                                                                 message):
    with pytest.raises(ShapeMismatch) as err:
        SpecialMatrix(components)
    assert str(err.value) == message


def test_union_pair_of_the_wrong_types_is_a_type_error():
    # a well-shaped pair of other types is a wrongly typed argument
    with pytest.raises(TypeError, match="component 2 must be"):
        SpecialMatrix([(sq(2), ComponentTag()), (ComponentTag(), sq(2))])


# ---------------------------------------------------------------------- apply

def test_cm_part_steps_on_its_own_side():
    m = SpecialMatrix([(tri([[0, 1], [1, 0]]), ComponentTag())])
    x = SpecialStateVector([[Scalar(1), Scalar(0)]])
    assert landing_side(CM, DOMAIN_SIDE, 1) == DOMAIN_SIDE
    assert run_mixed(m, x).trace[0].raw[0] == (Scalar(0), Scalar(1))


def test_rm_part_lands_on_the_far_side_and_returns():
    mat = tri([[1, 0, 1], [0, 1, 0]])
    m = SpecialMatrix([(mat, ComponentTag(kind=RM))])
    x = SpecialStateVector([[Scalar(1), Scalar(0)]], side=DOMAIN_SIDE)
    first, second = run_mixed(m, x).trace[:2]
    assert landing_side(RM, DOMAIN_SIDE, 1) == RANGE_SIDE
    assert first.raw[0] == (Scalar(1), Scalar(0), Scalar(1))
    # the return trip runs against the transpose
    assert landing_side(RM, DOMAIN_SIDE, 2) == DOMAIN_SIDE
    assert len(second.raw[0]) == 2
    assert apply_part(first.updated[0], transpose(mat), "circle") \
        == second.raw[0]


def test_apply_checks_component_count_and_length():
    # the part count is the run's seed check; a part's length, apply_part's
    m = SpecialMatrix([(sq(2), ComponentTag())])
    with pytest.raises(InvalidInput, match="input has 2 parts"):
        run_mixed(m, SpecialStateVector([[Scalar(0), Scalar(1)],
                                         [Scalar(1)]]))
    with pytest.raises(ShapeMismatch):
        apply_part((Scalar(0), Scalar(1), Scalar(1)), sq(2), "circle")


def test_union_slots_do_not_interact():
    a = tri([[0, 1], [1, 0]])
    b = tri([[0, -1], [-1, 0]])
    seed = [Scalar(1), Scalar(0)]
    joint = run_mixed(
        SpecialMatrix([(a, ComponentTag()), (b, ComponentTag())]),
        SpecialStateVector([seed, seed])).trace[0]
    alone0 = run_mixed(SpecialMatrix([(a, ComponentTag())]),
                       SpecialStateVector([seed])).trace[0]
    alone1 = run_mixed(SpecialMatrix([(b, ComponentTag())]),
                       SpecialStateVector([seed])).trace[0]
    assert joint.raw[0] == alone0.raw[0]
    assert joint.raw[1] == alone1.raw[0]


def test_each_component_applies_its_tagged_operator():
    # one circle square, one maxmin membership square whose levels stay raw
    c = tri([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    m = Matrix.from_rows(
        [[Scalar(v) for v in row]
         for row in [[0.2, 0.9, 0.1], [0.8, 0.1, 0.5], [0.3, 0.3, 0.7]]],
        domain=UNIT)
    s = SpecialMatrix([(c, ComponentTag()),
                       (m, ComponentTag(op="maxmin"))])
    x = SpecialStateVector([[Scalar(1), Scalar(0), Scalar(0)],
                            [Scalar(0.5), Scalar(1), Scalar(0)]])
    y = [apply_part(part, mat, tag.op)
         for (mat, tag), part in zip(s, x.parts)]
    assert y[0] == (Scalar(0), Scalar(1), Scalar(0))
    # maxmin row: max(min(.5,.2),min(1,.8),min(0,.3)) etc.
    assert y[1] == (Scalar(0.8), Scalar(0.5), Scalar(0.5))


@pytest.mark.parametrize("op, product", [("circle", mat_mul),
                                         ("maxmin", maxmin_compose),
                                         ("minmax", minmax_compose)])
def test_apply_part_is_one_row_of_the_product(op, product):
    m = Matrix.from_rows([[Scalar(0.2), I, Scalar(1), Scalar(0)],
                          [Scalar(0.7), Scalar(0.4), I, Scalar(1)],
                          [Scalar(0), Scalar(0.9), Scalar(0.3), I]])
    part = (Scalar(0.5), I, Scalar(1))
    assert apply_part(part, m, op) == product(row_vector(part), m).row(0)
