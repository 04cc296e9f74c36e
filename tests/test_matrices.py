"""Matrix construction, composition operators, and entrywise algebra.

Numeric expectations were derived by hand with the scalar rules and
cross-checked against an independent recomputation before being frozen
here.
"""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymaps import (
    I,
    DomainError,
    Matrix,
    Scalar,
    ShapeMismatch,
    ValueDomain,
    check_necessary,
    elementwise_max,
    elementwise_min,
    failing_columns,
    mat_add,
    mat_mul,
    maxmin_compose,
    minimal_solutions_bruteforce,
    minmax_compose,
    parse_scalar,
    render_scalar,
    solve_max,
    transpose,
)
from fuzzymaps.matrices import row_vector
from fuzzymaps.values import coerce

UNIT = ValueDomain.UNIT
TRI = ValueDomain.TRI
ANY = ValueDomain.ANY


def unit(rows):
    return Matrix.from_rows([[Scalar(v) for v in r] for r in rows],
                            domain=UNIT)


def neutro(rows):
    return Matrix.from_rows([[parse_scalar(str(v)) for v in r] for r in rows],
                            domain=ValueDomain.ANY)


def grid(m):
    return [[cell.real_part for cell in m.row(i)] for i in range(m.rows)]


# -------------------------------------------------------------- construction

def test_shape_and_access():
    m = unit([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    assert m.shape == (2, 3)
    assert not m.is_square
    assert m.at(1, 2) == Scalar(0.6)
    assert [c.real_part for c in m.row(0)] == [0.1, 0.2, 0.3]


def test_ragged_rows_rejected():
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows([[Scalar(0)], [Scalar(0), Scalar(1)]])


def test_domain_violation_names_cell():
    with pytest.raises(DomainError) as err:
        unit([[0.5, 1.5]])
    assert "(1,2)" in str(err.value)


def test_with_domain_revalidates():
    m = Matrix.from_rows([[Scalar(-1), Scalar(0.5)]], domain=ANY)
    with pytest.raises(DomainError):
        m.with_domain(UNIT)
    assert m.with_domain(TRI if False else ANY).domain is ANY


@pytest.mark.parametrize("entry, message", [
    (True, "entry (1,1) = True is not a scalar"),
    ("1", "entry (1,1) = '1' is not a scalar"),
    (None, "entry (1,1) = None is not a scalar"),
    pytest.param(10**400, "entry (1,1) is an int too large for a float",
                 id="int-beyond-float"),
    pytest.param(-10**400, "entry (1,1) is an int too large for a float",
                 id="negative-int-beyond-float"),
])
def test_entry_that_is_not_a_scalar_is_a_domain_error(entry, message):
    with pytest.raises(DomainError) as err:
        Matrix(1, 1, [entry])
    assert str(err.value) == message
    # named at its own cell, after entries that are fine
    with pytest.raises(DomainError, match=r"^entry \(2,1\) "):
        Matrix(2, 2, [0, Scalar(1), entry, 0.5])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Matrix(1, 1, 5),
                 "matrix entries must be a sequence, got 5", id="entries"),
    pytest.param(lambda: Matrix.from_rows(5),
                 "matrix rows must be a sequence, got 5", id="rows"),
    pytest.param(lambda: Matrix.from_rows([[0, 1], 2]),
                 "a matrix row must be a sequence, got 2", id="row"),
    pytest.param(lambda: Matrix.from_rows(iter([[0, 1], 2])),
                 "a matrix row must be a sequence, got 2",
                 id="row-of-iterator"),
    pytest.param(lambda: row_vector(0.5),
                 "row vector values must be a sequence, got 0.5",
                 id="row-vector"),
])
def test_entries_that_are_not_a_sequence_are_a_shape_mismatch(build,
                                                              message):
    # a bare number where a sequence belongs, not a leaked TypeError
    with pytest.raises(ShapeMismatch) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("rows, cols", [
    ("x", 1), (1, "2"), (1.5, 1), (1, 2.0), (True, 1), (1, False), (None, 1)])
def test_shape_that_is_not_two_ints_is_a_shape_mismatch(rows, cols):
    with pytest.raises(ShapeMismatch, match="is not two ints"):
        Matrix(rows, cols, [1])


# an entry pool whose objects repeat: shared Scalars, ints, floats, some
# inside [0, 1] and some outside it
_SHARED = [Scalar(0), Scalar(1), Scalar(0.5), Scalar(2), Scalar(-1), I,
           Scalar(0.5, 0.5)]
_POOL = _SHARED + [0, 1, 0.5, 2, -1, 1.5, 0.0, -0.5]


def _reference_domain_error(cols, entries, domain):
    """The first entry, in row-major order, outside `domain`, as Matrix
    names it, each entry checked in turn; None if all are inside."""
    for idx, entry in enumerate(entries):
        cell = coerce(entry)
        if not domain.contains(cell):
            return (f"entry ({idx // cols + 1},{idx % cols + 1}) = "
                    f"{render_scalar(cell)} is outside domain {domain.value}")
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data(),
       st.sampled_from(list(ValueDomain)))
def test_domain_error_names_the_entry_an_entry_by_entry_check_names(
        rows, cols, data, domain):
    entries = data.draw(st.lists(st.sampled_from(_POOL),
                                 min_size=rows * cols, max_size=rows * cols))
    expected = _reference_domain_error(cols, entries, domain)
    if expected is None:
        m = Matrix(rows, cols, entries, domain)
        assert m.entries == tuple(map(coerce, entries))
        # Scalar entries are kept as the objects given
        assert all(a is b for a, b in zip(m.entries, entries)
                   if isinstance(b, Scalar))
    else:
        with pytest.raises(DomainError) as err:
            Matrix(rows, cols, entries, domain)
        assert str(err.value) == expected


def test_domain_error_names_the_first_of_a_repeated_bad_entry():
    bad = Scalar(2)
    entries = [Scalar(0), bad, Scalar(1), bad, Scalar(3), bad]
    with pytest.raises(DomainError) as err:
        Matrix(2, 3, entries, UNIT)
    assert str(err.value) == "entry (1,2) = 2 is outside domain unit"
    # the first distinct entry is fine; a later, repeated one is not
    entries = [Scalar(0)] * 4 + [bad] * 2
    with pytest.raises(DomainError) as err:
        Matrix(3, 2, entries, UNIT)
    assert str(err.value) == "entry (3,1) = 2 is outside domain unit"
    # a non-finite entry, which render_scalar rejects, is named as well
    with pytest.raises(DomainError) as err:
        Matrix(1, 2, [1, math.inf], UNIT)
    assert str(err.value) == "entry (1,2) = inf is outside domain unit"


def test_builders():
    v = row_vector([Scalar(0.3), Scalar(0.4)], domain=UNIT)
    assert v.shape == (1, 2)


def test_equality_includes_domain_and_shape():
    a = unit([[0.5]])
    b = Matrix.from_rows([[Scalar(0.5)]], domain=ANY)
    assert a != b
    assert a == unit([[0.5]])
    assert unit([[0.5]]) != unit([[0.5, 0.5]])


# -------------------------------------------------------- entrywise max / min

def test_entrywise_max_preference_tables():
    a = unit([[0.8, 1, 0, 0.3], [0.3, 0.2, 0.4, 1], [0.1, 0, 0.7, 0.8]])
    b = unit([[0.9, 0.8, 0.7, 0], [0.1, 1, 0, 0.3], [0.2, 0.5, 0.5, 0.8]])
    want = [[0.9, 1, 0.7, 0.3], [0.3, 1, 0.4, 1], [0.2, 0.5, 0.7, 0.8]]
    assert grid(elementwise_max(a, b)) == want


def test_entrywise_min_preference_tables():
    a = unit([[0.3, 1, 0.8], [1, 0.3, 0.9], [0, 0.8, 0.3], [0.7, 0.2, 1],
              [1, 0, 0.8]])
    b = unit([[1, 0.8, 0], [0.3, 0.2, 0.5], [0.1, 1, 0.5], [1, 0.3, 0],
              [0.5, 0, 1]])
    want = [[0.3, 0.8, 0], [0.3, 0.2, 0.5], [0, 0.8, 0.3], [0.7, 0.2, 0],
            [0.5, 0, 0.8]]
    assert grid(elementwise_min(a, b)) == want


def test_entrywise_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        elementwise_max(unit([[0.5]]), unit([[0.5, 0.5]]))


# ------------------------------------------------------------------ compose

A_33 = [[0.3, 0.1, 0.6], [0, 0.7, 1], [0.4, 0.2, 0.3]]
B_34 = [[0.6, 0.2, 0, 0.7], [0.3, 0.8, 0.2, 0], [1, 0.1, 0.4, 1]]


def test_maxmin_compose_rect():
    got = maxmin_compose(unit(A_33), unit(B_34))
    assert grid(got) == [[0.6, 0.2, 0.4, 0.6], [1, 0.7, 0.4, 1],
                         [0.4, 0.2, 0.3, 0.4]]


def test_minmax_compose_rect():
    got = minmax_compose(unit(A_33), unit(B_34))
    assert grid(got) == [[0.3, 0.3, 0.2, 0.1], [0.6, 0.2, 0, 0.7],
                         [0.3, 0.3, 0.2, 0.2]]


def test_maxmin_compose_is_not_commutative():
    a = unit([[0.3, 0.1, 1], [0.6, 0.3, 0.8], [0, 0.4, 0.5]])
    b = unit([[1, 0.4, 0.9], [0.8, 0.6, 0.2], [0.7, 0.4, 1]])
    assert grid(maxmin_compose(a, b)) == [[0.7, 0.4, 1], [0.7, 0.4, 0.8],
                                          [0.5, 0.4, 0.5]]
    assert grid(maxmin_compose(b, a)) == [[0.4, 0.4, 1], [0.6, 0.3, 0.8],
                                          [0.4, 0.4, 0.7]]


def test_minmax_compose_is_not_commutative():
    a = unit([[1, 0.3, 0.2], [0.4, 1, 0.5], [0.7, 0.3, 1]])
    b = unit([[0.3, 1, 0.8], [0.7, 0.7, 1], [1, 0.6, 0.3]])
    assert grid(minmax_compose(a, b)) == [[0.7, 0.6, 0.3], [0.4, 0.6, 0.5],
                                          [0.7, 0.7, 0.8]]
    assert grid(minmax_compose(b, a)) == [[0.8, 0.3, 0.3], [0.7, 0.7, 0.7],
                                          [0.6, 0.3, 0.6]]


def test_compose_inner_dimension_check():
    with pytest.raises(ShapeMismatch):
        maxmin_compose(unit([[0.5, 0.5]]), unit([[0.5, 0.5]]))


def test_vec_mat_maxmin_expertise_scores():
    a = unit([[0.1, 0.3, 1, 0.2, 1, 0, 0.8],
              [0.5, 1, 0.5, 0.6, 1, 0.7, 0.2],
              [1, 0.4, 0.5, 1, 0.7, 0.7, 1],
              [0.7, 0, 1, 0.2, 0.6, 1, 0],
              [0.6, 0.8, 0.6, 0.3, 1, 0.2, 0.3]])
    m = row_vector([Scalar(v) for v in (1, 0, 0, 1, 0, 1, 1)], domain=UNIT)
    back = maxmin_compose(m, transpose(a))
    assert [c.real_part for c in back.row(0)] == [0.8, 0.7, 1, 1, 0.6]
    fwd = maxmin_compose(back, a)
    assert [c.real_part for c in fwd.row(0)] == [1, 0.7, 1, 1, 0.8, 1, 1]


# ------------------------------------------------------------------ transpose

def test_transpose_swaps_shape():
    m = unit([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    t = transpose(m)
    assert t.shape == (3, 2)
    assert t.at(2, 1) == Scalar(0.6)
    assert transpose(t) == m


def test_transpose_preserves_domain():
    m = neutro([["I", "2+3I"], ["0", "-1"]])
    assert transpose(m).domain is m.domain


def test_transpose_keeps_the_entries_and_starts_with_no_memos():
    m = Matrix.from_rows([[Scalar(0.1), Scalar(0.2), Scalar(0.3)],
                          [Scalar(0.4), I, Scalar(0.6)]],
                         domain=ValueDomain.NEUTRO_UNIT)
    m._memo(lambda mat: "kept")
    t = transpose(m)
    assert all(t.at(j, i) is m.at(i, j)
               for i in range(m.rows) for j in range(m.cols))
    assert t.domain is ValueDomain.NEUTRO_UNIT and t.shape == (3, 2)
    assert t._memos is None
    # it is the matrix that checking the same entries builds
    same = Matrix(3, 2, t.entries, ValueDomain.NEUTRO_UNIT)
    assert t == same and hash(t) == hash(same) and t != m
    back = pickle.loads(pickle.dumps(t))
    assert back == t and back.domain is t.domain and back._memos is None
    with pytest.raises(AttributeError):
        t.rows = 4


# --------------------------------------------------------- ring-style algebra

def test_mat_add_componentwise():
    s = neutro([["0", "4", "7I-1", "2", "-I"],
                ["2I", "0", "4I+1", "0", "9I"],
                ["7+3I", "0.9-2I", "3", "9I", "2-I"]])
    t = neutro([["5+I", "7+I", "2-I", "9+I", "0"],
                ["7I", "2-I", "3+8I", "1", "7"],
                ["3-0.8I", "0.9", "9", "0", "4+I"]])
    want = neutro([["5+I", "11+I", "1+6I", "11+I", "-I"],
                   ["9I", "2-I", "4+12I", "1", "7+9I"],
                   ["10+2.2I", "1.8-2I", "12", "9I", "6"]])
    got = mat_add(s, t)
    for i in range(3):
        for j in range(5):
            assert got.at(i, j) == want.at(i, j)


def test_mat_add_sums_and_cancels():
    # summing opinion matrices: opposite opinions cancel, and a fuzzy and
    # a neutrosophic opinion tally into a mixed value
    a = Matrix.from_rows([[Scalar(0), Scalar(1)], [Scalar(-1), Scalar(0)]],
                         domain=TRI)
    b = Matrix.from_rows([[Scalar(0), Scalar(-1)], [Scalar(1), Scalar(0)]],
                         domain=TRI)
    combined = mat_add(a, b)
    assert combined.at(0, 1) == Scalar(0)
    assert combined.at(1, 0) == Scalar(0)
    c = Matrix.from_rows([[Scalar(0), parse_scalar("I")],
                          [Scalar(1), Scalar(0)]],
                         domain=ValueDomain.NEUTRO_TRI)
    assert mat_add(a, c).at(0, 1) == parse_scalar("1+I")


def test_mat_mul_annihilating_product():
    a = neutro([["7+I", "I"], ["I", "-6I"]])
    b = neutro([["7-I", "0"], ["I", "0"]])
    got = mat_mul(a, b)
    assert got.at(0, 0) == Scalar(49)
    assert got.at(0, 1) == Scalar(0)
    assert got.at(1, 0) == Scalar(0)
    assert got.at(1, 1) == Scalar(0)


def test_mat_mul_rectangular():
    a = neutro([["0", "I", "2-I"], ["4-I", "0", "7"], ["8I", "-1", "0"]])
    b = neutro([["7I-1", "2+I", "3-I", "5-I", "0"],
                ["0", "7I", "2", "0", "3"],
                ["8+I", "3I", "-I", "1", "0"]])
    want = neutro([["16-7I", "10I", "I", "2-I", "3I"],
                   ["52+29I", "8+22I", "12-13I", "27-8I", "0"],
                   ["48I", "17I", "-2+16I", "32I", "-3"]])
    got = mat_mul(a, b)
    assert got.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            assert got.at(i, j) == want.at(i, j)


def test_mat_mul_inner_dimension_check():
    with pytest.raises(ShapeMismatch):
        mat_mul(neutro([["1", "2"]]), neutro([["1", "2"]]))


def test_identity_is_mat_mul_neutral():
    a = neutro([["7+I", "I"], ["I", "-6I"]])
    e = Matrix.from_rows([[1, 0], [0, 1]], domain=ANY)
    assert mat_mul(a, e) == mat_mul(e, a)
    assert mat_mul(a, e).at(0, 0) == a.at(0, 0)


# -------------------------------------------------------- randomized algebra

unit_entries = st.integers(0, 10).map(lambda n: Scalar(n / 10))


def square(n):
    return st.lists(st.lists(unit_entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: Matrix.from_rows(rows, domain=UNIT))


@given(square(3), square(3))
def test_entrywise_ops_commute(a, b):
    assert elementwise_max(a, b) == elementwise_max(b, a)
    assert elementwise_min(a, b) == elementwise_min(b, a)


@given(square(3))
def test_transpose_involution(a):
    assert transpose(transpose(a)) == a


@given(square(3), square(3))
def test_compose_transpose_antihomomorphism(a, b):
    lhs = transpose(maxmin_compose(a, b))
    rhs = maxmin_compose(transpose(b), transpose(a))
    assert lhs == rhs


@given(square(3))
def test_maxmin_identity_under_crisp_unit(a):
    # identity is only neutral on the max-min side when entries stay <= 1
    e = unit([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert maxmin_compose(a, e) == maxmin_compose(e, a)


_M = Matrix.from_rows([[0.5]], domain=UNIT)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: solve_max("x", [1]), "q", id="solve_max"),
    pytest.param(lambda: failing_columns(5, [1]), "q",
                 id="failing_columns"),
    pytest.param(lambda: check_necessary(None, [1]), "q",
                 id="check_necessary"),
    pytest.param(lambda: minimal_solutions_bruteforce([[1]], [1]), "q",
                 id="minimal_solutions_bruteforce"),
    pytest.param(lambda: maxmin_compose(5, 5), "p", id="maxmin_compose"),
    pytest.param(lambda: minmax_compose(_M, "q"), "q", id="minmax_compose"),
    pytest.param(lambda: elementwise_max(5, _M), "a", id="elementwise_max"),
    pytest.param(lambda: elementwise_min(_M, 5), "b", id="elementwise_min"),
    pytest.param(lambda: mat_mul(_M, [[1]]), "b", id="mat_mul"),
    pytest.param(lambda: mat_add((), _M), "a", id="mat_add"),
    pytest.param(lambda: transpose([[1]]), "a", id="transpose"),
])
def test_a_wrongly_typed_matrix_is_a_type_error_naming_it(call, name):
    # a wrongly typed matrix argument fails before any check of its value,
    # not as an AttributeError from inside
    with pytest.raises(TypeError, match=f"^{name} must be a Matrix, got "):
        call()
