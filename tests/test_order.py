"""The scalar order against a spec of its rule, through every caller.

`spec_pair` restates the order rule with plain predicates on the two
coefficients: a mixed operand has no order (the first one is named), equal
operands give (a, a), reals and pure multiples of I compare among
themselves, and a real against a pure multiple of I goes to the
indeterminate under INDETERMINACY_DOMINANT and by magnitude under
BOOK_DEFAULT, where a tie gives (indet, indet). That BOOK_DEFAULT rule is
not transitive once a negative real meets a pure multiple of I
(-2 < 1 < 1.5I < -2); the spec holds the rule as it stands. The engine
must return the very operand objects the spec picks, since memos and
trace rendering share tuples by identity.
"""

import contextlib
import math
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymaps import (
    Matrix,
    OrderPolicy,
    OrderUndefined,
    Scalar,
    ValueDomain,
    elementwise_max,
    elementwise_min,
    maxmin_compose,
    minmax_compose,
    render_scalar,
    scalar_max,
    scalar_min,
    sigma,
)
from fuzzymaps import matrices as matrices_module, special
from fuzzymaps.matrices import fold_row, operators
from fuzzymaps.special import apply_part
from fuzzymaps.values import _ORDER_FLIP, _order_code, _order_pair

BOOK = OrderPolicy.BOOK_DEFAULT
INDET = OrderPolicy.INDETERMINACY_DOMINANT
POLICIES = (BOOK, INDET)


class SpecUndefined(Exception):
    def __init__(self, operand):
        super().__init__(operand)
        self.operand = operand


def _mixed(x):
    return x.real_part != 0.0 and x.indet_coeff != 0.0


def _real(x):
    return x.indet_coeff == 0.0


def _pure_indet(x):
    return x.real_part == 0.0 and x.indet_coeff != 0.0


def spec_pair(a, b, policy):
    """(min, max) of two Scalars under `policy`, as the operands."""
    if _mixed(a) or _mixed(b):
        raise SpecUndefined(a if _mixed(a) else b)
    if a.real_part == b.real_part and a.indet_coeff == b.indet_coeff:
        return a, a
    if _real(a) and _real(b):
        return (a, b) if a.real_part < b.real_part else (b, a)
    if _pure_indet(a) and _pure_indet(b):
        return (a, b) if a.indet_coeff < b.indet_coeff else (b, a)
    real, indet = (a, b) if _real(a) else (b, a)
    if policy is INDET:
        return indet, indet
    mr, mi = abs(real.real_part), abs(indet.indet_coeff)
    if mr == mi:
        return indet, indet
    return (real, indet) if mr < mi else (indet, real)


def spec_min(policy):
    return lambda a, b: spec_pair(a, b, policy)[0]


def spec_max(policy):
    return lambda a, b: spec_pair(a, b, policy)[1]


def outcome(fn):
    """What `fn()` gives: ("ok", value) or ("undefined", the text naming
    the operand without an order)."""
    try:
        return "ok", fn()
    except SpecUndefined as exc:
        return "undefined", (f"{render_scalar(exc.operand)} has no defined "
                             f"order")
    except OrderUndefined as exc:
        return "undefined", str(exc)


def assert_same(got, want, same=lambda g, w: g is w):
    """Equal outcomes: the same objects (`same`) or the same operand
    named."""
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert len(got[1]) == len(want[1])
        assert all(same(g, w) for g, w in zip(got[1], want[1])), (got, want)
    else:
        assert got[1] == want[1]


# few coefficients, so that equal values and |n| = |nI| ties come up often
coeffs = st.one_of(
    st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0]),
    st.floats(-5, 5, allow_nan=False))
nonzero = coeffs.filter(bool)
reals = coeffs.map(Scalar)
pure_indets = nonzero.map(lambda c: Scalar(0, c))
mixeds = st.tuples(nonzero, nonzero).map(lambda t: Scalar(*t))
ordered = st.one_of(reals, pure_indets)
operands = st.one_of(reals, pure_indets, mixeds)


def copy_of(x):
    """The same value in another object."""
    return Scalar(x.real_part, x.indet_coeff)


@settings(max_examples=400, deadline=None)
@given(operands, operands, st.sampled_from(POLICIES))
def test_order_pair_matches_the_spec(a, b, policy):
    for x, y in ((a, b), (b, a), (a, a), (a, copy_of(a))):
        assert_same(outcome(lambda: _order_pair(x, y, policy)),
                    outcome(lambda: spec_pair(x, y, policy)))


# the unit carrier, where fre's entries lie
unit_coeffs = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                        st.floats(0, 1))
carrier = st.one_of(unit_coeffs.map(Scalar),
                    unit_coeffs.filter(bool).map(lambda c: Scalar(0, c)))


@settings(max_examples=200, deadline=None)
@given(carrier, carrier)
def test_fre_strict_domination_matches_the_spec(a, b):
    # p-hat's sigma(q, r) is r exactly when q strictly dominates r, and
    # else 1, which nothing on the carrier dominates
    for x, y in ((a, b), (b, a), (a, a), (a, copy_of(a))):
        got = sigma(x, y, neutrosophic=True)
        assert (got == y and y != 1) \
            == (x != y and spec_pair(x, y, BOOK) == (y, x))
        assert got in (y, 1)


@settings(max_examples=200, deadline=None)
@given(operands, operands, st.sampled_from(POLICIES))
def test_scalar_min_and_max_match_the_spec(a, b, policy):
    for x, y in ((a, b), (b, a)):
        for fn, end in ((scalar_min, 0), (scalar_max, 1)):
            want = outcome(lambda: (spec_pair(x, y, policy)[end],))
            assert_same(outcome(lambda: (fn(x, y, policy),)), want)
            assert_same(outcome(lambda: (fn(x, y, policy.value),)), want)


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 3), st.floats(-3, 3, allow_nan=False), operands,
       st.sampled_from(POLICIES))
def test_scalar_min_and_max_accept_numbers(n, f, b, policy):
    # an int or float operand is read as the real Scalar it coerces to
    for x, y in ((n, b), (b, f), (n, f)):
        sx = x if isinstance(x, Scalar) else Scalar(x)
        sy = y if isinstance(y, Scalar) else Scalar(y)
        for fn, end in ((scalar_min, 0), (scalar_max, 1)):
            assert_same(outcome(lambda: (fn(x, y, policy),)),
                        outcome(lambda: (spec_pair(sx, sy, policy)[end],)),
                        same=lambda g, w: g == w)


def matrices(rows, cols, cells=operands):
    return st.lists(cells, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: Matrix(rows, cols, xs, ValueDomain.ANY))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(POLICIES))
def test_entrywise_min_and_max_match_the_spec(data, rows, cols, policy):
    # ordered values only, or now and then a mixed value among them
    cells = data.draw(st.sampled_from([ordered, operands]))
    a = data.draw(matrices(rows, cols, cells))
    b = data.draw(matrices(rows, cols, cells))
    for x, y in ((a, b), (b, a)):
        for fn, spec in ((elementwise_min, spec_min(policy)),
                         (elementwise_max, spec_max(policy))):
            assert_same(
                outcome(lambda: fn(x, y, policy).entries),
                outcome(lambda: tuple(map(spec, x.entries, y.entries))))


def spec_compose(p, q, inner, outer):
    """Entry (i, j) folds inner(p_ik, q_kj) over k with outer, from k = 0
    up, in the order the entries are stored."""
    return tuple(reduce(outer, map(inner, p.row(i), q.entries[j::q.cols]))
                 for i in range(p.rows) for j in range(q.cols))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(POLICIES))
def test_compositions_match_the_spec(data, m, n, s, policy):
    cells = data.draw(st.sampled_from([ordered, operands]))
    p = data.draw(matrices(m, n, cells))
    q = data.draw(matrices(n, s, cells))
    low, high = spec_min(policy), spec_max(policy)
    assert_same(outcome(lambda: maxmin_compose(p, q, policy).entries),
                outcome(lambda: spec_compose(p, q, low, high)))
    assert_same(outcome(lambda: minmax_compose(p, q, policy).entries),
                outcome(lambda: spec_compose(p, q, high, low)))


numbers = st.one_of(st.integers(-2, 2), st.sampled_from([0.0, 0.5, 1.0]),
                    st.floats(-2, 2, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(POLICIES))
def test_apply_part_matches_the_spec(data, rows, cols, policy):
    mat = data.draw(matrices(rows, cols, ordered))
    scalars = data.draw(st.lists(ordered, min_size=rows, max_size=rows))
    plain = data.draw(st.lists(numbers, min_size=rows, max_size=rows))
    low, high = spec_min(policy), spec_max(policy)
    for op, inner, outer in (("maxmin", low, high),
                             ("minmax", high, low)):
        col = [mat.entries[j::cols] for j in range(cols)]
        # a Scalar part: the very operands the spec picks
        got = apply_part(scalars, mat, op, policy)
        want = [reduce(outer, map(inner, scalars, c)) for c in col]
        assert len(got) == cols
        assert all(g is w for g, w in zip(got, want))
        # an int/float part: read as the real Scalars it coerces to
        coerced = [Scalar(v) for v in plain]
        got = apply_part(plain, mat, op, policy)
        want = [reduce(outer, map(inner, coerced, c)) for c in col]
        assert all(isinstance(g, Scalar) for g in got)
        assert list(got) == want
    # the circle product takes numbers too
    assert apply_part(plain, mat, "circle") == apply_part(
        [Scalar(v) for v in plain], mat, "circle")


@pytest.mark.parametrize("policy", POLICIES)
def test_order_codes_order_values_as_min_and_max_do(policy):
    magnitudes = [0.0, 0.3, 1.0, 1.5, math.inf]
    values = [Scalar(m) for m in magnitudes] \
        + [Scalar(0, m) for m in magnitudes if m] \
        + [Scalar(m) for m in magnitudes]  # equal values, other objects
    code = {id(x): _order_code(x.real_part, x.indet_coeff, policy)
            for x in values}
    flip = _ORDER_FLIP[policy]
    for a in values:
        for b in values:
            low, high = _order_pair(a, b, policy)
            assert (low is a) == (code[id(a)] <= code[id(b)])
            assert (high is a) == (code[id(a)] ^ flip >= code[id(b)] ^ flip)
    # a negative or NaN coefficient, or a mixed value, has no code
    for real, indet in ((-0.5, 0.0), (0.0, -1.0), (math.nan, 0.0),
                        (0.0, math.nan), (0.5, 0.5)):
        assert _order_code(real, indet, policy) is None


def reals_and_indets(coeffs):
    """Reals and multiples of I of the coefficients `coeffs`, each drawn
    as a new object."""
    return st.one_of(st.builds(Scalar, coeffs),
                     st.builds(lambda b: Scalar(0, b), coeffs))


# Values with an order code (values._order_code) and values without one.
# Few magnitudes, so that equal values in distinct objects and n against
# nI ties come up often; values above 1 have codes too.
coded = reals_and_indets(st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5]))
negatives = reals_and_indets(st.sampled_from([-0.5, -1.0]))
nans = reals_and_indets(st.just(math.nan))
mixed = st.builds(Scalar, st.sampled_from([0.5, -0.3]),
                  st.sampled_from([0.5, 1.0]))
# coded values alone, or with values of one kind without a code, or of
# every kind
cell_kinds = st.sampled_from([
    coded, *(st.one_of(coded, kind) for kind in (negatives, nans, mixed)),
    st.one_of(coded, negatives, nans, mixed)])


def has_code(x):
    return (x.real_part >= 0 and x.indet_coeff >= 0
            and not (x.real_part and x.indet_coeff))


def scalar_fold(rows, q, op, policy):
    """The reference: each row folded in the Scalar order, as outcome()
    reports it."""
    return outcome(lambda: tuple(
        cell for row in rows
        for cell in fold_row(tuple(row), q, *operators(op, policy))))


@contextlib.contextmanager
def coded_path_spy():
    """Record (row, served) for each call of matrices._coded_row within
    the block, where served tells whether it returned a result rather
    than None."""
    calls = []
    real = matrices_module._coded_row

    def spy(row, b, op, policy):
        out = real(row, b, op, policy)
        calls.append((row, out is not None))
        return out

    for module in (matrices_module, special):
        module._coded_row = spy
    try:
        yield calls
    finally:
        for module in (matrices_module, special):
            module._coded_row = real


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from(POLICIES))
def test_coded_fold_matches_the_scalar_fold(data, m, n, s, policy):
    cells = data.draw(cell_kinds)
    p = data.draw(matrices(m, n, cells))
    q = data.draw(matrices(n, s, cells))
    for op, compose in (("maxmin", maxmin_compose),
                        ("minmax", minmax_compose)):
        for call, rows in ((lambda: apply_part(p.row(0), q, op, policy),
                            [p.row(0)]),
                           (lambda: compose(p, q, policy).entries,
                            [p.row(i) for i in range(m)])):
            want = scalar_fold(rows, q, op, policy)
            with coded_path_spy() as served:
                assert_same(outcome(call), want)
            # the coded path serves each row whose values and q's all
            # have codes, and no other row
            for row, ok in served:
                assert ok == all(map(has_code, row + q.entries))
            if want[0] == "ok":
                assert [row for row, _ in served] == rows


def test_a_negative_value_never_takes_the_coded_path():
    """ROADMAP item 1's probe, as the order stands. Under BOOK_DEFAULT a
    negative real against a multiple of I is ordered by magnitude, which
    is not transitive (-0.9 < 0.5 < 0.7I < -0.9), so the Scalar fold's
    answer depends on the order of the column. A negative value has no
    order code, so these folds stay on the Scalar path. Item 1's spec
    decision (raise OrderUndefined, or order nI as the signed n) will
    change both answers."""
    row = Matrix.from_rows([[1, 1, 1]])
    for column, want in (([-0.9, 0.5, Scalar(0, 0.7)], "0.7I"),
                         ([0.5, Scalar(0, 0.7), -0.9], "-0.9")):
        with coded_path_spy() as served:
            got = maxmin_compose(row, Matrix.from_rows([[v] for v in column]))
        assert render_scalar(got.at(0, 0)) == want
        assert served == [(row.row(0), False)]
