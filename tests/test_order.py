"""The scalar order against its spec (tests/spec_oracle.py), through every
caller.

The oracle holds values as (a, b) pairs and states the pairwise rule and
the fold rule of PAPER.md's Ordering paragraph under both policies. Each
test hands it the pairs of the engine's Scalars and maps the pairs it
picks back to those Scalars: the engine must return the very operand
objects the oracle picks, since memos and trace rendering share tuples by
identity, and must raise OrderUndefined naming the values it names.
"""

import contextlib
import math
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import spec_oracle as spec
from replay import Oracle
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
    scalar_max,
    scalar_min,
    sigma,
)
from fuzzymaps import matrices as matrices_module, special
from fuzzymaps.special import apply_part
from fuzzymaps.values import (
    _ORDER_FLIP,
    _named,
    _order_codes,
    _order_pair,
)

BOOK = OrderPolicy.BOOK_DEFAULT
INDET = OrderPolicy.INDETERMINACY_DOMINANT
POLICIES = (BOOK, INDET)


def outcome(fn):
    """What `fn()` gives: ("ok", value) or ("undefined", the message that
    names the values without an order)."""
    try:
        return "ok", fn()
    except spec.Undefined as exc:
        names = [_named(Scalar(*x)) for x in exc.values]
        if len(names) == 1:
            return "undefined", f"{names[0]} has no defined order"
        return "undefined", f"{names[0]} and {names[1]} have no defined order"
    except OrderUndefined as exc:
        return "undefined", str(exc)


def assert_same(got, want, same=lambda g, w: g is w):
    """Equal outcomes: the same objects (`same`) or the same message."""
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert len(got[1]) == len(want[1])
        assert all(same(g, w) for g, w in zip(got[1], want[1])), (got, want)
    else:
        assert got[1] == want[1]


def reals_and_indets(coeffs):
    """Reals and pure multiples of I of the coefficients `coeffs`, each
    drawn as a new object."""
    return st.one_of(st.builds(Scalar, coeffs),
                     st.builds(lambda b: Scalar(0, b), coeffs.filter(bool)))


# Few coefficients, so that equal values in distinct objects and n
# against nI ties come up often; reals in [0, 1] (the fuzzy max-min and
# min-max carrier), the unit carrier, values above 1, negative values,
# NaN and mixed values
memberships = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                        st.floats(0, 1))
fuzzy = st.builds(Scalar, memberships)
unit = reals_and_indets(memberships)
coded = reals_and_indets(st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5,
                                          math.inf]))
negatives = reals_and_indets(st.one_of(st.sampled_from([-0.5, -1.0]),
                                       st.floats(-5, 0, allow_nan=False)))
nans = reals_and_indets(st.just(math.nan))
mixed = st.builds(Scalar, st.sampled_from([0.5, -0.3]),
                  st.sampled_from([0.5, 1.0, -1.0]))
operands = st.one_of(coded, negatives, mixed)
# the values of one fold: on the fuzzy or the unit carrier, coded values
# alone, or with values of one kind that may have no order, or of every
# kind
cell_kinds = st.sampled_from([
    fuzzy, unit, coded, *(st.one_of(coded, kind) for kind in (negatives,
                                                              nans, mixed)),
    st.one_of(coded, negatives, nans, mixed)])


def copy_of(x):
    """The same value in another object."""
    return Scalar(x.real_part, x.indet_coeff)


def matrices(rows, cols, cells):
    return st.lists(cells, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: Matrix(rows, cols, xs, ValueDomain.ANY))


@settings(max_examples=400, deadline=None)
@given(st.one_of(operands, nans), st.one_of(operands, nans),
       st.sampled_from(POLICIES))
def test_order_pair_matches_the_spec(a, b, policy):
    for x, y in ((a, b), (b, a), (a, a), (a, copy_of(a))):
        assert_same(outcome(lambda: _order_pair(x, y, policy)),
                    outcome(lambda: Oracle().pair(x, y, policy)))


@settings(max_examples=200, deadline=None)
@given(unit, unit)
def test_fre_strict_domination_matches_the_spec(a, b):
    # p-hat's sigma(q, r) is r exactly when q strictly dominates r, and
    # else 1, which nothing on the carrier dominates
    for x, y in ((a, b), (b, a), (a, a), (a, copy_of(a))):
        got = sigma(x, y, neutrosophic=True)
        assert (got == y and y != 1) \
            == (x != y and Oracle().pair(x, y, BOOK) == (y, x))
        assert got in (y, 1)


@settings(max_examples=200, deadline=None)
@given(operands, operands, st.sampled_from(POLICIES))
def test_scalar_min_and_max_match_the_spec(a, b, policy):
    for x, y in ((a, b), (b, a)):
        for fn, end in ((scalar_min, 0), (scalar_max, 1)):
            want = outcome(lambda: (Oracle().pair(x, y, policy)[end],))
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
                        outcome(lambda: (Oracle().pair(sx, sy, policy)[end],)),
                        same=lambda g, w: g == w)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(POLICIES))
def test_entrywise_min_and_max_match_the_spec(data, rows, cols, policy):
    cells = data.draw(cell_kinds)
    a = data.draw(matrices(rows, cols, cells))
    b = data.draw(matrices(rows, cols, cells))
    for x, y in ((a, b), (b, a)):
        for fn, end in ((elementwise_min, 0), (elementwise_max, 1)):
            oracle = Oracle()
            assert_same(
                outcome(lambda: fn(x, y, policy).entries),
                outcome(lambda: tuple(oracle.pair(v, w, policy)[end] for v, w
                                      in zip(x.entries, y.entries))))


@contextlib.contextmanager
def coded_path_spy():
    """Record each row that matrices._coded_row folds within the block
    (a call that raises records none)."""
    rows = []
    real = matrices_module._coded_row

    def spy(row, b, op, policy):
        out = real(row, b, op, policy)
        rows.append(row)
        return out

    for module in (matrices_module, special):
        module._coded_row = spy
    try:
        yield rows
    finally:
        for module in (matrices_module, special):
            module._coded_row = real


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from(POLICIES))
def test_compositions_match_the_spec(data, m, n, s, policy):
    cells = data.draw(cell_kinds)
    p = data.draw(matrices(m, n, cells))
    q = data.draw(matrices(n, s, cells))
    for op, compose in (("maxmin", maxmin_compose),
                        ("minmax", minmax_compose)):
        want = outcome(lambda: Oracle().compose(p, q, op, policy))
        with coded_path_spy() as folded:
            assert_same(outcome(lambda: compose(p, q, policy).entries), want)
        # the coded fold serves every row of a composition that does not
        # raise
        if want[0] == "ok":
            assert folded == [p.row(i) for i in range(m)]


numbers = st.one_of(st.integers(-2, 2), st.sampled_from([0.0, 0.5, 1.0]),
                    st.floats(-2, 2, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from(POLICIES))
def test_apply_part_matches_the_spec(data, rows, cols, policy):
    cells = data.draw(cell_kinds)
    mat = data.draw(matrices(rows, cols, cells))
    part = data.draw(st.lists(cells, min_size=rows, max_size=rows))
    plain = data.draw(st.lists(numbers, min_size=rows, max_size=rows))
    coerced = [Scalar(v) for v in plain]
    for op in ("maxmin", "minmax"):
        want = outcome(lambda: Oracle().fold(part, mat, op, policy))
        with coded_path_spy() as folded:
            assert_same(outcome(lambda: apply_part(part, mat, op, policy)),
                        want)
        # the coded fold serves the part whenever it does not raise
        if want[0] == "ok":
            assert folded == [tuple(part)]
        # an int/float part: read as the real Scalars it coerces to
        assert_same(outcome(lambda: apply_part(plain, mat, op, policy)),
                    outcome(lambda: Oracle().fold(coerced, mat, op, policy)),
                    same=lambda g, w: g == w)
    # the circle product takes numbers too (finite values: inf times 0 is
    # NaN, which equals nothing)
    finite = data.draw(matrices(rows, cols, reals_and_indets(
        st.sampled_from([0.0, 0.3, 1.0, 1.5, -0.5]))))
    assert apply_part(plain, finite, "circle") == apply_part(
        coerced, finite, "circle")


def magnitude_pair(a, b, policy):
    """The magnitude rule with no check for a negative value: a real
    against a pure multiple of I compares |a| with |b| under book. Where
    the decided order is defined under INDETERMINACY_DOMINANT or on the
    unit carrier, its answers are this rule's."""
    (ar, ai), (br, bi) = (a.real_part, a.indet_coeff), \
        (b.real_part, b.indet_coeff)
    if (ar, ai) == (br, bi):
        return a, a
    if bool(ai) == bool(bi):
        return (a, b) if ar + ai < br + bi else (b, a)
    real, indet, mr, mi = (b, a, abs(br), abs(ai)) if ai \
        else (a, b, abs(ar), abs(bi))
    if policy is INDET or mr == mi:
        return indet, indet
    return (real, indet) if mr < mi else (indet, real)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(POLICIES))
def test_the_magnitude_rule_stands_where_the_order_was_total(data, n, s,
                                                             policy):
    # the unit carrier under either policy, and under
    # INDETERMINACY_DOMINANT negative values too
    cells = unit if policy is BOOK else st.one_of(coded, negatives)
    part = data.draw(st.lists(cells, min_size=n, max_size=n))
    q = data.draw(matrices(n, s, cells))
    for op in ("maxmin", "minmax"):
        low = lambda a, b: magnitude_pair(a, b, policy)[0]  # noqa: E731
        high = lambda a, b: magnitude_pair(a, b, policy)[1]  # noqa: E731
        inner, outer = (low, high) if op == "maxmin" else (high, low)
        want = [reduce(outer, map(inner, part, q.entries[j::s]))
                for j in range(s)]
        got = apply_part(part, q, op, policy)
        assert all(g is w for g, w in zip(got, want))


@pytest.mark.parametrize("policy", POLICIES)
def test_order_codes_order_values_as_min_and_max_do(policy):
    magnitudes = [0.0, 0.3, 1.0, 1.5, math.inf]
    signed = magnitudes + [-m for m in magnitudes if m]
    values = [Scalar(m) for m in signed] \
        + [Scalar(0, m) for m in signed if m] \
        + [Scalar(m) for m in signed]  # equal values, other objects
    code = dict(zip(map(id, values), _order_codes(values, policy)))
    flip = _ORDER_FLIP[policy]
    oracle = Oracle()
    for a in values:
        for b in values:
            try:
                low, high = oracle.pair(a, b, policy)
            except spec.Undefined:  # a negative value against the other kind
                assert policy is BOOK
                continue
            assert (low is a) == (code[id(a)] <= code[id(b)])
            assert (high is a) == (code[id(a)] ^ flip >= code[id(b)] ^ flip)
    # a NaN coefficient, or a mixed value, has no code
    for value in (Scalar(math.nan), Scalar(0, math.nan), Scalar(0.5, 0.5),
                  Scalar(-0.5, 1)):
        assert _order_codes([Scalar(1), value], policy) is None


def column(*values):
    return Matrix.from_rows([[v] for v in values])


def test_the_probes_of_the_book_cycles_raise_one_error():
    """Under book, -0.9 < 0.5 < 0.7I < -0.9 and -0.5I < 0.4I < 0.45 <
    -0.5I by magnitude. A negative value has no order against the other
    kind, so each fold of the row 1 1 1 raises the same OrderUndefined in
    every order of its column, and the pairwise order raises where the
    cycle closes."""
    row = Matrix.from_rows([[1, 1, 1]])
    for values, message in (
            ((-0.9, 0.5, Scalar(0, 0.7)),
             "-0.9 and 0.7I have no defined order"),
            ((Scalar(0, -0.5), 0.45, Scalar(0, 0.4)),
             "-0.5I and 1 have no defined order")):
        for order in permutations(values):
            for op in ("maxmin", "minmax"):
                with pytest.raises(OrderUndefined) as exc:
                    apply_part([1, 1, 1], column(*order), op)
                assert str(exc.value) == message
            with pytest.raises(OrderUndefined) as exc:
                maxmin_compose(row, column(*order))
            assert str(exc.value) == message
    with pytest.raises(OrderUndefined,
                       match=r"^-0\.5I and 0\.45 have no defined order$"):
        scalar_max(Scalar(0, -0.5), 0.45)
    assert scalar_max(0.45, Scalar(0, 0.4)) == 0.45
    assert scalar_max(Scalar(0, 0.4), Scalar(0, -0.5)) == Scalar(0, 0.4)
    # under indeterminacy the same folds are defined: I wins max and min
    for order in permutations((-0.9, 0.5, Scalar(0, 0.7))):
        assert apply_part([1, 1, 1], column(*order), "maxmin",
                          "indeterminacy") == (Scalar(0, 0.7),)


def test_a_fold_names_the_first_value_without_an_order():
    # a mixed or NaN value of the part before one of the matrix, and the
    # matrix by rows
    q = Matrix.from_rows([[0.5, Scalar(0.5, 1)], [Scalar(1, -1), 0.2]])
    for policy in POLICIES:
        with pytest.raises(OrderUndefined, match=r"^0\.5\+I has no"):
            apply_part([0.1, 0.2], q, "maxmin", policy)
        with pytest.raises(OrderUndefined, match=r"^2-I has no"):
            apply_part([Scalar(2, -1), 0.2], q, "minmax", policy)
        with pytest.raises(OrderUndefined, match=r"^nan has no"):
            apply_part([0.1, math.nan], q, "maxmin", policy)
        with pytest.raises(OrderUndefined, match=r"^nanI has no"):
            apply_part([Scalar(0, math.nan), 0.2], Matrix.from_rows(
                [[0.5], [0.2]]), "maxmin", policy)
