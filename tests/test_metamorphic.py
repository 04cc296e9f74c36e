"""Metamorphic relations: properties a run, a composition or a relational
equation keeps under a change of its input that need no reference
semantics.

Two runs of each drawn union are compared: the union as drawn, and the
union with its experts reordered or duplicated, its concepts relabelled,
its entries moved by an increasing map, or its cut constant moved within
an integer interval. The unions are drawn by the strategies of
test_dynamics, over every kernel: packed, trit, float level and Scalar.
Compositions and equations are drawn over the unit carrier.
"""

import math

from hypothesis import given, settings, strategies as st

from fuzzymaps import (
    CM,
    DOMAIN_SIDE,
    RANGE_SIDE,
    FixedPoint,
    LimitCycle,
    Matrix,
    OrderPolicy,
    Scalar,
    SpecialMatrix,
    SpecialStateVector,
    ValueDomain,
    maxmin_compose,
    minimal_solutions_bruteforce,
    minmax_compose,
    run_mixed,
    solve_max,
)
from test_dynamics import (
    level_runs,
    range_seeded_rm_unions,
    seed,
    tri_runs,
    trit_runs,
)
from test_fre import CARRIER_INDETS, CARRIER_REALS, carrier_systems


def unions():
    """(union, seed, k, policy): a fuzzy or neutrosophic circle union, a
    fuzzy level union, or a range-seeded RM union of any algebra and
    operator under a drawn order policy."""
    book = OrderPolicy.BOOK_DEFAULT
    return st.one_of(
        tri_runs().map(lambda c: (c[0], c[1], c[2], book)),
        trit_runs().map(lambda c: (c[0], c[1], c[2], book)),
        level_runs().map(lambda c: (c[0], c[1], 0.0, book)),
        range_seeded_rm_unions().map(lambda c: (
            SpecialMatrix(c[0]), seed(*c[1], side=RANGE_SIDE), c[3], c[2])))


def rerun(comps, parts, side, k, policy):
    return run_mixed(SpecialMatrix(comps), SpecialStateVector(parts, side),
                     threshold_k=k, policy=policy)


@settings(max_examples=120, deadline=None)
@given(unions(), st.data())
def test_expert_order_and_duplication(case, data):
    # the experts of a union never read each other: reordering them
    # reorders their outcomes and settle steps, duplicating one adds an
    # equal outcome, and the run's steps stay the largest settle step
    special, x0, k, policy = case
    base = run_mixed(special, x0, threshold_k=k, policy=policy)
    comps, parts = list(special), list(x0.parts)
    order = data.draw(st.permutations(range(len(comps))))
    shuffled = rerun([comps[i] for i in order], [parts[i] for i in order],
                     x0.side, k, policy)
    assert shuffled.outcomes == tuple(base.outcomes[i] for i in order)
    assert shuffled.settled_steps == tuple(base.settled_steps[i]
                                           for i in order)
    assert shuffled.steps == base.steps
    twin = data.draw(st.integers(0, len(comps) - 1))
    doubled = rerun(comps + [comps[twin]], parts + [parts[twin]], x0.side, k,
                    policy)
    assert doubled.outcomes == base.outcomes + (base.outcomes[twin],)
    assert doubled.steps == base.steps


def relabelled(matrix, rows, cols):
    """`matrix` with its row rows[a] at a and its column cols[b] at b."""
    return Matrix(matrix.rows, matrix.cols,
                  [matrix.at(i, j) for i in rows for j in cols],
                  matrix.domain)


def moved(outcome, kind, rows, cols):
    """`outcome` with each state relabelled as its component was: a CM
    state by `rows`, an RM (domain, range) pair by `rows` and `cols`."""
    def move(state):
        if kind == CM:
            return tuple(state[i] for i in rows)
        domain, range_ = state
        return tuple(domain[i] for i in rows), tuple(range_[j] for j in cols)
    if isinstance(outcome, FixedPoint):
        return FixedPoint(move(outcome.state))
    return LimitCycle(tuple(map(move, outcome.states)), outcome.period)


@settings(max_examples=120, deadline=None)
@given(unions(), st.data())
def test_concept_relabelling(case, data):
    # a step reads each coordinate by its edges, never by its position:
    # permuting a CM component's concepts, or an RM component's domain and
    # range apart, together with the seed, permutes the outcomes the same
    # way and leaves every settle step as it was
    special, x0, k, policy = case
    base = run_mixed(special, x0, threshold_k=k, policy=policy)
    comps, parts, labels = [], [], []
    for (matrix, tag), part in zip(special, x0.parts):
        rows = data.draw(st.permutations(range(matrix.rows)))
        cols = rows if tag.kind == CM \
            else data.draw(st.permutations(range(matrix.cols)))
        comps.append((relabelled(matrix, rows, cols), tag))
        parts.append([part[i] for i in
                      (rows if x0.side == DOMAIN_SIDE else cols)])
        labels.append((tag.kind, rows, cols))
    got = rerun(comps, parts, x0.side, k, policy)
    assert got.outcomes == tuple(moved(outcome, *label) for outcome, label
                                 in zip(base.outcomes, labels))
    assert got.settled_steps == base.settled_steps
    assert got.steps == base.steps


def increasing_map(values):
    """A strategy for a strictly increasing map phi on [0, 1] with phi(0) =
    0 and phi(1) = 1, drawn as a table on the magnitudes of every
    coefficient of the Scalars `values`. phi applies to a Scalar
    coefficient by coefficient, each keeping its sign, so that a circle
    weight of -1, 0, 1 or I is its own image."""
    levels = sorted({abs(c) for v in values
                     for c in (v.real_part, v.indet_coeff)} - {0.0, 1.0})

    def build(images):
        table = {0.0: 0.0, 1.0: 1.0, **dict(zip(levels, sorted(images)))}
        return lambda x: Scalar(
            math.copysign(table[abs(x.real_part)], x.real_part),
            math.copysign(table[abs(x.indet_coeff)], x.indet_coeff))
    return st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True),
                    min_size=len(levels), max_size=len(levels),
                    unique=True).map(build)


def deep(phi, value):
    """`value`, a Scalar or nested tuples of them, with phi applied to
    each Scalar."""
    if isinstance(value, tuple):
        return tuple(deep(phi, v) for v in value)
    return phi(value)


def image(outcome, phi):
    if isinstance(outcome, FixedPoint):
        return FixedPoint(deep(phi, outcome.state))
    return LimitCycle(deep(phi, outcome.states), outcome.period)


def level_unions():
    """(union, seed, k, policy): a fuzzy level union, or a range-seeded RM
    union of any algebra and operator, whose level components hold reals
    in [0, 1] and multiples of I."""
    return st.one_of(
        level_runs().map(lambda c: (c[0], c[1], 0.0,
                                    OrderPolicy.BOOK_DEFAULT)),
        range_seeded_rm_unions().map(lambda c: (
            SpecialMatrix(c[0]), seed(*c[1], side=RANGE_SIDE), c[3], c[2])))


@settings(max_examples=100, deadline=None)
@given(level_unions(), st.data())
def test_order_isomorphism_of_level_runs(case, data):
    # max-min and min-max only compare and select operands (Sanchez 1976):
    # moving every entry by a strictly increasing phi that keeps 0 and 1
    # moves every outcome by phi, and leaves every settle step as it was
    special, x0, k, policy = case
    phi = data.draw(increasing_map(
        [v for matrix, _ in special for v in matrix.entries]))
    base = run_mixed(special, x0, threshold_k=k, policy=policy)
    moved = SpecialMatrix([
        (Matrix(matrix.rows, matrix.cols, list(map(phi, matrix.entries)),
                matrix.domain), tag) for matrix, tag in special])
    got = run_mixed(moved, x0, threshold_k=k, policy=policy)
    assert got.outcomes == tuple(image(o, phi) for o in base.outcomes)
    assert got.settled_steps == base.settled_steps
    assert got.steps == base.steps


@settings(max_examples=150, deadline=None)
@given(carrier_systems(), st.data())
def test_order_isomorphism_of_relational_equations(system, data):
    # sigma, p-hat, the residual and the covers J_k only compare and select
    # entries, so phi moves p-hat, the residual and every minimal solution,
    # and keeps solvability
    q_rows, r = system
    phi = data.draw(increasing_map([v for row in q_rows + [r] for v in row]))
    q = Matrix.from_rows(q_rows)
    moved = Matrix.from_rows([list(map(phi, row)) for row in q_rows])
    base = solve_max(q, r, neutrosophic=True)
    got = solve_max(moved, list(map(phi, r)), neutrosophic=True)
    assert got.max_solution.row(0) == deep(phi, base.max_solution.row(0))
    assert got.solvable is base.solvable
    assert got.residual.row(0) == deep(phi, base.residual.row(0))
    if all(v.is_real for v in q.entries + tuple(r)):
        assert [p.row(0) for p in minimal_solutions_bruteforce(
            moved, list(map(phi, r)))] == [
            deep(phi, p.row(0)) for p in minimal_solutions_bruteforce(q, r)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(list(OrderPolicy)), st.data())
def test_compose_ignores_the_order_of_the_inner_index(m, n, s, policy, data):
    # each entry of a composition folds over the inner index with min and
    # max, which on the unit carrier, or on reals alone, do not depend on
    # the order of their operands
    value = data.draw(st.sampled_from([
        st.one_of(CARRIER_REALS, CARRIER_INDETS),
        st.floats(-1, 1).map(Scalar)]))
    p = Matrix(m, n, data.draw(st.lists(value, min_size=m * n,
                                        max_size=m * n)), ValueDomain.ANY)
    q = Matrix(n, s, data.draw(st.lists(value, min_size=n * s,
                                        max_size=n * s)), ValueDomain.ANY)
    inner = data.draw(st.permutations(range(n)))
    for compose in (maxmin_compose, minmax_compose):
        assert compose(relabelled(p, range(m), inner),
                       relabelled(q, inner, range(s)), policy) \
            == compose(p, q, policy)


@settings(max_examples=100, deadline=None)
@given(st.one_of(tri_runs(), trit_runs()),
       st.sampled_from(list(OrderPolicy)), st.integers(-2, 2),
       st.one_of(st.just(0.0), st.floats(0, 0.999)))
def test_cut_intervals(case, policy, n, fraction):
    # a circle raw value is an integer, or t + sI with integers t and s, so
    # every k in [n, n + 1) cuts it alike and gives the same run; small n
    # meet the raw values of small maps
    special, x0, _, _ = case
    base = run_mixed(special, x0, threshold_k=n, policy=policy)
    got = run_mixed(special, x0, threshold_k=n + fraction, policy=policy)
    assert got.outcomes == base.outcomes
    assert got.settled_steps == base.settled_steps
    assert got.steps == base.steps
