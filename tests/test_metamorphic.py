"""Metamorphic relations: properties a run keeps under a change of its
input that need no reference semantics.

Two runs of each drawn union are compared: the union as drawn, and the
union with its experts reordered or duplicated, or with its concepts
relabelled. The unions are drawn by the strategies of test_dynamics, over
every kernel: packed, trit, float level and Scalar.
"""

from hypothesis import given, settings, strategies as st

from fuzzymaps import (
    CM,
    DOMAIN_SIDE,
    RANGE_SIDE,
    FixedPoint,
    LimitCycle,
    Matrix,
    OrderPolicy,
    SpecialMatrix,
    SpecialStateVector,
    run_mixed,
)
from test_dynamics import (
    level_runs,
    range_seeded_rm_unions,
    seed,
    tri_runs,
    trit_runs,
)


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
