"""Relational equations under max-min composition."""

import itertools
import operator
import random
import sys
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymaps import (
    ONE,
    ZERO,
    BudgetExceeded,
    DomainError,
    FreSolution,
    InvalidInput,
    Matrix,
    ModeMismatch,
    OrderPolicy,
    Scalar,
    ShapeMismatch,
    ValueDomain,
    check_necessary,
    failing_columns,
    maxmin_compose,
    minimal_solutions_bruteforce,
    parse_scalar,
    scalar_max,
    scalar_min,
    sigma,
    solve_max,
)
from fuzzymaps.matrices import row_vector
from fuzzymaps.values import _order_pair
UNIT = ValueDomain.UNIT


def unit(rows):
    return Matrix.from_rows([[Scalar(v) for v in r] for r in rows],
                            domain=UNIT)


def vals(mat):
    return [c.real_part for c in mat.row(0)]


# --------------------------------------------------------------------- sigma

def test_sigma_kernel():
    assert sigma(0.9, 0.4) == Scalar(0.4)
    assert sigma(0.3, 0.7) == Scalar(1)
    assert sigma(0.5, 0.5) == Scalar(1)  # not strictly greater
    assert sigma(0.0, 0.0) == Scalar(1)


def test_sigma_rejects_out_of_unit():
    with pytest.raises(DomainError):
        sigma(1.2, 0.5)
    with pytest.raises(ModeMismatch):
        sigma(parse_scalar("I"), 0.5)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_sigma_monotone(a, b, r):
    # non-increasing in q, non-decreasing in r
    q_lo, q_hi = sorted((a / 10, b / 10))
    rr = r / 10
    assert sigma(q_hi, rr).real_part <= sigma(q_lo, rr).real_part
    r_lo, r_hi = sorted((a / 10, b / 10))
    q = rr
    assert sigma(q, r_lo).real_part <= sigma(q, r_hi).real_part


# ------------------------------------------------------------------ solve_max

def test_identity_system_solves_to_target():
    r = [0.2, 0.7, 0.5]
    sol = solve_max(unit([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), r)
    assert isinstance(sol, FreSolution)
    assert sol.solvable
    assert vals(sol.max_solution) == r
    assert vals(sol.residual) == r


def test_worked_two_by_two():
    q = unit([[0.9, 0.6], [0.4, 0.3]])
    sol = solve_max(q, [0.4, 0.3])
    assert vals(sol.max_solution) == [0.3, 1]
    assert sol.solvable
    assert vals(sol.residual) == [0.4, 0.3]


def test_unreachable_column_unsolvable():
    q = unit([[0.3], [0.2]])
    sol = solve_max(q, [0.5])
    assert not sol.solvable
    assert failing_columns(q, [0.5]) == (0,)
    assert not check_necessary(q, [0.5])


def test_necessary_condition_can_pass_while_unsolvable():
    # columns individually reachable, jointly impossible
    q = unit([[1, 1]])
    sol = solve_max(q, [0.3, 0.7])
    assert check_necessary(q, [0.3, 0.7])
    assert not sol.solvable


def test_solve_max_shape_checks():
    with pytest.raises(ShapeMismatch):
        solve_max(unit([[0.5, 0.5]]), [0.5])
    with pytest.raises(ShapeMismatch):
        solve_max(unit([[0.5]]), unit([[0.5], [0.5]]))


def test_solve_max_rejects_indeterminate_without_flag():
    q = Matrix.from_rows([[parse_scalar("I")]],
                         domain=ValueDomain.NEUTRO_UNIT)
    with pytest.raises(ModeMismatch):
        solve_max(q, [0.5])


def test_forward_compose_is_always_solvable():
    rng = random.Random(7)
    for _ in range(25):
        m, s = rng.randint(1, 4), rng.randint(1, 4)
        q = unit([[rng.randint(0, 10) / 10 for _ in range(s)]
                  for _ in range(m)])
        p0 = row_vector([Scalar(rng.randint(0, 10) / 10) for _ in range(m)],
                        domain=UNIT)
        r = maxmin_compose(p0, q)
        sol = solve_max(q, r)
        assert sol.solvable
        for j in range(m):
            assert sol.max_solution.at(0, j).real_part \
                >= p0.at(0, j).real_part


# ---------------------------------------------------------- minimal solutions

def test_minimal_solutions_worked_instance():
    q = unit([[0.9, 0.6], [0.4, 0.3]])
    mins = minimal_solutions_bruteforce(q, [0.4, 0.3])
    assert len(mins) == 1
    assert vals(mins[0]) == [0, 0.4]


def test_minimal_solutions_unsolvable_instance_is_empty():
    assert minimal_solutions_bruteforce(unit([[0.3], [0.2]]), [0.5]) == ()


def test_minimal_solutions_dominated_by_maximum():
    q = unit([[0.8, 0.2], [0.3, 0.6], [0.5, 0.5]])
    r = [0.5, 0.5]
    sol = solve_max(q, r)
    for p in minimal_solutions_bruteforce(q, r):
        for j in range(q.rows):
            assert p.at(0, j).real_part \
                <= sol.max_solution.at(0, j).real_part


def test_minimal_solutions_off_the_grid():
    # p-hat = (0.3, 0.35) solves it; the minimal solution needs 0.35,
    # which no 0.1 grid holds
    q = unit([[0.9, 0.6], [0.4, 0.3]])
    assert solve_max(q, [0.35, 0.3]).solvable
    assert [vals(p) for p in minimal_solutions_bruteforce(q, [0.35, 0.3])] \
        == [[0, 0.35]]


def test_minimal_solutions_zero_target_is_the_zero_vector():
    # a column with r_k = 0 needs no cover, so the one candidate is 0
    q = unit([[0.8, 0.2], [0.3, 0.6]])
    mins = minimal_solutions_bruteforce(q, [0, 0], budget=1)
    assert [vals(p) for p in mins] == [[0, 0]]


def _disjoint_pairs(k):
    """Q for k columns, each reached by its own two rows, with r = 0.5
    everywhere: 2**k minimal solutions, and a search of 2 + 4 + ... +
    2**k nodes."""
    return unit([[1.0 if c == j // 2 else 0.0 for c in range(k)]
                 for j in range(2 * k)])


def test_minimal_solutions_budget():
    q = _disjoint_pairs(3)  # 14 nodes
    with pytest.raises(BudgetExceeded, match="budget of 13 nodes"):
        minimal_solutions_bruteforce(q, [0.5] * 3, budget=13)
    assert len(minimal_solutions_bruteforce(q, [0.5] * 3, budget=14)) == 8
    # 2**18 - 2 nodes, above the default budget
    with pytest.raises(BudgetExceeded, match="nodes"):
        minimal_solutions_bruteforce(_disjoint_pairs(17), [0.5] * 17)
    # every j reaches every column: the first column's 8 choices reach
    # all the others, so 8 nodes give the 8 single-entry solutions
    full = unit([[1.0] * 8] * 8)
    with pytest.raises(BudgetExceeded):
        minimal_solutions_bruteforce(full, [0.5] * 8, budget=7)
    assert len(minimal_solutions_bruteforce(full, [0.5] * 8, budget=8)) == 8


def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_minimal_solutions_walk_does_not_recurse():
    # 200 columns, each reached only by its own row: a search 200 choices
    # deep, under a recursion limit far below that
    n = 200
    q = unit([[int(i == j) for j in range(n)] for i in range(n)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 60)
    try:
        found = minimal_solutions_bruteforce(q, [0.5] * n)
    finally:
        sys.setrecursionlimit(limit)
    assert [vals(p) for p in found] == [[0.5] * n]


@pytest.mark.parametrize("budget", ["5", True, 2.5, None])
def test_minimal_solutions_budget_must_be_an_int(budget):
    with pytest.raises(InvalidInput, match="budget must be an int"):
        minimal_solutions_bruteforce(unit([[1.0]]), [0.5], budget=budget)


def test_minimal_solutions_reject_indeterminate_target():
    q = Matrix.from_rows([[Scalar(1)]], domain=ValueDomain.NEUTRO_UNIT)
    with pytest.raises(ModeMismatch, match="real-valued"):
        minimal_solutions_bruteforce(q, [parse_scalar("I")])


@pytest.mark.parametrize("q, r, error", [
    ([["I"], ["0.1"]], ["0.3"], ModeMismatch),
    ([["1.5", "0.6"], ["0.4", "0.3"]], ["0.4", "0.3"], DomainError),
    ([["0.9", "0.6"], ["0.4", "0.3"]], ["0.4", "2"], DomainError),
])
def test_minimal_solutions_check_every_entry(q, r, error):
    # the same entry check as solve_max, on Q as well as r
    q = Matrix.from_rows([[parse_scalar(v) for v in row] for row in q],
                         domain=ValueDomain.ANY)
    with pytest.raises(error):
        minimal_solutions_bruteforce(q, [parse_scalar(v) for v in r])


def _maxmin(p, q_rows):
    return [max(min(pj, row[k]) for pj, row in zip(p, q_rows))
            for k in range(len(q_rows[0]))]


@st.composite
def fre_systems(draw, value, size=4):
    """A system p o Q = r with m, s <= size; half of them take r = p o Q
    for a drawn p, so that they are solvable."""
    m, s = draw(st.integers(1, size)), draw(st.integers(1, size))
    q_rows = [[draw(value) for _ in range(s)] for _ in range(m)]
    if draw(st.booleans()):
        r = _maxmin([draw(value) for _ in range(m)], q_rows)
    else:
        r = [draw(value) for _ in range(s)]
    return q_rows, r


def _grid_minimal(q_rows, r):
    """Plain-float oracle: every point of {0, 0.1, ..., 1}^m solving the
    system, filtered to the entrywise-minimal ones."""
    grid = [t / 10 for t in range(11)]
    sols = [p for p in itertools.product(grid, repeat=len(q_rows))
            if _maxmin(p, q_rows) == r]
    minimal = []
    for p in sorted(sols, key=sum):  # a dominated point sorts later
        if not any(all(a <= b for a, b in zip(o, p)) for o in minimal):
            minimal.append(p)
    return sorted(minimal)


@settings(max_examples=100, deadline=None)
@given(fre_systems(st.integers(0, 10).map(lambda t: t / 10)))
def test_minimal_solutions_match_grid_oracle(system):
    q_rows, r = system
    found = minimal_solutions_bruteforce(unit(q_rows), r)
    assert [tuple(vals(p)) for p in found] == _grid_minimal(q_rows, r)


@settings(max_examples=300, deadline=None)
@given(fre_systems(st.floats(0, 1)))
def test_minimal_solutions_off_grid_are_minimal_solutions(system):
    q_rows, r = system
    q = unit(q_rows)
    found = [vals(p) for p in minimal_solutions_bruteforce(q, r)]
    sol = solve_max(q, r)
    assert bool(found) == sol.solvable
    p_hat = vals(sol.max_solution)
    for p in found:
        # max-min only selects operands, so a solution solves exactly
        assert _maxmin(p, q_rows) == r
        assert all(a <= b for a, b in zip(p, p_hat))
    for i, a in enumerate(found):
        for b in found[i + 1:]:
            assert not all(x <= y for x, y in zip(a, b))
            assert not all(x >= y for x, y in zip(a, b))


def _cover_walk(q_rows, r):
    """Plain-float reference: the minimal solutions as the entrywise-
    minimal candidates over every cover, one j in J_k per column k with
    r_k > 0 (Sanchez 1976), as the library enumerated them before its
    search."""
    p_hat = [min([rk if qk > rk else 1.0 for qk, rk in zip(row, r)])
             for row in q_rows]
    targets, options = [], []
    for k, rk in enumerate(r):
        if rk > 0.0:
            targets.append(rk)
            options.append([j for j, pj in enumerate(p_hat)
                            if min(pj, q_rows[j][k]) == rk])
    candidates = set()
    for cover in itertools.product(*options):
        p = [0.0] * len(p_hat)
        for j, rk in zip(cover, targets):
            p[j] = max(p[j], rk)
        candidates.add(tuple(p))
    minimal = []
    for p in sorted(candidates, key=lambda p: (sum(p), p)):
        if not any(all(a <= b for a, b in zip(small, p))
                   for small in minimal):
            minimal.append(p)
    return sorted(minimal)


GRID = st.integers(0, 10).map(lambda t: t / 10)
OFF_GRID = st.sampled_from([0.0, 0.25, 0.35, 0.5, 0.65, 0.75, 1.0])


@settings(max_examples=400, deadline=None)
@given(fre_systems(st.one_of(GRID, OFF_GRID), size=6))
def test_minimal_solutions_match_the_cover_walk(system):
    q_rows, r = system
    found = minimal_solutions_bruteforce(unit(q_rows), r)
    assert [tuple(vals(p)) for p in found] == _cover_walk(q_rows, r)


def _dominates(a, b):
    """a strictly above b in the Scalar order: the order gives (b, a),
    which equal operands and a magnitude tie (the multiple of I at both
    ends) never are."""
    low, high = _order_pair(a, b, OrderPolicy.BOOK_DEFAULT)
    return low is b and high is not b


def _scalar_order_reference(q, r):
    """solve_max and the minimal solutions of p o Q = r, from the Scalar
    order alone (scalar_min, scalar_max and _order_pair): p-hat_j folds
    sigma(q_jk, r_k), r_k when q_jk dominates r_k and else 1, with
    scalar_min; residual_k folds min(p-hat_j, q_jk) with scalar_max. For
    a real-valued system the minimal solutions are the entrywise-minimal
    candidates over every cover, with J_k = {j : min(p-hat_j, q_jk) =
    r_k}; for any other they are None."""
    r_vals = list(r.row(0))
    p_hat = [reduce(scalar_min, [rk if _dominates(qk, rk) else ONE
                                 for qk, rk in zip(q.row(j), r_vals)], ONE)
             for j in range(q.rows)]
    meets = [[scalar_min(p_hat[j], q.at(j, k)) for j in range(q.rows)]
             for k in range(q.cols)]
    residual = [reduce(scalar_max, col) for col in meets]
    minimal = None
    if all(v.is_real for v in q.entries + r.entries):
        targets, options = [], []
        for rk, col in zip(r_vals, meets):
            if rk != ZERO:
                targets.append(rk.real_part)
                options.append([j for j, v in enumerate(col) if v == rk])
        candidates = set()
        for cover in itertools.product(*options):
            p = [0.0] * q.rows
            for j, rk in zip(cover, targets):
                p[j] = max(p[j], rk)
            candidates.add(tuple(p))
        minimal = sorted(p for p in candidates
                         if not any(o != p and all(map(operator.le, o, p))
                                    for o in candidates))
    return p_hat, residual == r_vals, residual, minimal


# the unit carrier: reals in [0, 1] and multiples bI with b in (0, 1], on
# one grid, so that a real and a multiple of I often tie in magnitude
CARRIER_REALS = st.one_of(GRID, OFF_GRID).map(Scalar)
CARRIER_INDETS = st.one_of(GRID, OFF_GRID).filter(bool).map(
    lambda t: Scalar(0, t))


@st.composite
def carrier_systems(draw, size=6):
    """A system p o Q = r over the unit carrier, as lists of Scalars, with
    m, s <= size: real-valued, or holding multiples of I as well. Half of
    them take r = p o Q in the Scalar order for a drawn p."""
    value = draw(st.sampled_from(
        [CARRIER_REALS, st.one_of(CARRIER_REALS, CARRIER_INDETS)]))
    m, s = draw(st.integers(1, size)), draw(st.integers(1, size))
    q_rows = [[draw(value) for _ in range(s)] for _ in range(m)]
    if draw(st.booleans()):
        p = [draw(value) for _ in range(m)]
        r = [reduce(scalar_max, [scalar_min(pj, row[k])
                                 for pj, row in zip(p, q_rows)])
             for k in range(s)]
    else:
        r = [draw(value) for _ in range(s)]
    return q_rows, r


@settings(max_examples=400, deadline=None)
@given(carrier_systems(), st.booleans(), st.data())
def test_carrier_systems_solve_as_in_the_scalar_order(system, neutrosophic,
                                                      data):
    # fre checks Q and r alike, whether declared over the least domain
    # that holds them or over ANY; a system holding a multiple of I needs
    # the extension, and has no minimal solutions to enumerate
    q_rows, r = system
    real = all(v.is_real for row in q_rows + [r] for v in row)
    domain = data.draw(st.sampled_from(
        [UNIT if real else ValueDomain.NEUTRO_UNIT, ValueDomain.ANY]))
    q = Matrix.from_rows(q_rows, domain=domain)
    r = row_vector(r, domain=domain)
    p_hat, solvable, residual, minimal = _scalar_order_reference(q, r)
    if not real:
        with pytest.raises(ModeMismatch):
            solve_max(q, r)
        neutrosophic = True
    sol = solve_max(q, r, neutrosophic=neutrosophic)
    assert list(sol.max_solution.row(0)) == p_hat
    assert sol.solvable is solvable
    assert list(sol.residual.row(0)) == residual
    assert sol.max_solution.domain is sol.residual.domain is ValueDomain.ANY
    if real:
        found = minimal_solutions_bruteforce(q, r)
        assert [tuple(vals(p)) for p in found] == minimal
        assert all(p.domain is UNIT for p in found)
    else:
        found = ()
        with pytest.raises(ModeMismatch, match="real-valued"):
            minimal_solutions_bruteforce(q, r)
    # every entry printed is one of the input's own Scalars, or 0 or 1
    inputs = {id(v) for v in q.entries + r.entries}
    for row in (sol.max_solution, sol.residual, *found):
        assert all(id(v) in inputs or v in (ZERO, ONE) for v in row.row(0))


@pytest.mark.parametrize("q, r, neutrosophic, error, message", [
    # Q: the first bad entry in row-major order names the error
    ([["0.5", "1.5"], ["I", "0.2"]], ["0.5", "0.5"], False, DomainError,
     "membership 1.5 outside [0, 1]"),
    ([["0.5", "I"], ["1.5", "0.2"]], ["0.5", "0.5"], False, ModeMismatch,
     "indeterminate value I needs neutrosophic=True"),
    ([["0.5", "1.5"], ["0.5I", "0.2"]], ["0.5", "0.5"], True, DomainError,
     "membership 1.5 outside the unit carrier"),
    ([["0.5", "0.5I"], ["1.5", "0.2"]], ["0.5", "0.5"], True, DomainError,
     "membership 1.5 outside the unit carrier"),
    ([["0.5", "0.5+0.5I"], ["1.5", "0.2"]], ["0.5", "0.5"], True,
     DomainError, "membership 0.5+0.5I outside the unit carrier"),
    # a real outside [0, 1] in a system with no I
    ([["0.5", "-0.2"]], ["0.5", "0.5"], False, DomainError,
     "membership -0.2 outside [0, 1]"),
    ([["0.5", "0.2"]], ["0.5", "1.5"], True, DomainError,
     "membership 1.5 outside the unit carrier"),
    # r is checked before Q, in its own order
    ([["1.5"], ["I"]], ["I"], False, ModeMismatch,
     "indeterminate value I needs neutrosophic=True"),
    ([["I", "0.5"]], ["-0.5", "I"], False, DomainError,
     "membership -0.5 outside [0, 1]"),
    ([["0.5", "0.5"]], ["2I", "-1"], True, DomainError,
     "membership 2I outside the unit carrier"),
])
def test_the_first_bad_entry_raises_its_error(q, r, neutrosophic, error,
                                              message):
    q = Matrix.from_rows([[parse_scalar(v) for v in row] for row in q])
    r = [parse_scalar(v) for v in r]
    with pytest.raises(error) as exc:
        solve_max(q, r, neutrosophic=neutrosophic)
    assert str(exc.value) == message
    assert not q._memos  # a Q that fails leaves no memo


def test_a_nan_entry_is_not_a_real_valued_system():
    # min and max may pass over a NaN; the entry check still fails it
    for q, r in [([[0.5, float("nan")]], [0.5, 0.5]),
                 ([[float("nan"), 0.5]], [0.5, 0.5]),
                 ([[0.5]], [float("nan")])]:
        with pytest.raises(DomainError, match="nan is not a finite"):
            solve_max(Matrix.from_rows(q), r)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to the
    returned list."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(args) or fn(*args))
    return calls


def test_one_system_computes_p_hat_once(monkeypatch):
    from fuzzymaps import fre
    folds = _count_calls(monkeypatch, fre, "_fold")
    q = unit([[0.9, 0.6, 0.2], [0.4, 0.3, 0.7]])
    r = row_vector([Scalar(0.5), Scalar(0.5), Scalar(0.3)], domain=UNIT)
    assert solve_max(q, r).solvable
    assert failing_columns(q, r) == ()
    assert [vals(p) for p in minimal_solutions_bruteforce(q, r)] \
        == [[0.5, 0.3]]
    assert len(folds) == 1  # one fold of p-hat, the residual and J_k
    # an equal target in another row vector is another target
    minimal_solutions_bruteforce(q, [0.5, 0.5, 0.3])
    assert len(folds) == 2


def test_one_indeterminate_system_computes_p_hat_once(monkeypatch):
    # a system holding a multiple of I takes the same one fold
    from fuzzymaps import fre
    folds = _count_calls(monkeypatch, fre, "_fold")
    q = Matrix.from_rows([[parse_scalar(v) for v in row] for row in
                          [["0.9", "I", "0.2"], ["0.4", "0.3", "0.7"]]],
                         domain=ValueDomain.NEUTRO_UNIT)
    r = row_vector([Scalar(0.5), Scalar(0.5), Scalar(0.3)], domain=UNIT)
    first = solve_max(q, r, neutrosophic=True)
    assert solve_max(q, r, neutrosophic=True) == first
    assert failing_columns(q, r) == ()
    assert len(folds) == 1
    solve_max(q, [0.5, 0.5, 0.3], neutrosophic=True)
    assert len(folds) == 2


def test_the_candidate_memo_keeps_one_target_per_q():
    from fuzzymaps.fre import _Candidate
    q = unit([[0.9, 0.6], [0.4, 0.3]])
    for t in range(50):
        target = [t / 50, 0.3]
        solve_max(q, target)
        minimal_solutions_bruteforce(q, target)
    kept = [memo for (build, _), memo in q._memos.items()
            if build is _Candidate]
    assert len(kept) == 1
    assert [x.real_part for x in kept[0].last[0]] == [49 / 50, 0.3]


def test_the_candidate_memo_keeps_every_check():
    # a Q checked under the extension still fails the real-valued check,
    # and a bad target after a good one still fails its own
    q = Matrix.from_rows([[parse_scalar("I")], [Scalar(0.1)]],
                         domain=ValueDomain.NEUTRO_UNIT)
    r = row_vector([parse_scalar("0.1")], domain=ValueDomain.ANY)
    solve_max(q, r, neutrosophic=True)
    with pytest.raises(ModeMismatch):
        solve_max(q, r)
    with pytest.raises(ModeMismatch, match="real-valued"):
        minimal_solutions_bruteforce(q, r)
    real = unit([[0.9, 0.6], [0.4, 0.3]])
    solve_max(real, [0.4, 0.3])
    with pytest.raises(DomainError):
        solve_max(real, [0.4, 2.0])
    with pytest.raises(ModeMismatch):
        solve_max(real, [0.4, parse_scalar("0.3I")])


def test_residual_is_compared_exactly():
    # a target a hair above the only entry: p-hat = 1 gives 0.3, which
    # misses r, and no j attains r, so no minimal solution exists
    q, r = unit([[0.3]]), [0.3000000000001]
    sol = solve_max(q, r)
    assert not sol.solvable
    assert vals(sol.residual) == [0.3]
    assert failing_columns(q, r) == (0,)
    assert minimal_solutions_bruteforce(q, r) == ()


@settings(max_examples=300, deadline=None)
@given(fre_systems(st.one_of(st.floats(0, 1),
                             st.integers(0, 10).map(lambda t: t / 10))))
def test_a_system_failing_the_necessary_condition_is_unsolvable(system):
    q_rows, r = system
    q = unit(q_rows)
    if not check_necessary(q, r):
        assert not solve_max(q, r).solvable


def _failing_columns_in_the_scalar_order(q, r):
    """failing_columns from the Scalar order alone: r, then Q in row-major
    order, checked on the unit carrier, then each column's maximum folded
    with scalar_max and compared with its target."""
    r = row_vector(list(r), domain=ValueDomain.ANY).row(0)
    for x in r + q.entries:
        if not ValueDomain.NEUTRO_UNIT.contains(x):
            raise DomainError(f"membership {x} outside the unit carrier")
    out = []
    for k, rk in enumerate(r):
        top = reduce(scalar_max, (q.at(j, k) for j in range(q.rows)))
        if not (top == rk or _dominates(top, rk)):
            out.append(k)
    return tuple(out)


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)


# entries of one system: reals in [0, 1] with ties, any floats (NaN, the
# infinities, out of range), or reals mixed with multiples of I
_FAILING_POOLS = [
    st.one_of(GRID, st.floats(0, 1)),
    st.one_of(GRID, st.sampled_from([float("nan"), float("inf"),
                                     -float("inf"), -0.5, 1.5]),
              st.floats(allow_nan=True, allow_infinity=True)),
    st.one_of(GRID, st.sampled_from(["I", "0.5I", "-I", "0.5+I"]).map(
        parse_scalar)),
]


@st.composite
def _any_systems(draw):
    pool = draw(st.sampled_from(_FAILING_POOLS))
    m, s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    q = Matrix(m, s, [draw(pool) for _ in range(m * s)], ValueDomain.ANY)
    return q, [draw(pool) for _ in range(s)]


@settings(max_examples=400, deadline=None)
@given(_any_systems())
def test_failing_columns_match_the_scalar_order(system):
    # on the unit carrier the column maxima are those of the Scalar order;
    # off it, NaN, the infinities and mixed values included, the first bad
    # entry raises its error
    q, r = system
    assert _result_or_error(failing_columns, q, r) == _result_or_error(
        _failing_columns_in_the_scalar_order, q, r)


# ------------------------------------------------------ neutrosophic extension

def test_extension_solves_pure_indeterminate_target():
    q = Matrix.from_rows([[Scalar(1)]], domain=ValueDomain.NEUTRO_UNIT)
    sol = solve_max(q, [parse_scalar("0.5I")], neutrosophic=True)
    assert sol.solvable
    assert sol.max_solution.at(0, 0) == parse_scalar("0.5I")


def test_extension_magnitude_tie_gives_freedom_but_misses():
    # 1 does not strictly dominate I (tie resolves to I), so sigma keeps 1;
    # substitution then lands on 1, not I, and the system is unsolvable
    q = Matrix.from_rows([[Scalar(1)]], domain=ValueDomain.NEUTRO_UNIT)
    sol = solve_max(q, [parse_scalar("I")], neutrosophic=True)
    assert vals(sol.max_solution) == [1]
    assert not sol.solvable


def test_extension_rejects_mixed_values():
    # a mixed a + bI has no order, so it is outside the unit carrier
    mixed = [[parse_scalar("0.5+0.5I")]]
    with pytest.raises(DomainError):
        Matrix.from_rows(mixed, domain=ValueDomain.NEUTRO_UNIT)
    q = Matrix.from_rows(mixed, domain=ValueDomain.ANY)
    with pytest.raises(DomainError, match="outside the unit carrier"):
        solve_max(q, [parse_scalar("0.5")], neutrosophic=True)
