"""Relational equations p composed-with Q = r under max-min.

The maximum candidate is closed-form: sigma(q, r) = r when q > r else 1,
and p-hat_j = min over k of sigma(q_jk, r_k). The system is solvable
exactly when p-hat itself satisfies it, and then every solution sits below
p-hat entrywise. The minimal solutions are derived exactly from p-hat by
a search over the irredundant covers of the columns, bounded by a budget
of search nodes (real-valued inputs only). Q keeps its checked entries and
p-hat for the last target solved against it, so solving one system and
enumerating its minimal solutions compute p-hat once.

Indeterminate entries are an opt-in extension (`neutrosophic=True`):
comparisons lift through the coefficient ordering on reals and pure
multiples of I. With the flag off, any indeterminate input is rejected.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from .errors import (
    BudgetExceeded,
    ComponentCountMismatch,
    DomainError,
    InvalidInput,
    ModeMismatch,
    ShapeMismatch,
)
from .matrices import Matrix, maxmin_compose, operators, row_vector
from .special import SpecialMatrix
from .values import (
    ONE,
    ZERO,
    OrderPolicy,
    Scalar,
    ValueDomain,
    _order_pair,
    coerce,
)

# min and max of Scalars under the coefficient ordering
_min, _max = operators("maxmin", OrderPolicy.BOOK_DEFAULT)


@dataclass(frozen=True)
class FreSolution:
    max_solution: Matrix
    solvable: bool
    residual: Matrix


def _checked(value, neutrosophic: bool) -> Scalar:
    x = coerce(value)
    if not neutrosophic:
        if x.indet_coeff != 0.0:
            raise ModeMismatch(
                f"indeterminate value {x} needs neutrosophic=True")
        if not 0.0 <= x.real_part <= 1.0:
            raise DomainError(f"membership {x} outside [0, 1]")
        return x
    if not ValueDomain.NEUTRO_UNIT.contains(x):
        raise DomainError(f"membership {x} outside the unit carrier")
    return x


def _gt(a: Scalar, b: Scalar) -> bool:
    # strict domination under the coefficient ordering: the order gives
    # (b, a), which equal operands (a, a) and a magnitude tie (the pure
    # I multiple twice) never are
    low, high = _order_pair(a, b, OrderPolicy.BOOK_DEFAULT)
    return low is b and high is not b


def _sigma(q: Scalar, r: Scalar) -> Scalar:
    return r if _gt(q, r) else ONE


def sigma(q, r, *, neutrosophic: bool = False) -> Scalar:
    """The residuation kernel: r when q exceeds r, else 1."""
    return _sigma(_checked(q, neutrosophic), _checked(r, neutrosophic))


def _target_row(q: Matrix, r) -> Matrix:
    """r as a 1 x s row matrix, for q of shape m x s (p is then 1 x m)."""
    if not isinstance(r, Matrix):
        r = row_vector(list(r), domain=ValueDomain.ANY)
    if r.rows != 1:
        raise ShapeMismatch(f"r must be a row vector, got {r.rows}x{r.cols}")
    if r.cols != q.cols:
        raise ShapeMismatch(
            f"r has {r.cols} entries but q has {q.cols} columns")
    return r


class _Candidate:
    """The checked rows of one Q under one mode, and p-hat against the
    last target row solved for, kept on Q (`q._memo(_Candidate,
    neutrosophic)`). `solve_max` and the minimal solutions of one system
    then compute p-hat once, and solving one Q against many targets keeps
    only the last. Building it checks every entry of Q, so a Q that
    fails the check leaves no memo behind."""

    __slots__ = ("rows", "last")

    def __init__(self, q: Matrix, neutrosophic: bool):
        self.rows = [[_checked(q.at(j, k), neutrosophic)
                      for k in range(q.cols)] for j in range(q.rows)]
        self.last = None  # (checked target row, p-hat), read and set whole

    def p_hat(self, r_vals: list) -> list:
        """p-hat for the checked target `r_vals`, one entry per column of
        Q. The last target is matched by identity, entry by entry, so the
        p-hat returned holds this target's own entries."""
        last = self.last
        if last is None or not all(map(operator.is_, last[0], r_vals)):
            last = self.last = r_vals, [
                reduce(_min, map(_sigma, row, r_vals), ONE)
                for row in self.rows]
        return last[1]


def _max_candidate(q: Matrix, r: Matrix, neutrosophic: bool):
    """The checked entries of q (as rows) and of the target row r, and
    p-hat, the maximum candidate, as a list of Scalars. The target is
    checked first, on every call; q's check and p-hat are kept on q."""
    r_vals = [_checked(v, neutrosophic) for v in r.row(0)]
    candidate = q._memo(_Candidate, neutrosophic)
    return candidate.rows, r_vals, candidate.p_hat(r_vals)


def solve_max(q: Matrix, r, *, neutrosophic: bool = False) -> FreSolution:
    """Closed-form maximum candidate plus a verification pass.

    solvable is decided by substituting the candidate back in: when even
    the maximum candidate misses r, no solution exists at all. Max-min
    composition only selects operands, so the residual is compared with r
    exactly.
    """
    r = _target_row(q, r)
    _, r_vals, p_hat = _max_candidate(q, r, neutrosophic)
    p_row = row_vector(p_hat, domain=ValueDomain.ANY)
    residual = maxmin_compose(p_row, q)
    solvable = list(residual.row(0)) == r_vals
    return FreSolution(max_solution=p_row, solvable=solvable,
                       residual=residual)


def failing_columns(q: Matrix, r) -> tuple:
    """0-based columns where even the column maximum falls short of r -
    each one certifies unsolvability on its own."""
    r = _target_row(q, r)
    out = []
    for k in range(q.cols):
        col_max = reduce(_max, (q.at(j, k) for j in range(q.rows)))
        target = coerce(r.at(0, k))
        if not (col_max == target or _gt(col_max, target)):
            out.append(k)
    return tuple(out)


def check_necessary(q: Matrix, r) -> bool:
    """Necessary (not sufficient) solvability test: every column of q must
    reach at least the target r in that column."""
    return not failing_columns(q, r)


def minimal_solutions_bruteforce(q: Matrix, r, *,
                                 budget: int = 250_000) -> tuple:
    """Every minimal solution, exactly, derived from p-hat (Sanchez 1976),
    by a search over irredundant covers (Yeh 2008; Peeva & Kyosev 2004).

    Each column k with r_k > 0 must be reached by some j in
    J_k = {j : min(p-hat_j, q_jk) = r_k}, and p reaches it exactly when
    p_j >= r_k for one such j: p-hat o Q <= r always holds, so an
    unsolvable system leaves some J_k empty and returns (). The search
    takes these columns in decreasing r_k. It skips a column that a
    chosen j already reaches, and otherwise branches over J_k, setting
    p_j = r_k. When the last column of a level r_k = t has been taken,
    no later choice can change which j reach the columns at t. A branch
    is then pruned if some j set to t reaches no column at t alone: every
    one it reaches is reached by another chosen j, so lowering p_j would
    leave a smaller solution. Every leaf is then a minimal solution, and
    every minimal solution is a leaf.

    `budget`, an int (else InvalidInput), bounds the search nodes: each
    choice of a j for a column is one node, so the 12 x 12 all-1 system
    with r = 0.5 everywhere takes 12. Beyond it the call raises
    BudgetExceeded. The walk keeps an explicit stack, so a deep search
    does not recurse. Real-valued only: an indeterminate entry raises
    ModeMismatch.
    """
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise InvalidInput(f"budget must be an int, got {budget!r}")
    r = _target_row(q, r)
    try:
        q_vals, r_vals, p_hat = _max_candidate(q, r, False)
    except ModeMismatch:
        raise ModeMismatch(
            "minimal-solution enumeration is real-valued; Q and r must "
            "hold no indeterminate value") from None
    p_hat = [v.real_part for v in p_hat]
    levels = {}  # r_k -> (J_k as a bit mask, J_k) of each column at r_k
    entries = {0.0: ZERO}  # r_k -> its Scalar, shared by the solutions
    for k, target in enumerate(r_vals):
        rk = target.real_part
        if rk > 0.0:
            entries[rk] = target
            js = tuple(j for j, pj in enumerate(p_hat)
                       if min(pj, q_vals[j][k].real_part) == rk)
            if not js:
                return ()
            levels.setdefault(rk, []).append(
                (sum(1 << j for j in js), js))
    # the walk's script: each column in decreasing r_k as (r_k, mask,
    # J_k), and after the last column of a level, (r_k, None, the level's
    # masks), where the level closes
    script = []
    for rk in sorted(levels, reverse=True):
        script += [(rk, mask, js) for mask, js in levels[rk]]
        script.append((rk, None, [mask for mask, _ in levels[rk]]))
    end = len(script)
    found = set()
    nodes = 0  # the choices made so far; the empty root is not one
    # a node: the next script step, the chosen j as a bit mask, those
    # chosen before the open level, and p so far
    stack = [(0, 0, 0, (0.0,) * q.rows)]
    while stack:
        i, chosen, before, p = stack.pop()
        while i < end:
            rk, mask, js = script[i]
            i += 1
            if mask is None:  # the level closes
                sole = 0
                for level_mask in js:
                    reach = chosen & level_mask
                    if not reach & (reach - 1):
                        sole |= reach
                if chosen & ~before & ~sole:
                    break  # a j set to r_k reaches no column alone
                before = chosen
            elif not chosen & mask:
                nodes += len(js)
                if nodes > budget:
                    raise BudgetExceeded(
                        f"minimal-solution search passed its budget of "
                        f"{budget} nodes")
                for j in js:
                    stack.append((i, chosen | 1 << j, before,
                                  p[:j] + (rk,) + p[j + 1:]))
                break
        else:
            found.add(p)
    return tuple(row_vector(map(entries.__getitem__, p),
                            domain=ValueDomain.UNIT)
                 for p in sorted(found))


def solve_special(special: SpecialMatrix, r_parts, *,
                  neutrosophic=None) -> tuple:
    """Slot-by-slot solve of a union of equation components. `r_parts`
    carries one target row per component; the indeterminacy extension
    defaults to each component's algebra tag."""
    r_parts = list(r_parts)
    if len(r_parts) != len(special):
        raise ComponentCountMismatch(
            f"{len(r_parts)} target vectors for {len(special)} components")
    out = []
    for idx, ((mat, tag), part) in enumerate(zip(special, r_parts)):
        flag = (tag.algebra == "neutrosophic") if neutrosophic is None \
            else neutrosophic
        try:
            out.append(solve_max(mat, part, neutrosophic=flag))
        except ShapeMismatch as exc:
            raise ShapeMismatch(f"component {idx + 1}: {exc}") from None
    return tuple(out)
