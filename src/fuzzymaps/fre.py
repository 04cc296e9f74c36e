"""Relational equations p composed-with Q = r under max-min.

The maximum candidate is closed-form: sigma(q, r) = r when q > r else 1,
and p-hat_j = min over k of sigma(q_jk, r_k). The system is solvable
exactly when p-hat itself satisfies it, and then every solution sits below
p-hat entrywise. The minimal solutions are derived exactly from p-hat by
a search over the irredundant covers of the columns, bounded by a budget
of search nodes (real-valued inputs only). Q keeps its checked entries and
p-hat for the last target solved against it, so solving one system and
enumerating its minimal solutions compute p-hat once.

A real-valued system, each entry of Q and r a real in [0, 1], is solved
on floats: Q is checked once and kept as one list of its floats, and
p-hat, the residual and the sets J_k of the minimal search are folds of
the builtin min and max over its rows and columns. This is exact: sigma
and max-min composition only compare and select operands, so each float
found is the value of an input entry (or 1), and it maps back to that
entry's own Scalar. The results, and the text printed from them, are the
ones the Scalar order gives.

Indeterminate entries are an opt-in extension (`neutrosophic=True`):
comparisons lift through the coefficient ordering on reals and pure
multiples of I, and a system holding a multiple of I is solved in that
Scalar order (`_sigma` and `maxmin_compose`). With the flag off, any
indeterminate input is rejected.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from math import isnan

from .errors import (
    BudgetExceeded,
    DomainError,
    InvalidInput,
    ModeMismatch,
    ShapeMismatch,
)
from .matrices import Matrix, maxmin_compose, operators, row_vector
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
        if not ValueDomain.UNIT.contains(x):
            raise DomainError(f"membership {x} outside [0, 1]")
        return x
    if not ValueDomain.NEUTRO_UNIT.contains(x):
        raise DomainError(f"membership {x} outside the unit carrier")
    return x


_REAL = operator.attrgetter("real_part")
_INDET = operator.attrgetter("indet_coeff")


def _checked_all(values, neutrosophic: bool) -> list | None:
    """Check the Scalars `values` as `_checked` does, and return their
    real parts when each is a real in [0, 1], else None. The fast check
    is C-level: min and max may pass over a NaN, but the sum is NaN
    exactly when a value is. When it fails, `_checked` runs on each
    value in order, so the first one that fails raises its error."""
    if not any(map(_INDET, values)):
        reals = list(map(_REAL, values))
        if 0.0 <= min(reals) and max(reals) <= 1.0 and not isnan(sum(reals)):
            return reals
    for value in values:
        _checked(value, neutrosophic)
    return None


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


def _fold_reals(reals: list, r: list) -> list:
    """p-hat on floats, for Q's floats `reals` in row-major order: p-hat_j
    is the least r_k with q_jk > r_k, else 1."""
    width = len(r)
    return [min(compress(r, map(operator.gt, reals[i:i + width], r)),
                default=1.0)
            for i in range(0, len(reals), width)]


def _fold_scalars(rows, r_vals) -> list:
    """p-hat in the Scalar order: each row's `_sigma` values folded with
    min from 1."""
    return [reduce(_min, map(_sigma, row, r_vals), ONE) for row in rows]


def _row(cells, domain=ValueDomain.ANY) -> Matrix:
    """The 1 x n matrix of `cells`, Scalars already checked."""
    cells = tuple(cells)
    return Matrix._of_checked(1, len(cells), cells, domain)


class _Candidate:
    """One Q checked under one mode, kept on Q (`q._memo(_Candidate,
    neutrosophic)`), and p-hat against the last target row solved for.
    `solve_max` and the minimal solutions of one system then fold p-hat
    once, and solving one Q against many targets keeps only the last.
    Building it checks every entry of Q, so a Q that fails the check
    leaves no memo behind. A real-valued Q keeps the real parts of its
    entries as one list of floats in row-major order; a row or a column
    is sliced from it when a fold reads it."""

    __slots__ = ("reals", "width", "last")

    def __init__(self, q: Matrix, neutrosophic: bool):
        self.reals = _checked_all(q.entries, neutrosophic)  # None: I in Q
        self.width = q.cols
        self.last = None  # (target row, p-hat), read and set whole

    def column(self, k: int) -> list:
        """The floats of column k of a real-valued Q."""
        return self.reals[k::self.width]

    def p_hat(self, q: Matrix, r_vals: tuple, r_reals) -> list:
        """p-hat for the checked entries `r_vals` of a target row of `q`:
        floats when `r_reals`, their real parts, and Q are real-valued,
        else Scalars. The last target is matched by identity, entry by
        entry, so a new row of equal entries folds again."""
        last = self.last
        if last is None or not all(map(operator.is_, last[0], r_vals)):
            if self.reals is None or r_reals is None:
                p_hat = _fold_scalars(map(q.row, range(q.rows)), r_vals)
            else:
                p_hat = _fold_reals(self.reals, r_reals)
            last = self.last = r_vals, p_hat
        return last[1]


def _max_candidate(q: Matrix, r: Matrix, neutrosophic: bool):
    """Q's `_Candidate`, the entries of the target row r and their real
    parts (None unless real-valued), and p-hat. The target is checked
    first, on every call; Q's check and p-hat are kept on Q."""
    r_vals = r.row(0)
    r_reals = _checked_all(r_vals, neutrosophic)
    candidate = q._memo(_Candidate, neutrosophic)
    return candidate, r_vals, r_reals, candidate.p_hat(q, r_vals, r_reals)


def solve_max(q: Matrix, r, *, neutrosophic: bool = False) -> FreSolution:
    """Closed-form maximum candidate plus a verification pass.

    solvable is decided by substituting the candidate back in: when even
    the maximum candidate misses r, no solution exists at all. Max-min
    composition only selects operands, so the residual is compared with r
    exactly.
    """
    r = _target_row(q, r)
    candidate, r_vals, r_reals, p_hat = _max_candidate(q, r, neutrosophic)
    if candidate.reals is None or r_reals is None:  # a multiple of I
        p_row = _row(p_hat)
        residual = maxmin_compose(p_row, q)
        return FreSolution(max_solution=p_row,
                           solvable=residual.row(0) == r_vals,
                           residual=residual)
    # p-hat holds target values and 1; a residual entry that is neither
    # is the entry of Q it took in its column
    scalars = dict(zip(r_reals, r_vals))
    scalars[1.0] = ONE
    residual = [max(map(min, p_hat, col))
                for col in map(candidate.column, range(q.cols))]
    return FreSolution(
        max_solution=_row(map(scalars.__getitem__, p_hat)),
        solvable=residual == r_reals,
        residual=_row(scalars[x] if x in scalars
                      else q.at(candidate.column(k).index(x), k)
                      for k, x in enumerate(residual)))


def failing_columns(q: Matrix, r) -> tuple:
    """0-based columns where even the column maximum falls short of r -
    each one certifies unsolvability on its own. A system holding no
    multiple of I is folded on floats: of two reals the Scalar max takes
    the second exactly when the first is less, as the builtin max does,
    and a maximum that neither equals its target nor dominates it is
    less than it, NaN included, as no comparison with NaN holds."""
    r = _target_row(q, r)
    r_vals = r.row(0)
    if not any(map(_INDET, q.entries)) and not any(map(_INDET, r_vals)):
        reals = list(map(_REAL, q.entries))
        return tuple(k for k, rk in enumerate(map(_REAL, r_vals))
                     if max(reals[k::q.cols]) < rk)
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
        candidate, r_vals, r_reals, p_hat = _max_candidate(q, r, False)
    except ModeMismatch:
        raise ModeMismatch(
            "minimal-solution enumeration is real-valued; Q and r must "
            "hold no indeterminate value") from None
    # with the flag off, every checked entry is a real in [0, 1], so p-hat
    # and Q's columns are floats
    every_j = range(q.rows)
    levels = {}  # r_k -> (J_k as a bit mask, J_k) of each column at r_k
    entries = {0.0: ZERO}  # r_k -> its Scalar, shared by the solutions
    for k, (rk, target) in enumerate(zip(r_reals, r_vals)):
        if rk > 0.0:
            entries[rk] = target
            js = tuple(compress(every_j, map(rk.__eq__, map(
                min, p_hat, candidate.column(k)))))
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
    return tuple(_row(map(entries.__getitem__, p), ValueDomain.UNIT)
                 for p in sorted(found))
