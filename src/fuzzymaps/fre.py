"""Relational equations p composed-with Q = r under max-min.

The maximum candidate is closed-form: sigma(q, r) = r when q > r else 1,
and p-hat_j = min over k of sigma(q_jk, r_k). The system is solvable
exactly when p-hat itself satisfies it, and then every solution sits below
p-hat entrywise. The minimal solutions are derived exactly from p-hat as
the irredundant covers of the columns (real-valued inputs only).

Indeterminate entries are an opt-in extension (`neutrosophic=True`):
comparisons lift through the coefficient ordering on reals and pure
multiples of I. With the flag off, any indeterminate input is rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import prod

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


def _max_candidate(q: Matrix, r: Matrix, neutrosophic: bool):
    """The checked entries of q (as rows) and of the target row r, and
    p-hat, the maximum candidate, as a list of Scalars."""
    r_vals = [_checked(v, neutrosophic) for v in r.row(0)]
    q_vals = [[_checked(q.at(j, k), neutrosophic) for k in range(q.cols)]
              for j in range(q.rows)]
    p_hat = [reduce(_min, map(_sigma, row, r_vals), ONE)
             for row in q_vals]
    return q_vals, r_vals, p_hat


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
                                 budget: int = 5_000_000) -> tuple:
    """Every minimal solution, exactly, derived from p-hat (Sanchez 1976).

    Each column k with r_k > 0 must be reached by some j in
    J_k = {j : min(p-hat_j, q_jk) = r_k}. One choice of j per column (a
    cover) gives a candidate holding at j the largest r_k assigned to j
    and 0 elsewhere; the entrywise-minimal candidates are the minimal
    solutions. The number of covers, the product of the |J_k|, must stay
    within `budget`, an int (else InvalidInput). p-hat o Q <= r always
    holds, so a column is reached exactly when some j attains r_k: an
    unsolvable system leaves some J_k empty, hence no cover, and returns
    (). Real-valued only: an indeterminate entry raises ModeMismatch.
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
    targets, options = [], []
    for k, target in enumerate(r_vals):
        rk = target.real_part
        if rk > 0.0:
            targets.append(rk)
            options.append([
                j for j, pj in enumerate(p_hat)
                if min(pj, q_vals[j][k].real_part) == rk])
    covers = prod(len(js) for js in options)
    if covers > budget:
        raise BudgetExceeded(
            f"minimal-solution enumeration needs {covers} covers, budget "
            f"is {budget}")
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
    return tuple(row_vector(list(p), domain=ValueDomain.UNIT)
                 for p in sorted(minimal))


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
