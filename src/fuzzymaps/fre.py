"""Relational equations p composed-with Q = r under max-min.

The maximum candidate is closed-form (Sanchez 1976): sigma(q, r) = r when
q > r else 1, and p-hat_j = min over k of sigma(q_jk, r_k). The system is
solvable exactly when p-hat itself satisfies it, and then every solution
sits below p-hat entrywise. The minimal solutions are derived exactly from
p-hat by a search over the irredundant covers of the columns, bounded by a
budget of search nodes (real-valued inputs only).

Every answer is read from one record per Q and target row, after Peeva &
Kyosev (2004), who solve from the system's characteristic matrix. Each
value is checked and coded once by the book order code of min
(values._order_codes, memoized), where nI sits just below n; the max
fold takes nI at a tie with n (values._book_pick), as min(n, nI) =
max(n, nI) = nI. One row pass gives p-hat; one column pass gives, for
each k, the residual and J_k = {j : min(p-hat_j, q_jk) = r_k}.
failing_columns folds each column's maximum from the same codes.
min and max only select operands, so each code maps back to an input
Scalar, 0 or 1, as in the Scalar order. Q keeps the record of its last
target, so the calls on one system build it once.

Indeterminate entries are an opt-in extension (`neutrosophic=True`): each
entry must then lie on the unit carrier, a real in [0, 1] or a pure
multiple bI with b in [0, 1]. With the flag off, any indeterminate input
is rejected. failing_columns and check_necessary check on the carrier.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from itertools import compress

from .errors import (
    BudgetExceeded,
    DomainError,
    InvalidInput,
    ModeMismatch,
    ShapeMismatch,
)
# maxmin_compose stays bound: bench/tracing.py wraps it by this name
from .matrices import Matrix, maxmin_compose, row_vector  # noqa: F401
from .values import (
    ONE,
    ZERO,
    OrderPolicy,
    Scalar,
    ValueDomain,
    _INDET,
    _FrozenRecord,
    _book_pick,
    _named,
    _order_codes,
    _require_type,
    coerce,
)


class FreSolution(_FrozenRecord):
    """What solve_max finds for X o Q = R: the greatest candidate X
    (p-hat), whether it solves the system, and its residual X o Q."""

    __slots__ = ("max_solution", "solvable", "residual")

    def __init__(self, max_solution: Matrix, solvable: bool,
                 residual: Matrix):
        object.__setattr__(self, "max_solution", max_solution)
        object.__setattr__(self, "solvable", solvable)
        object.__setattr__(self, "residual", residual)


def _checked(value, neutrosophic: bool) -> Scalar:
    x = coerce(value)
    if not neutrosophic:
        if x.indet_coeff != 0.0:
            raise ModeMismatch(
                f"indeterminate value {_named(x)} needs neutrosophic=True")
        if not ValueDomain.UNIT.contains(x):
            raise DomainError(f"membership {_named(x)} outside [0, 1]")
        return x
    if not ValueDomain.NEUTRO_UNIT.contains(x):
        raise DomainError(
            f"membership {_named(x)} outside the unit carrier")
    return x


_BOOK = OrderPolicy.BOOK_DEFAULT
# the codes of 0 and 1: the unit carrier codes between them
_ZERO_CODE, _ONE_CODE = _order_codes((ZERO, ONE), _BOOK)


def _coded(values, neutrosophic: bool) -> tuple:
    """The book codes of the Scalars `values` (values._order_codes) and
    whether one holds I. The check is that of `_checked` by passes over
    the list: codes between 0's and 1's, and no I in the real-valued
    mode. When it fails, `_checked` runs on each value in order, and the
    first bad one raises."""
    codes = _order_codes(values, _BOOK)
    indet = any(map(_INDET, values))
    if codes is None or min(codes) < _ZERO_CODE or max(codes) > _ONE_CODE \
            or indet and not neutrosophic:
        for value in values:
            _checked(value, neutrosophic)
    return codes, indet


def sigma(q, r, *, neutrosophic: bool = False) -> Scalar:
    """The residuation kernel: r when q exceeds r, else 1; p-hat of the
    one-entry system q p = r."""
    q, r = _checked(q, neutrosophic), _checked(r, neutrosophic)
    return solve_max(_row([q]), [r], neutrosophic=neutrosophic) \
        .max_solution.at(0, 0)


def _target_row(q: Matrix, r) -> Matrix:
    """r as a 1 x s row matrix, for q of shape m x s (p is then 1 x m)."""
    _require_type(q, Matrix, "q")
    if not isinstance(r, Matrix):
        r = row_vector(list(r), domain=ValueDomain.ANY)
    if r.rows != 1:
        raise ShapeMismatch(f"r must be a row vector, got {r.rows}x{r.cols}")
    if r.cols != q.cols:
        raise ShapeMismatch(
            f"r has {r.cols} entries but q has {q.cols} columns")
    return r


def _row(cells, domain=ValueDomain.ANY) -> Matrix:
    """The 1 x n matrix of `cells`, Scalars already checked."""
    cells = tuple(cells)
    return Matrix._of_checked(1, len(cells), cells, domain)


# one system as codes: Q's in row-major order, the target, whether one
# value holds I, and the Scalar of each code; p-hat, the residual and J_k
# by column (of a real-valued system: the minimal search reads no other)
_Record = namedtuple("_Record", "codes target indet scalars p_hat residual "
                     "covers")


def _fold(candidate: "_Candidate", target: list, r_vals: tuple,
          r_indet: bool) -> _Record:
    """The record of Q's `candidate` against the target row `r_vals`,
    coded as `target`."""
    codes, width = candidate.codes, candidate.width
    # q_jk dominates r_k, so sigma gives r_k, exactly when q_jk's key is
    # higher: when its code exceeds the code of the real of r_k's key
    above = [rk | 1 for rk in target]
    p_hat = [min(compress(target, map(operator.gt, codes[i:i + width],
                                      above)), default=_ONE_CODE)
             for i in range(0, len(codes), width)]
    residual, covers = [], []
    for k, rk in enumerate(target):
        column = codes[k::width]
        # min written out: on two ints it runs faster than the builtin
        meets = [pj if pj < qjk else qjk for pj, qjk in zip(p_hat, column)]
        residual.append(_book_pick(max, meets))
        # no j reaches r_k in a column the residual misses: p-hat o Q <= r
        covers.append(tuple([j for j, mj in enumerate(meets) if mj == rk])
                      if residual[-1] == rk else ())
    scalars = dict(zip(target, r_vals))
    scalars[_ZERO_CODE], scalars[_ONE_CODE] = ZERO, ONE
    if not all(map(scalars.__contains__, residual)):
        # the residual takes an entry of Q: map Q's codes to its Scalars
        scalars = {**dict(zip(codes, candidate.entries)), **scalars}
    return _Record(codes, target, candidate.indet or r_indet, scalars,
                   p_hat, residual, covers)


class _Candidate:
    """One Q checked on the unit carrier and coded, kept on Q as
    `q._memo(_Candidate)` with the record of the last target row solved
    against it: solving one Q against many targets keeps only the last.
    A Q off the carrier fails to build and leaves no memo."""

    __slots__ = ("entries", "codes", "indet", "width", "last")

    def __init__(self, q: Matrix):
        self.codes, self.indet = _coded(q.entries, True)
        self.entries, self.width = q.entries, q.cols
        self.last = None  # (target row, record), read and set whole


def _record(q: Matrix, r, neutrosophic: bool) -> _Record:
    """The record of q p = r, r checked before Q under the mode. The last
    target is matched entry by entry by identity (a new row of equal
    entries folds again) and read again if the mode admits it. A Q failing
    the carrier check, or holding I under the real-valued check, is
    checked again entry by entry, so that its first bad entry raises."""
    r_vals = _target_row(q, r).row(0)
    kept = q._memo_kept(_Candidate)
    last = kept and kept.last
    if last and all(map(operator.is_, last[0], r_vals)) \
            and (neutrosophic or not last[1].indet):
        return last[1]
    r_codes, r_indet = _coded(r_vals, neutrosophic)
    try:
        candidate = q._memo(_Candidate)
    except DomainError:
        candidate = None
    if candidate is None or candidate.indet and not neutrosophic:
        for value in q.entries:
            _checked(value, neutrosophic)
    candidate.last = r_vals, _fold(candidate, r_codes, r_vals, r_indet)
    return candidate.last[1]


def solve_max(q: Matrix, r, *, neutrosophic: bool = False) -> FreSolution:
    """Closed-form maximum candidate plus a verification pass.

    solvable is decided by substituting the candidate back in: when even
    the maximum candidate misses r, no solution exists at all. Max-min
    composition only selects operands, so the residual is compared with r
    exactly.
    """
    record = _record(q, r, neutrosophic)
    scalar = record.scalars.__getitem__
    return FreSolution(max_solution=_row(map(scalar, record.p_hat)),
                       solvable=record.residual == record.target,
                       residual=_row(map(scalar, record.residual)))


def failing_columns(q: Matrix, r) -> tuple:
    """0-based columns where even the column maximum falls short of r -
    each one certifies unsolvability on its own. Q and r are checked on
    the unit carrier, as solve_max(..., neutrosophic=True) checks them."""
    record = _record(q, r, True)
    width = len(record.target)
    tops = [_book_pick(max, record.codes[k::width]) for k in range(width)]
    return tuple(k for k, (top, rk) in enumerate(zip(tops, record.target))
                 if top != rk and top >> 1 <= rk >> 1)


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
    try:
        record = _record(q, r, False)
    except ModeMismatch:
        raise ModeMismatch(
            "minimal-solution enumeration is real-valued; Q and r must "
            "hold no indeterminate value") from None
    # the walk runs on the codes, which order reals as their values
    levels = {}  # r_k -> (J_k as a bit mask, J_k) of each column at r_k
    for rk, js in zip(record.target, record.covers):
        if rk != _ZERO_CODE:
            if not js:
                return ()
            levels.setdefault(rk, []).append((sum(1 << j for j in js), js))
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
    stack = [(0, 0, 0, (_ZERO_CODE,) * q.rows)]
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
    return tuple(_row(map(record.scalars.__getitem__, p), ValueDomain.UNIT)
                 for p in sorted(found))
