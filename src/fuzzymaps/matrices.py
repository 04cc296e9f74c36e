"""Dense matrices over Scalar entries and the binary operators on them:
entrywise Max/Min, the max-min and min-max compositions, ordinary product
and sum, and transpose.

Everything here is tiny (instances in practice are at most 9x9), so storage
is a flat tuple and most operations are straightforward loops. Max-min and
min-max fold each row on int order codes (values._order_code), or raise
OrderUndefined before folding a row whose values have no order. A matrix
argument that is not a Matrix raises TypeError naming it.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import chain

from .errors import DomainError, ShapeMismatch
from .values import (
    OrderPolicy,
    Scalar,
    ValueDomain,
    _FrozenRecord,
    _ORDER_FLIP,
    _book_pick,
    _check_order,
    _coerce_each,
    _named,
    _order_codes,
    _order_pair,
    _require_iterable,
    _require_type,
    domain_join,
)

OPS = ("circle", "maxmin", "minmax")


def _is_size(value) -> bool:
    """Whether `value` is an int, and not a bool, as a dimension must be."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Memoized:
    """An immutable value that keeps data derived from it, computed once:
    a step kernel's operands, a union's carrier problems, a seed's ON
    coordinates. The memos are not part of the value: `_memos` is a slot
    of this class, not of the _FrozenRecord subclass, so it is none of the
    subclass's fields, which alone are compared, hashed and pickled. A
    subclass sets it to None on construction."""

    __slots__ = ("_memos",)

    def _memo(self, build, *key):
        """`build(self, *key)`, computed on the first call with `build` and
        `key` and kept on the object. `key` holds what else the derived
        data depends on; it must be hashable."""
        memos = self._memos
        if memos is None:
            memos = {}
            object.__setattr__(self, "_memos", memos)
        try:
            return memos[build, key]
        except KeyError:
            value = memos[build, key] = build(self, *key)
            return value

    def _memo_kept(self, build, *key):
        """What `_memo(build, *key)` has kept, or None: nothing is built."""
        memos = self._memos
        return None if memos is None else memos.get((build, key))


class Matrix(_FrozenRecord, _Memoized):
    """Immutable rows x cols matrix of Scalars declared over a ValueDomain
    (a member or its text, such as `unit`).

    The shape is two ints and the entries are Scalars, ints or floats;
    anything else raises ShapeMismatch or DomainError, and so does an
    entry outside the domain's membership predicate. Indexing is 0-based.
    """

    __slots__ = ("rows", "cols", "entries", "domain")

    def __init__(self, rows, cols, entries, domain=ValueDomain.ANY):
        domain = ValueDomain.parse(domain)
        if not (_is_size(rows) and _is_size(cols)):
            raise ShapeMismatch(
                f"matrix shape ({rows!r}, {cols!r}) is not two ints")
        if rows < 1 or cols < 1:
            raise ShapeMismatch(f"matrix shape {rows}x{cols} is empty")

        def entry(idx):
            return f"entry ({idx // cols + 1},{idx % cols + 1})"

        cells = _coerce_each(entries, "matrix entries", entry)
        if len(cells) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, "
                f"got {len(cells)}")
        # ANY holds every Scalar. Under another domain each distinct entry
        # is checked once (a few literals fill most matrices). A failure is
        # found again in row-major order, so the error names the first
        # entry outside the domain.
        if domain is not ValueDomain.ANY and not all(map(domain.contains,
                                                         set(cells))):
            for idx, cell in enumerate(cells):
                if not domain.contains(cell):
                    raise DomainError(
                        f"{entry(idx)} = {_named(cell)} is outside "
                        f"domain {domain.value}")
        self._fill(rows, cols, domain, cells)

    def _fill(self, rows, cols, domain, cells):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", cells)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_memos", None)

    @classmethod
    def _of_checked(cls, rows, cols, cells, domain) -> "Matrix":
        """The rows x cols matrix of `cells`, a tuple of Scalars already
        known to lie in the ValueDomain member `domain`, built without
        checking the shape or the entries again."""
        mat = object.__new__(cls)
        mat._fill(rows, cols, domain, cells)
        return mat

    @classmethod
    def from_rows(cls, rows, domain=ValueDomain.ANY) -> "Matrix":
        _require_iterable(rows, "matrix rows")
        rows = list(rows)
        try:
            rows = [list(r) for r in rows]
        except TypeError:
            for r in rows:
                _require_iterable(r, "a matrix row")
            raise
        if not rows or not rows[0]:
            raise ShapeMismatch("matrix needs at least one row and column")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ShapeMismatch(
                    f"row {i + 1} has {len(r)} entries, expected {width}")
        return cls(len(rows), width, chain.from_iterable(rows), domain)

    def at(self, i, j) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def shape(self):
        return (self.rows, self.cols)

    def with_domain(self, domain: ValueDomain) -> "Matrix":
        return Matrix(self.rows, self.cols, self.entries, domain)

    def __repr__(self):
        body = "; ".join(" ".join(map(_named, self.row(i)))
                         for i in range(self.rows))
        return (f"{type(self).__qualname__}({self.rows}x{self.cols} "
                f"{self.domain.value}: {body})")


def row_vector(values, domain=ValueDomain.ANY) -> Matrix:
    try:
        values = list(values)
    except TypeError:
        _require_iterable(values, "row vector values")
        raise
    return Matrix(1, len(values), values, domain)


def _require_same_shape(a: Matrix, b: Matrix, what):
    _require_type(a, Matrix, "a")
    _require_type(b, Matrix, "b")
    if a.shape != b.shape:
        raise ShapeMismatch(
            f"{what} needs equal shapes, got {a.rows}x{a.cols} "
            f"and {b.rows}x{b.cols}")


def _require_inner(a: Matrix, b: Matrix, what, names):
    _require_type(a, Matrix, names[0])
    _require_type(b, Matrix, names[1])
    if a.cols != b.rows:
        raise ShapeMismatch(
            f"{what} needs cols(A) = rows(B), got {a.rows}x{a.cols} "
            f"and {b.rows}x{b.cols}")


def _entrywise(a: Matrix, b: Matrix, what, end, policy) -> Matrix:
    """The `end` (0 for min, 1 for max) of each pair of entries."""
    _require_same_shape(a, b, what)
    policy = OrderPolicy.parse(policy)
    cells = [_order_pair(x, y, policy)[end]
             for x, y in zip(a.entries, b.entries)]
    return Matrix(a.rows, a.cols, cells, domain_join(a.domain, b.domain))


def elementwise_max(a: Matrix, b: Matrix,
                    policy=OrderPolicy.BOOK_DEFAULT) -> Matrix:
    return _entrywise(a, b, "Max", 1, policy)


def elementwise_min(a: Matrix, b: Matrix,
                    policy=OrderPolicy.BOOK_DEFAULT) -> Matrix:
    return _entrywise(a, b, "Min", 0, policy)


def fold_row(row, b: Matrix) -> tuple:
    """The circle product of one row with every column of `b`: entry j
    sums row[k] * b[k, j] over k, from k = 0 up. The row length must equal
    the row count of `b`."""
    cells, cols = b.entries, b.cols
    return tuple(reduce(operator.add, map(operator.mul, row, cells[j::cols]))
                 for j in range(cols))


def _coded_columns(b: Matrix, op, policy):
    """The codes of `b`'s entries in the inner order of `op` (the min
    order for maxmin, the max order for minmax) under `policy`, column
    after column, and the lowest of them; None when an entry has no code.
    A matrix keeps its own, as `b._memo(_coded_columns, op, policy)`."""
    codes = _order_codes(b.entries, policy)
    if codes is None:
        return None
    if op == "minmax":
        codes = list(map(_ORDER_FLIP[policy].__xor__, codes))
    cols = b.cols
    return (list(chain.from_iterable(codes[j::cols] for j in range(cols))),
            min(codes))


def _coded_row(row: tuple, b: Matrix, op, policy) -> tuple:
    """One row of Scalars against every column of `b` under `op` (maxmin
    or minmax) and an OrderPolicy member: entry j folds the inner end of
    row[k] and b[k, j] over k with the outer end, from k = 0 up, and is
    one of those operands. Before it folds on order codes, it raises
    OrderUndefined (values._check_order) when two values of `row` and `b`
    have no order; a BOOK_DEFAULT code is negative only for a negative
    value. For column j, `met` holds the code of each inner result; the
    outer fold keeps the first operand no later one beats: inner result k
    for the first k whose code wins, x_k unless q_kj lies beyond it."""
    coded = b._memo(_coded_columns, op, policy)
    codes = _order_codes(row, policy)
    flip = _ORDER_FLIP[policy]
    if coded is None or codes is None \
            or flip == 1 and (coded[1] < 0 or min(codes) < 0):
        _check_order((*row, *b.entries), policy)
    by_column = coded[0]
    cells, cols = b.entries, b.cols
    # every inner result in one pass of int comparisons, each a third of
    # the cost of a two-argument builtin min/max; one tuple per column
    if op == "maxmin":
        outer = max
        inner = [x if x < q else q for x, q in zip(codes * cols, by_column)]
    else:
        outer = min
        codes = list(map(flip.__xor__, codes))
        inner = [x if x > q else q for x, q in zip(codes * cols, by_column)]
    mets = zip(*[iter(inner)] * len(codes))
    out = []
    for j, met in enumerate(mets):
        best = _book_pick(outer, met) if flip == 1 \
            else outer(met, key=flip.__xor__)
        k = met.index(best)
        out.append(row[k] if best == codes[k] else cells[k * cols + j])
    return tuple(out)


def _product(a: Matrix, b: Matrix, what, op, policy=None) -> Matrix:
    """`a` times `b` under `op`; a composition keeps the domains' join."""
    _require_inner(a, b, what, "ab" if op == "circle" else "pq")
    if op == "circle":
        rows = (fold_row(a.row(i), b) for i in range(a.rows))
        domain = ValueDomain.ANY
    else:
        policy = OrderPolicy.parse(policy)
        rows = (_coded_row(a.row(i), b, op, policy) for i in range(a.rows))
        domain = domain_join(a.domain, b.domain)
    return Matrix(a.rows, b.cols, chain.from_iterable(rows), domain)


def maxmin_compose(p: Matrix, q: Matrix,
                   policy=OrderPolicy.BOOK_DEFAULT) -> Matrix:
    """r_ij = max over k of min(p_ik, q_kj)."""
    return _product(p, q, "max-min composition", "maxmin", policy)


def minmax_compose(p: Matrix, q: Matrix,
                   policy=OrderPolicy.BOOK_DEFAULT) -> Matrix:
    """c_ij = min over k of max(p_ik, q_kj)."""
    return _product(p, q, "min-max composition", "minmax", policy)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Ordinary row-by-column product. The output carries no domain
    constraint: products routinely escape the input domains."""
    return _product(a, b, "product", "circle")


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise sum. Unconstrained output domain: sums of opinions escape
    {-1,0,1} by design."""
    _require_same_shape(a, b, "sum")
    cells = list(map(operator.add, a.entries, b.entries))
    return Matrix(a.rows, a.cols, cells, ValueDomain.ANY)


def transpose(a: Matrix) -> Matrix:
    """The transpose of `a`: the same entry objects over the same domain,
    which are not checked again."""
    _require_type(a, Matrix, "a")
    cells, cols = a.entries, a.cols
    return Matrix._of_checked(cols, a.rows, tuple(chain.from_iterable(
        cells[j::cols] for j in range(cols))), a.domain)

