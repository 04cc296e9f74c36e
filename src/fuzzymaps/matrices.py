"""Dense matrices over Scalar entries and the binary operators on them:
entrywise Max/Min, the max-min and min-max compositions, ordinary product
and sum, and transpose.

Everything here is tiny (instances in practice are at most 9x9), so storage
is a flat tuple and the operations are straightforward loops.
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
    _coerce_each,
    _order_pair,
    _require_iterable,
    domain_join,
    parse_name,
    render_scalar,
)

OPS = ("circle", "maxmin", "minmax")


def _is_size(value) -> bool:
    """Whether `value` is an int, and not a bool, as a dimension must be."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Memoized:
    """An immutable value that keeps data derived from it, computed once:
    a step kernel's operands, a union's carrier problems, a seed's ON
    coordinates. The memos are not part of the value: a subclass leaves
    `_memos` out of equality, hashing and __reduce__, and sets it to None
    on construction."""

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


class Matrix(_Memoized):
    """Immutable rows x cols matrix of Scalars declared over a ValueDomain
    (a member or its text, such as `unit`).

    The shape is two ints and the entries are Scalars, ints or floats;
    anything else raises ShapeMismatch or DomainError, and so does an
    entry outside the domain's membership predicate. Indexing is 0-based.
    """

    __slots__ = ("rows", "cols", "domain", "entries")

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
        # object is checked once (a few literals fill most matrices);
        # `cells` keeps the objects alive, so no id is reused. A failure
        # is found again in row-major order, so the error names the first
        # entry outside the domain.
        if domain is not ValueDomain.ANY and not all(map(
                domain.contains, dict(zip(map(id, cells), cells)).values())):
            for idx, cell in enumerate(cells):
                if not domain.contains(cell):
                    raise DomainError(
                        f"{entry(idx)} = {render_scalar(cell)} is outside "
                        f"domain {domain.value}")
        self._fill(rows, cols, domain, cells)

    def _fill(self, rows, cols, domain, cells):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "entries", cells)
        object.__setattr__(self, "_memos", None)

    @classmethod
    def _of_checked(cls, rows, cols, cells, domain) -> "Matrix":
        """The rows x cols matrix of `cells`, a tuple of Scalars already
        known to lie in the ValueDomain member `domain`, built without
        checking the shape or the entries again."""
        mat = object.__new__(cls)
        mat._fill(rows, cols, domain, cells)
        return mat

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):  # the memos are not part of the value
        return Matrix, (self.rows, self.cols, self.entries, self.domain)

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

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.shape == other.shape and self.domain is other.domain
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.domain, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(render_scalar(c) for c in self.row(i))
            for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} {self.domain.value}: {body})"


def row_vector(values, domain=ValueDomain.ANY) -> Matrix:
    try:
        values = list(values)
    except TypeError:
        _require_iterable(values, "row vector values")
        raise
    return Matrix(1, len(values), values, domain)


def _require_same_shape(a: Matrix, b: Matrix, what):
    if a.shape != b.shape:
        raise ShapeMismatch(
            f"{what} needs equal shapes, got {a.rows}x{a.cols} "
            f"and {b.rows}x{b.cols}")


def _require_inner(a: Matrix, b: Matrix, what):
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


def _ends(policy):
    """The (min, max) scalar operators under `policy`, on Scalar operands."""

    def low(a, b):
        return _order_pair(a, b, policy)[0]

    def high(a, b):
        return _order_pair(a, b, policy)[1]

    return low, high


# built once per policy: every max-min and min-max step shares them
_ENDS = {policy: _ends(policy) for policy in OrderPolicy}


def operators(op, policy) -> tuple:
    """The (inner, outer) scalar operators of a product: `circle` sums
    products, `maxmin` takes the max of mins and `minmax` the min of
    maxes, with min and max ordered under `policy`. The order's operands
    must be Scalars."""
    if parse_name(op, OPS, "operator") == "circle":
        return operator.mul, operator.add
    low, high = _ENDS[OrderPolicy.parse(policy)]
    return (low, high) if op == "maxmin" else (high, low)


def fold_row(row, b: Matrix, inner, outer) -> tuple:
    """One row against every column of `b`: entry j folds
    inner(row[k], b[k, j]) over k with `outer`, from k = 0 up. The row
    length must equal the row count of `b`."""
    cells, cols = b.entries, b.cols
    return tuple(reduce(outer, map(inner, row, cells[j::cols]))
                 for j in range(cols))


def _product(a: Matrix, b: Matrix, what, op, policy, domain) -> Matrix:
    _require_inner(a, b, what)
    inner, outer = operators(op, policy)
    cells = []
    for i in range(a.rows):
        cells.extend(fold_row(a.row(i), b, inner, outer))
    return Matrix(a.rows, b.cols, cells, domain)


def maxmin_compose(p: Matrix, q: Matrix,
                   policy=OrderPolicy.BOOK_DEFAULT) -> Matrix:
    """r_ij = max over k of min(p_ik, q_kj)."""
    return _product(p, q, "max-min composition", "maxmin", policy,
                    domain_join(p.domain, q.domain))


def minmax_compose(p: Matrix, q: Matrix,
                   policy=OrderPolicy.BOOK_DEFAULT) -> Matrix:
    """c_ij = min over k of max(p_ik, q_kj)."""
    return _product(p, q, "min-max composition", "minmax", policy,
                    domain_join(p.domain, q.domain))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Ordinary row-by-column product. The output carries no domain
    constraint: products routinely escape the input domains."""
    return _product(a, b, "product", "circle", None, ValueDomain.ANY)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise sum. Unconstrained output domain: sums of opinions escape
    {-1,0,1} by design."""
    _require_same_shape(a, b, "sum")
    cells = list(map(operator.add, a.entries, b.entries))
    return Matrix(a.rows, a.cols, cells, ValueDomain.ANY)


def transpose(a: Matrix) -> Matrix:
    """The transpose of `a`: the same entry objects over the same domain,
    which are not checked again."""
    cells, cols = a.entries, a.cols
    return Matrix._of_checked(cols, a.rows, tuple(chain.from_iterable(
        cells[j::cols] for j in range(cols))), a.domain)

