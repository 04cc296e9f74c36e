"""Dense matrices over Scalar entries and the binary operators on them:
entrywise Max/Min, the max-min and min-max compositions, ordinary product
and sum, and transpose.

Everything here is tiny (instances in practice are at most 9x9), so storage
is a flat tuple and the operations are straightforward loops.
"""

from __future__ import annotations

import operator
from functools import reduce

from .errors import DomainError, ShapeMismatch
from .values import (
    OrderPolicy,
    Scalar,
    ValueDomain,
    _order_pair,
    coerce,
    domain_join,
    parse_name,
    render_scalar,
)

OPS = ("circle", "maxmin", "minmax")


class Matrix:
    """Immutable rows x cols matrix of Scalars declared over a ValueDomain
    (a member or its text, such as `unit`).

    Entries are checked against the domain's membership predicate at
    construction. Indexing is 0-based.
    """

    __slots__ = ("rows", "cols", "domain", "entries", "_memos")

    def __init__(self, rows, cols, entries, domain=ValueDomain.ANY):
        domain = ValueDomain.parse(domain)
        rows = int(rows)
        cols = int(cols)
        if rows < 1 or cols < 1:
            raise ShapeMismatch(f"matrix shape {rows}x{cols} is empty")
        cells = tuple(coerce(e) for e in entries)
        if len(cells) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, "
                f"got {len(cells)}")
        for idx, cell in enumerate(cells):
            if not domain.contains(cell):
                raise DomainError(
                    f"entry ({idx // cols + 1},{idx % cols + 1}) = "
                    f"{render_scalar(cell)} is outside domain {domain.value}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "entries", cells)
        object.__setattr__(self, "_memos", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):  # the memos are not part of the value
        return Matrix, (self.rows, self.cols, self.entries, self.domain)

    def _memo(self, build):
        """`build(self)`, computed on the first call with `build` and kept
        on the matrix: derived data, such as a step kernel's column masks,
        that depends only on the entries. Not part of the value."""
        memos = self._memos
        if memos is None:
            memos = {}
            object.__setattr__(self, "_memos", memos)
        try:
            return memos[build]
        except KeyError:
            value = memos[build] = build(self)
            return value

    @classmethod
    def from_rows(cls, rows, domain=ValueDomain.ANY) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ShapeMismatch("matrix needs at least one row and column")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ShapeMismatch(
                    f"row {i + 1} has {len(r)} entries, expected {width}")
        flat = [cell for r in rows for cell in r]
        return cls(len(rows), width, flat, domain)

    def at(self, i, j) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

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
    values = list(values)
    return Matrix(1, len(values), values, domain)


def zeros(rows, cols, domain=ValueDomain.ANY) -> Matrix:
    return Matrix(rows, cols, [Scalar(0)] * (rows * cols), domain)


def identity(n, domain=ValueDomain.UNIT) -> Matrix:
    cells = [Scalar(1) if i == j else Scalar(0)
             for i in range(n) for j in range(n)]
    return Matrix(n, n, cells, domain)


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
    cells = [a.at(i, j) for j in range(a.cols) for i in range(a.rows)]
    return Matrix(a.cols, a.rows, cells, a.domain)

