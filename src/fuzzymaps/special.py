"""Component unions: ordered tuples of tagged matrices, a run's seed, and
the one per-component operation, apply_part.

The union symbol in this layer is purely structural. A union is a product
of independent systems, one per expert; it is never a set union, and equal
components may legally repeat. Nothing here steps a whole union: each
component lands on its own side (dynamics.landing_side), so a run's
records are the only view of a union step.
"""

from __future__ import annotations

from itertools import repeat

from .errors import EmptyUnion, NonSquareCM, ShapeMismatch
from .matrices import OPS, Matrix, _coded_row, _Memoized, fold_row
from .values import (
    ALGEBRAS,
    OrderPolicy,
    Scalar,
    ValueDomain,
    _FrozenRecord,
    _ancestors,
    _coerce_each,
    _named,
    _require_iterable,
    coerce,
    parse_name,
    render_row,
)

CM = "CM"    # square component iterated against itself
RM = "RM"    # rectangular component alternated with its transpose

KINDS = (CM, RM)

DOMAIN_SIDE = "domain"
RANGE_SIDE = "range"
SIDES = (DOMAIN_SIDE, RANGE_SIDE)


def other_side(side: str) -> str:
    return RANGE_SIDE if side == DOMAIN_SIDE else DOMAIN_SIDE


class ComponentTag(_FrozenRecord):
    """How one component participates in a run: its iteration kind,
    its value algebra, and the operator used to apply it."""

    __slots__ = ("kind", "algebra", "op")

    def __init__(self, kind: str = CM, algebra: str = "fuzzy",
                 op: str = "circle"):
        parse_name(kind, KINDS, "component kind")
        parse_name(algebra, ALGEBRAS, "algebra")
        parse_name(op, OPS, "operator")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "op", op)


# The carrier of each (algebra, op): the domain a component's values must
# sit inside. The circle operator sums signed weights; maxmin and minmax
# order memberships.
_CARRIERS = {
    ("fuzzy", "circle"): ValueDomain.TRI,
    ("neutrosophic", "circle"): ValueDomain.NEUTRO_TRI,
    ("fuzzy", "maxmin"): ValueDomain.UNIT,
    ("neutrosophic", "maxmin"): ValueDomain.NEUTRO_UNIT,
    ("fuzzy", "minmax"): ValueDomain.UNIT,
    ("neutrosophic", "minmax"): ValueDomain.NEUTRO_UNIT,
}
# per carrier, the declared domains that sit inside it
_INSIDE = {carrier: frozenset(d for d in ValueDomain
                              if carrier in _ancestors(d))
           for carrier in _CARRIERS.values()}


def _carrier_problems(components) -> tuple:
    """Every component of `components`, (Matrix, ComponentTag) pairs,
    whose values are off the carrier of its tag, as messages naming it:
    its declared domain must sit inside the carrier of the tag's algebra
    and operator. Matrix checked every entry against that domain, so the
    domain alone decides. A union keeps its own, as
    `union._memo(_carrier_problems)`."""
    out = []
    for idx, (matrix, tag) in enumerate(components):
        carrier = _CARRIERS[tag.algebra, tag.op]
        if matrix.domain not in _INSIDE[carrier]:
            out.append(f"component {idx + 1}: values declared "
                       f"{matrix.domain.value}, but a {tag.algebra} "
                       f"{tag.op} component needs {carrier.value}")
    return tuple(out)


class SpecialMatrix(_FrozenRecord, _Memoized):
    """Nonempty ordered union of (Matrix, ComponentTag) components. It
    keeps data derived from it through `_memo`, outside its value."""

    __slots__ = ("components",)

    def __init__(self, components):
        try:
            comps = tuple((m, t) for m, t in components)
        except (TypeError, ValueError):
            _require_iterable(components, "union components")
            raise ShapeMismatch("each union component must be a (Matrix, "
                                "ComponentTag) pair") from None
        if not comps:
            raise EmptyUnion("a union needs at least one component")
        for idx, (matrix, tag) in enumerate(comps):
            if not isinstance(matrix, Matrix) or not isinstance(tag,
                                                                ComponentTag):
                raise TypeError(
                    f"component {idx + 1} must be (Matrix, ComponentTag)")
            if tag.kind == CM and not matrix.is_square:
                raise NonSquareCM(
                    f"component {idx + 1} is tagged CM but has shape "
                    f"{matrix.rows}x{matrix.cols}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_memos", None)

    @property
    def classification(self) -> str:
        """The union's class by its algebras and shapes, such as `special
        fuzzy square`, computed on first read."""
        return self._memo(_classify)

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __repr__(self):
        parts = ", ".join(f"{m.rows}x{m.cols}/{t.kind}"
                          for m, t in self.components)
        return f"{type(self).__qualname__}({self.classification}: {parts})"


def _classify(union: SpecialMatrix) -> str:
    shapes = [m.shape for m, _ in union]
    algebras = {t.algebra for _, t in union}
    if algebras == {"fuzzy"}:
        alg = "fuzzy"
    elif algebras == {"neutrosophic"}:
        alg = "neutrosophic"
    else:
        alg = "fuzzy and neutrosophic"
    squares = [r == c for r, c in shapes]
    if all(squares):
        shape = "square" if len(set(shapes)) == 1 else "mixed square"
    elif not any(squares):
        shape = ("rectangular" if len(set(shapes)) == 1
                 else "mixed rectangular")
    else:
        shape = "mixed matrix"
    return f"special {alg} {shape}"


class SpecialStateVector(_FrozenRecord, _Memoized):
    """A run's seed: one state part per component, plus the side (domain
    or range) every part is seeded on. Only RM components have both
    spaces; a CM component has a single node space, which is its domain,
    so a run seeds it on the domain side only. It keeps data derived from
    its parts through `_memo`, outside its value."""

    __slots__ = ("parts", "side")

    def __init__(self, parts, side=DOMAIN_SIDE):
        parse_name(side, SIDES, "side")
        _require_iterable(parts, "state parts")
        packed = tuple(
            _coerce_each(part, f"state part {p + 1}",
                         lambda c, p=p: f"state part {p + 1}, "
                                        f"coordinate {c + 1}")
            for p, part in enumerate(parts))
        if not packed:
            raise EmptyUnion("a state union needs at least one part")
        for idx, part in enumerate(packed):
            if not part:
                raise ShapeMismatch(f"state part {idx + 1} is empty")
        object.__setattr__(self, "parts", packed)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "_memos", None)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        body = " U ".join("[" + " ".join(map(_named, p)) + "]"
                          for p in self.parts)
        return f"{type(self).__qualname__}({self.side}: {body})"


def render_part(part) -> str:
    """The values of a part as render_scalar renders them, bracketed."""
    return "[" + render_row(part) + "]"


def apply_part(part, mat: Matrix, op: str,
               policy=OrderPolicy.BOOK_DEFAULT):
    """Apply one state part against one matrix with the given operator.
    The part length must equal the matrix row count; the result length is
    the column count. The part's values may be Scalars, ints or floats.

    The circle product sums Scalar products (matrices.fold_row); max-min
    and min-max are one fold under `policy` (matrices._coded_row), which
    raises OrderUndefined before it folds when two of the values of the
    part and the matrix have no order, and returns operand objects."""
    if len(part) != mat.rows:
        raise ShapeMismatch(
            f"state length {len(part)} does not match {mat.rows}x{mat.cols}")
    if not all(map(isinstance, part, repeat(Scalar))):
        part = map(coerce, part)
    part = tuple(part)  # a tuple of Scalars is kept as it is
    if op == "maxmin" or op == "minmax":
        return _coded_row(part, mat, op, OrderPolicy.parse(policy))
    parse_name(op, OPS, "operator")  # circle, or a ParseError
    return fold_row(part, mat)
