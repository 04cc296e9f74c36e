"""Component unions: ordered tuples of tagged matrices, a run's seed, and
the one per-component operation, apply_part.

The union symbol in this layer is purely structural. A union is a product
of independent systems, one per expert; it is never a set union, and equal
components may legally repeat. Nothing here steps a whole union: each
component lands on its own side (dynamics.landing_side), so a run's
records are the only view of a union step.
"""

from __future__ import annotations

from .errors import EmptyUnion, NonSquareCM, ShapeMismatch
from .matrices import OPS, Matrix, _Memoized, fold_row, operators
from .values import (
    ALGEBRAS,
    OrderPolicy,
    ValueDomain,
    _FrozenRecord,
    _ancestors,
    _coerce_each,
    _require_iterable,
    coerce,
    parse_name,
    render_scalar,
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


class SpecialMatrix(_Memoized):
    """Nonempty ordered union of (Matrix, ComponentTag) components. It
    keeps data derived from it through `_memo`, outside its value."""

    __slots__ = ("components", "classification")

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
        object.__setattr__(self, "classification", _classify(comps))
        object.__setattr__(self, "_memos", None)

    def __setattr__(self, name, value):
        raise AttributeError("SpecialMatrix is immutable")

    def __reduce__(self):
        return SpecialMatrix, (self.components,)

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        if not isinstance(other, SpecialMatrix):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        parts = ", ".join(f"{m.rows}x{m.cols}/{t.kind}"
                          for m, t in self.components)
        return f"SpecialMatrix({self.classification}: {parts})"


def _classify(components) -> str:
    shapes = [m.shape for m, _ in components]
    algebras = {t.algebra for _, t in components}
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


class SpecialStateVector(_Memoized):
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

    def __setattr__(self, name, value):
        raise AttributeError("SpecialStateVector is immutable")

    def __reduce__(self):
        return SpecialStateVector, (self.parts, self.side)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        if not isinstance(other, SpecialStateVector):
            return NotImplemented
        return self.parts == other.parts and self.side == other.side

    def __hash__(self):
        return hash((self.parts, self.side))

    def __repr__(self):
        body = " U ".join(render_part(p) for p in self.parts)
        return f"SpecialStateVector({self.side}: {body})"


def render_part(part) -> str:
    return "[" + " ".join(map(render_scalar, part)) + "]"


def apply_part(part, mat: Matrix, op: str,
               policy=OrderPolicy.BOOK_DEFAULT):
    """Apply one state part against one matrix with the given operator.
    The part length must equal the matrix row count; the result length is
    the column count. The part's values may be Scalars, ints or floats."""
    if len(part) != mat.rows:
        raise ShapeMismatch(
            f"state length {len(part)} does not match {mat.rows}x{mat.cols}")
    return fold_row(tuple(map(coerce, part)), mat, *operators(op, policy))
