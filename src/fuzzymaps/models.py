"""Named multi-expert model classes over component unions.

Each class is a constraint predicate on the tags/shapes of the underlying
union plus bookkeeping (attribute labels, one expert identifier per
component). The model layer validates and dispatches; it never changes
the arithmetic of the run itself.
"""

from __future__ import annotations

import functools

from .errors import ClassViolation, NonzeroDiagonal, WrongEntryPoint
# run_cm and run_rm stay bound: bench/tracing.py wraps them by these names
from .dynamics import run_cm, run_mixed, run_rm  # noqa: F401
from .special import (
    CM,
    RM,
    SpecialMatrix,
    SpecialStateVector,
    _carrier_problems,
)
from .values import _FrozenRecord, _Vocabulary, _require_type


class ModelClass(_Vocabulary, what="model class"):
    SFCM = "SFCM"
    SMFCM = "SMFCM"
    SNCM = "SNCM"
    SMNCM = "SMNCM"
    SFNCM = "SFNCM"
    SFRM = "SFRM"
    SMFRM = "SMFRM"
    SNRM = "SNRM"
    SMNRM = "SMNRM"
    SFNRM = "SFNRM"
    SMFCFRM = "SMFCFRM"
    SMNCNRM = "SMNCNRM"
    SMFCRNCRM = "SMFCRNCRM"
    SFRE = "SFRE"
    SMFRE = "SMFRE"
    SNRE = "SNRE"
    SMNRE = "SMNRE"
    SSHM = "SSHM"

    @classmethod
    def parse(cls, value) -> "ModelClass":
        """The class `value` is or spells: a member, or its code in any
        case with surrounding blanks (` sfcm`)."""
        if isinstance(value, str):
            value = value.strip().upper()
        return super().parse(value)


# Classes whose components describe relational equations rather than
# dynamical systems; they are built here but solved by the fre module.
FRE_CLASSES = frozenset(
    {ModelClass.SFRE, ModelClass.SMFRE, ModelClass.SNRE, ModelClass.SMNRE})


class _ClassRule(_FrozenRecord):
    """Decidable structural constraints for one model class: the allowed
    component kinds, algebras and operators (no operators = any), whether
    all components share one shape, and the kinds and algebras that must
    each appear at least once."""

    __slots__ = ("kinds", "algebras", "ops", "uniform_shape",
                 "require_kinds", "require_algebras")

    def __init__(self, kinds: frozenset, algebras: frozenset,
                 ops: frozenset, uniform_shape: bool = False,
                 require_kinds: frozenset = frozenset(),
                 require_algebras: frozenset = frozenset()):
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "algebras", algebras)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "uniform_shape", uniform_shape)
        object.__setattr__(self, "require_kinds", require_kinds)
        object.__setattr__(self, "require_algebras", require_algebras)


_F = frozenset({"fuzzy"})
_N = frozenset({"neutrosophic"})
_FN = frozenset({"fuzzy", "neutrosophic"})
_CIRCLE = frozenset({"circle"})
_MAXMIN = frozenset({"maxmin"})
_CM_ONLY = frozenset({CM})
_RM_ONLY = frozenset({RM})
_ANY_KIND = frozenset({CM, RM})

_RULES = {
    ModelClass.SFCM: _ClassRule(_CM_ONLY, _F, _CIRCLE, uniform_shape=True),
    ModelClass.SMFCM: _ClassRule(_CM_ONLY, _F, _CIRCLE),
    ModelClass.SNCM: _ClassRule(_CM_ONLY, _N, _CIRCLE, uniform_shape=True),
    ModelClass.SMNCM: _ClassRule(_CM_ONLY, _N, _CIRCLE),
    ModelClass.SFNCM: _ClassRule(_CM_ONLY, _FN, _CIRCLE,
                                 require_algebras=_FN),
    ModelClass.SFRM: _ClassRule(_RM_ONLY, _F, _CIRCLE, uniform_shape=True),
    ModelClass.SMFRM: _ClassRule(_RM_ONLY, _F, _CIRCLE),
    ModelClass.SNRM: _ClassRule(_RM_ONLY, _N, _CIRCLE, uniform_shape=True),
    ModelClass.SMNRM: _ClassRule(_RM_ONLY, _N, _CIRCLE),
    ModelClass.SFNRM: _ClassRule(_RM_ONLY, _FN, _CIRCLE,
                                 require_algebras=_FN),
    ModelClass.SMFCFRM: _ClassRule(_ANY_KIND, _F, _CIRCLE,
                                   require_kinds=_ANY_KIND),
    ModelClass.SMNCNRM: _ClassRule(_ANY_KIND, _N, _CIRCLE,
                                   require_kinds=_ANY_KIND),
    ModelClass.SMFCRNCRM: _ClassRule(_ANY_KIND, _FN, frozenset()),
    ModelClass.SSHM: _ClassRule(_ANY_KIND, _FN, frozenset()),
    ModelClass.SFRE: _ClassRule(_RM_ONLY, _F, _MAXMIN, uniform_shape=True),
    ModelClass.SMFRE: _ClassRule(_RM_ONLY, _F, _MAXMIN),
    ModelClass.SNRE: _ClassRule(_RM_ONLY, _N, _MAXMIN, uniform_shape=True),
    ModelClass.SMNRE: _ClassRule(_RM_ONLY, _N, _MAXMIN),
}


class Model(_FrozenRecord):
    """A validated union with class, labels, and expert provenance. The
    class is a ModelClass or its code (ModelClass.parse). The labels hold,
    per component, (row_labels,) for CM and (rows, cols) for RM. The union
    is checked by diagonal_diagnostics, then by class_diagnostics."""

    __slots__ = ("model_class", "matrix", "labels", "experts")

    def __init__(self, model_class: ModelClass, matrix: SpecialMatrix,
                 labels: tuple, experts: tuple):
        model_class = ModelClass.parse(model_class)
        _require_type(matrix, SpecialMatrix, "matrix")
        diagonal_problems = diagonal_diagnostics(matrix)
        if diagonal_problems:
            raise NonzeroDiagonal("; ".join(diagonal_problems))
        problems = class_diagnostics(model_class, matrix)
        if problems:
            raise ClassViolation("; ".join(problems))
        if len(labels) != len(matrix):
            raise ClassViolation(
                f"{len(labels)} label groups for {len(matrix)} components")
        if len(experts) != len(matrix):
            raise ClassViolation(
                f"{len(experts)} expert names for {len(matrix)} components")
        object.__setattr__(self, "model_class", model_class)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "experts", experts)


def class_diagnostics(model_class: ModelClass,
                      special: SpecialMatrix) -> list:
    """Every way `special` violates the class predicate, as messages
    naming the component and the broken rule: each component whose values
    are off the carrier of its tag (the rule a run applies too), then the
    class's tag-and-shape rule. Empty means valid."""
    return [*special._memo(_carrier_problems), *_tag_diagnostics(
        model_class, [(tag, mat.shape) for mat, tag in special])]


def _tag_diagnostics(model_class: ModelClass, components) -> list:
    """Every way a union whose components have these (tag, shape) pairs
    breaks the class's rule on kinds, algebras, operators and shapes, as
    messages naming the component. Trace verification applies it to a
    trace's component lines."""
    rule = _RULES[model_class]
    name = model_class.value
    out = []
    for idx, (tag, _) in enumerate(components):
        where = f"component {idx + 1}"
        if tag.kind not in rule.kinds:
            out.append(f"{where}: kind {tag.kind} not allowed in {name}")
        if tag.algebra not in rule.algebras:
            out.append(
                f"{where}: {tag.algebra} components not allowed in {name}")
        if rule.ops and tag.op not in rule.ops:
            out.append(
                f"{where}: operator {tag.op} not allowed in {name}")
    shapes = {shape for _, shape in components}
    if rule.uniform_shape and len(shapes) > 1:
        out.append(f"{name} components must share one shape; "
                   f"got {sorted(shapes)}")
    seen_kinds = {tag.kind for tag, _ in components}
    for kind in sorted(rule.require_kinds):
        if kind not in seen_kinds:
            out.append(f"{name} needs at least one {kind} component")
    seen_algebras = {tag.algebra for tag, _ in components}
    for algebra in sorted(rule.require_algebras):
        if algebra not in seen_algebras:
            out.append(f"{name} needs at least one {algebra} component")
    return out


def diagonal_diagnostics(special: SpecialMatrix) -> list:
    """Every nonzero diagonal cell of every square connection component.

    Only circle-operator squares are signed connection matrices with the
    no-self-influence rule; maxmin/minmax squares are membership relations
    whose diagonal is meaningful data. A cell is zero when both its
    coefficients are.
    """
    out = []
    for idx, (mat, tag) in enumerate(special):
        if tag.kind != CM or tag.op != "circle":
            continue
        for i, cell in enumerate(mat.entries[::mat.cols + 1]):
            if cell != 0:
                out.append(f"component {idx + 1}: diagonal cell "
                           f"({i + 1},{i + 1}) is {cell}, must be 0")
    return out


@functools.cache
def _default_group(kind: str, rows: int, cols: int) -> tuple:
    """The labels of a component that is given none: `c1`... for a CM
    component's nodes, `d1`... and `r1`... for an RM component's rows
    and columns."""
    if kind == CM:
        return (tuple(f"c{i + 1}" for i in range(rows)),)
    return (tuple(f"d{i + 1}" for i in range(rows)),
            tuple(f"r{j + 1}" for j in range(cols)))


def _normalize_labels(special: SpecialMatrix, labels) -> tuple:
    if labels is None:
        return tuple(_default_group(tag.kind, *mat.shape)
                     for mat, tag in special)
    if len(labels) != len(special):
        raise ClassViolation(
            f"{len(labels)} label groups for {len(special)} components")
    groups = []
    for idx, ((mat, tag), group) in enumerate(zip(special, labels)):
        if group is None:
            groups.append(_default_group(tag.kind, *mat.shape))
            continue
        where = f"component {idx + 1}"
        if tag.kind == CM:
            if group and isinstance(group[0], (list, tuple)):
                group = group[0]  # accept ([rows],) form for squares too
            names = tuple(str(n) for n in group)
            if len(names) != mat.rows:
                raise ClassViolation(
                    f"{where}: {len(names)} labels for {mat.rows} nodes")
            groups.append((names,))
        else:
            if len(group) != 2:
                raise ClassViolation(
                    f"{where}: rectangular components take "
                    f"(row labels, column labels)")
            # a missing half takes its default names
            rows, cols = (tuple(map(str, names)) if names is not None
                          else _default_group(RM, *mat.shape)[half]
                          for half, names in enumerate(group))
            if len(rows) != mat.rows or len(cols) != mat.cols:
                raise ClassViolation(
                    f"{where}: {len(rows)}x{len(cols)} labels for a "
                    f"{mat.rows}x{mat.cols} component")
            groups.append((rows, cols))
    return tuple(groups)


def build_model(model_class, components, labels=None,
                experts=None) -> Model:
    """A Model of the union `components`, with its labels and expert
    names normalised.

    `model_class` is a ModelClass or its code (ModelClass.parse).
    `components` is a SpecialMatrix or a sequence of (Matrix,
    ComponentTag) pairs. Every square circle component must carry a zero
    diagonal.
    """
    special = components if isinstance(components, SpecialMatrix) \
        else SpecialMatrix(components)
    if experts is None:
        experts = (None,) * len(special)
    experts = tuple(f"expert {i + 1}" if e is None else str(e)
                    for i, e in enumerate(experts))
    return Model(model_class=model_class, matrix=special,
                 labels=_normalize_labels(special, labels), experts=experts)


def _dynamical_class(model_class) -> ModelClass:
    """`model_class`, a member or its text, if it describes a dynamical
    system: an equation class (FRE_CLASSES) has no run, and raises
    WrongEntryPoint. run, render_trace and verify_trace all apply it."""
    model_class = ModelClass.parse(model_class)
    if model_class in FRE_CLASSES:
        raise WrongEntryPoint(
            f"{model_class.value} describes relational equations; solve it "
            f"with the fre module, not a dynamical run")
    return model_class


def run(model: Model, x0: SpecialStateVector, **options):
    """Run a model, checked against its class when it was built, through
    run_mixed, which validates the seed, with its options. A model or seed
    of the wrong type raises TypeError first."""
    _require_type(model, Model, "model")
    _require_type(x0, SpecialStateVector, "seed")
    _dynamical_class(model.model_class)
    return run_mixed(model.matrix, x0, **options)
