"""Multi-expert fuzzy and neutrosophic map algebra.

Scalars carry an indeterminate part (`a + bI` with `I*I = I`), matrices
come in plain and component-union flavors, and the dynamics engine
iterates expert opinions to their hidden patterns: fixed points, limit
cycles, and domain/range binary pairs. A relational-equation solver
handles the maximum solution of `p o Q = r` under max-min composition.

`__all__` is the public API, and README.md's "Library API" lists it by
module. Other names are reached through their module
(`fuzzymaps.dynamics.describe_outcome`).
"""

from .errors import (
    BudgetExceeded,
    ClassViolation,
    DomainError,
    EmptyUnion,
    FuzzymapsError,
    InvalidInput,
    IterationCapExceeded,
    ModeMismatch,
    NonCMComponent,
    NonRMComponent,
    NonSquareCM,
    NonzeroDiagonal,
    OrderUndefined,
    ParseError,
    ShapeMismatch,
    TraceError,
    WrongEntryPoint,
)
from .values import (
    I,
    ONE,
    OrderPolicy,
    Scalar,
    TCONORM_KINDS,
    TNORM_KINDS,
    ThresholdMode,
    ValueDomain,
    ZERO,
    parse_scalar,
    render_scalar,
    scalar_max,
    scalar_min,
    tconorm,
    threshold_scalar,
    tnorm,
)
from .matrices import (
    Matrix,
    elementwise_max,
    elementwise_min,
    mat_add,
    mat_mul,
    maxmin_compose,
    minmax_compose,
    transpose,
)
from .special import (
    CM,
    ComponentTag,
    DOMAIN_SIDE,
    RANGE_SIDE,
    RM,
    SpecialMatrix,
    SpecialStateVector,
)
from .dynamics import (
    FixedPoint,
    HiddenPattern,
    IterationRecord,
    LimitCycle,
    outcome_shape,
    run_cm,
    run_mixed,
    run_rm,
    validate_input,
)
from .models import Model, ModelClass, build_model, run
from .fre import (
    FreSolution,
    check_necessary,
    failing_columns,
    minimal_solutions_bruteforce,
    sigma,
    solve_max,
)
from .fileformats import (
    ModelFile,
    parse_matrix_text,
    parse_model_text,
    parse_vector_text,
    serialize_matrix,
    serialize_model,
)
from .trace import parse_trace, render_trace, verify_trace

__all__ = [
    # errors
    "BudgetExceeded", "ClassViolation", "DomainError", "EmptyUnion",
    "FuzzymapsError", "InvalidInput", "IterationCapExceeded",
    "ModeMismatch", "NonCMComponent", "NonRMComponent", "NonSquareCM",
    "NonzeroDiagonal", "OrderUndefined", "ParseError", "ShapeMismatch",
    "TraceError", "WrongEntryPoint",
    # values
    "I", "ONE", "OrderPolicy", "Scalar", "TCONORM_KINDS", "TNORM_KINDS",
    "ThresholdMode", "ValueDomain", "ZERO", "parse_scalar", "render_scalar",
    "scalar_max", "scalar_min", "tconorm", "threshold_scalar", "tnorm",
    # matrices
    "Matrix", "elementwise_max", "elementwise_min", "mat_add", "mat_mul",
    "maxmin_compose", "minmax_compose", "transpose",
    # special
    "CM", "ComponentTag", "DOMAIN_SIDE", "RANGE_SIDE", "RM",
    "SpecialMatrix", "SpecialStateVector",
    # dynamics
    "FixedPoint", "HiddenPattern", "IterationRecord", "LimitCycle",
    "outcome_shape", "run_cm", "run_mixed", "run_rm", "validate_input",
    # models
    "Model", "ModelClass", "build_model", "run",
    # fre
    "FreSolution", "check_necessary", "failing_columns",
    "minimal_solutions_bruteforce", "sigma", "solve_max",
    # fileformats
    "ModelFile", "parse_matrix_text", "parse_model_text",
    "parse_vector_text", "serialize_matrix", "serialize_model",
    # trace
    "parse_trace", "render_trace", "verify_trace",
]

__version__ = "1.0.0"
