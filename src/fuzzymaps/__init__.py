"""Multi-expert fuzzy and neutrosophic map algebra.

Scalars carry an indeterminate part (`a + bI` with `I*I = I`), matrices
come in plain and component-union flavors, and the dynamics engine
iterates expert opinions to their hidden patterns: fixed points, limit
cycles, and domain/range binary pairs. A relational-equation solver
handles the maximum solution of `p o Q = r` under max-min composition.
"""

from .errors import (
    BudgetExceeded,
    ClassViolation,
    ComponentCountMismatch,
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
    coerce,
    domain_join,
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
    identity,
    mat_add,
    mat_mul,
    maxmin_compose,
    minmax_compose,
    row_vector,
    transpose,
    zeros,
)
from .special import (
    CM,
    ComponentTag,
    DOMAIN_SIDE,
    RANGE_SIDE,
    RM,
    SpecialMatrix,
    SpecialStateVector,
    other_side,
    render_part,
)
from .dynamics import (
    FixedPoint,
    HiddenPattern,
    IterationRecord,
    LimitCycle,
    describe_outcome,
    outcome_shape,
    run_cm,
    run_mixed,
    run_rm,
    validate_input,
)
from .models import (
    Model,
    ModelClass,
    build_model,
    class_diagnostics,
    diagonal_diagnostics,
    run,
)
from .fre import (
    FreSolution,
    check_necessary,
    failing_columns,
    minimal_solutions_bruteforce,
    sigma,
    solve_max,
    solve_special,
)
from .fileformats import (
    ModelFile,
    parse_matrix_text,
    parse_model_structure,
    parse_model_text,
    parse_vector_text,
    serialize_matrix,
    serialize_model,
    serialize_vector,
)
from .trace import parse_trace, render_trace, verify_trace

__version__ = "1.0.0"
