"""Semantic exception hierarchy.

Every error the library raises deliberately derives from FuzzymapsError.
Each class carries the CLI exit code of its family as `exit_code`:
2 malformed input, 3 validation failure, 4 shape or component-count
mismatch, 5 iteration cap, 6 enumeration budget, 7 any other engine error.
"""


class FuzzymapsError(Exception):
    """Base class for all errors raised on purpose by this package."""

    exit_code = 7


class OrderUndefined(FuzzymapsError):
    """Comparison attempted between values that have no defined order
    (a mixed a+bI scalar with both parts nonzero)."""


class ModeMismatch(FuzzymapsError):
    """A fuzzy-mode operation received an indeterminate value."""

    exit_code = 3


class DomainError(FuzzymapsError):
    """A value does not satisfy the membership predicate of the value
    domain it was declared under."""

    exit_code = 3


class ShapeMismatch(FuzzymapsError):
    """Operand dimensions are incompatible."""

    exit_code = 4


class EmptyUnion(FuzzymapsError):
    """A component union must contain at least one component."""

    exit_code = 3


class NonSquareCM(FuzzymapsError):
    """A component tagged CM (iterated against itself) must be square."""

    exit_code = 3


class NonCMComponent(FuzzymapsError):
    """run_cm requires every component to be tagged CM."""

    exit_code = 3


class NonRMComponent(FuzzymapsError):
    """run_rm requires every component to be tagged RM."""

    exit_code = 3


class IterationCapExceeded(FuzzymapsError):
    """The iteration safety cap was hit before every component settled."""

    exit_code = 5


class InvalidInput(FuzzymapsError):
    """A state vector is not a valid input for the requested run."""

    exit_code = 3


class ClassViolation(FuzzymapsError):
    """Components do not satisfy the declared model class predicate."""

    exit_code = 3


class NonzeroDiagonal(FuzzymapsError):
    """A CM component carries a nonzero diagonal entry."""

    exit_code = 3


class WrongEntryPoint(FuzzymapsError):
    """The requested operation does not apply to this model class
    (equation-style classes are not dynamical systems)."""

    exit_code = 3


class BudgetExceeded(FuzzymapsError):
    """An enumeration would exceed its budget: the minimal-solution
    search of a relational equation needs more search nodes (choices of
    a row for a column) than its `budget` allows."""

    exit_code = 6


class ParseError(FuzzymapsError):
    """Malformed file or token. Carries a 1-based line/column when known."""

    exit_code = 2

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self):
        loc = ""
        if self.line is not None:
            loc = f"line {self.line}"
            if self.col is not None:
                loc += f", col {self.col}"
            loc += ": "
        return loc + self.message


class TraceError(FuzzymapsError):
    """A trace file that is malformed or does not support its own
    recorded outcome."""
