"""Semantic exception hierarchy.

Every error the library raises deliberately derives from FuzzymapsError so
callers (and the CLI) can map failures to stable exit-code families.
"""


class FuzzymapsError(Exception):
    """Base class for all errors raised on purpose by this package."""


class OrderUndefined(FuzzymapsError):
    """Comparison attempted between values that have no defined order
    (a mixed a+bI scalar with both parts nonzero)."""


class ModeMismatch(FuzzymapsError):
    """A fuzzy-mode operation received an indeterminate value."""


class DomainError(FuzzymapsError):
    """A value does not satisfy the membership predicate of the value
    domain it was declared under."""


class ShapeMismatch(FuzzymapsError):
    """Operand dimensions are incompatible."""


class EmptyUnion(FuzzymapsError):
    """A component union must contain at least one component."""


class NonSquareCM(FuzzymapsError):
    """A component tagged CM (iterated against itself) must be square."""


class ComponentCountMismatch(FuzzymapsError):
    """Two unions (or a state and a union) have different component counts."""


class NonCMComponent(FuzzymapsError):
    """run_cm requires every component to be tagged CM."""


class NonRMComponent(FuzzymapsError):
    """run_rm requires every component to be tagged RM."""


class IterationCapExceeded(FuzzymapsError):
    """The iteration safety cap was hit before every component settled."""


class InvalidInput(FuzzymapsError):
    """A state vector is not a valid input for the requested run."""


class ClassViolation(FuzzymapsError):
    """Components do not satisfy the declared model class predicate."""


class NonzeroDiagonal(FuzzymapsError):
    """A CM component carries a nonzero diagonal entry."""


class WrongEntryPoint(FuzzymapsError):
    """The requested operation does not apply to this model class
    (equation-style classes are not dynamical systems)."""


class BudgetExceeded(FuzzymapsError):
    """An enumeration (the covers behind the minimal solutions of a
    relational equation) would exceed the configured budget."""


class ParseError(FuzzymapsError):
    """Malformed file or token. Carries a 1-based line/column when known."""

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
