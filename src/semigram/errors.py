"""Exception hierarchy shared by all semigram modules.

Each class carries the CLI's exit code for it in ``exit_code``: 2 for
input errors, 3 for a generator that is not semistable, 4 for an invalid
mode selection and 5, the default, for numerical failures. New error
conditions should subclass one of the existing categories rather than
raising bare built-ins.
"""


class SemigramError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 5


class DimensionError(SemigramError, ValueError):
    """Operands have incompatible or invalid shapes."""

    exit_code = 2


class ParseError(SemigramError, ValueError):
    """A matrix or system description file could not be parsed."""

    exit_code = 2


class PreconditionError(SemigramError, ValueError):
    """A documented precondition of an operation was violated."""


class NotSemistableError(PreconditionError):
    """An operation requiring a (semi)stable generator received one that is not."""

    exit_code = 3


class InvalidSelectionError(SemigramError, ValueError):
    """A mode selection violates the rules of invariant truncation."""

    exit_code = 4


class ConditioningError(SemigramError):
    """A computation was abandoned because of numerical ill-conditioning."""


class InconsistencyError(SemigramError):
    """A computed solution failed its residual verification."""


class QuadratureError(SemigramError):
    """Adaptive quadrature exhausted its panel budget before converging.

    Carries the best available estimate and the tolerance actually achieved
    so callers can decide whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, achieved_tol=None):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_tol = achieved_tol
