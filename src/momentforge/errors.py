"""Exception types shared across the package."""


class MomentForgeError(Exception):
    """Base class for all package errors."""


class DomainError(MomentForgeError, ValueError):
    """An argument lies outside the admissible domain of an operation."""


class PreconditionError(MomentForgeError, ValueError):
    """A documented precondition of an operation is violated."""


class UnsupportedError(MomentForgeError):
    """The requested object has no analytic form in the catalog."""


class QuadratureError(MomentForgeError):
    """Quadrature did not reach the tolerance by its last level.

    Carries the value of the last level and the residual: its difference
    from the level before plus the outermost terms counted.
    """

    def __init__(self, message, value=None, residual=None):
        super().__init__(message)
        self.value = value
        self.residual = residual


class BudgetError(MomentForgeError):
    """A requested tolerance is unreachable within the term budget."""


class RangeError(MomentForgeError, OverflowError):
    """A value left the representable range; retry in log domain."""


class InconsistencyError(MomentForgeError):
    """Input data contradicts a structural hypothesis it was declared to satisfy."""
