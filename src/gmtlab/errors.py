"""Exception types shared across the package."""


class GmtLabError(Exception):
    """Base class for all gmtlab errors."""


class InvalidArgumentError(GmtLabError, ValueError):
    """An argument violates an operation's preconditions."""


class EmptyDomainError(GmtLabError):
    """The operation requires a nonempty domain mask."""


class EmptyCloudError(GmtLabError):
    """The operation requires a nonempty boundary cloud."""


class ResolutionError(GmtLabError):
    """The requested scale cannot be resolved at the current grid spacing."""


class NoModulusError(GmtLabError):
    """The grid function declares no modulus of continuity."""


class DegenerateStartError(GmtLabError):
    """Quotient search started from an all-zero function."""


class NumericalError(GmtLabError, ArithmeticError):
    """A numerical self-check failed: the discretization broke an identity."""


class SpecError(GmtLabError, ValueError):
    """Malformed domain, function, or suite specification."""


class ExpressionError(GmtLabError, ValueError):
    """Malformed arithmetic expression."""
