"""Exception types shared across the package.

Two failure families are distinguished so callers (and the CLI exit codes)
can tell bad inputs apart from numerical breakdown on valid-looking inputs.
"""

__all__ = ["PredspecError", "DomainError", "NumericalError"]


class PredspecError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PredspecError, ValueError):
    """An argument violates a documented precondition (shape, range, model class)."""


class NumericalError(PredspecError, ArithmeticError):
    """A computation failed numerically: non-positive-definite covariance,
    vanishing transfer function, non-converged tail, and similar."""
