"""Exception types shared across the package."""

__all__ = ["ValidationError", "NumericalError"]


class ValidationError(ValueError):
    """An input or configuration violates a documented constraint."""


class NumericalError(ArithmeticError):
    """An iterative routine failed to converge or produced an unusable
    result. Raised explicitly instead of returning NaN."""
