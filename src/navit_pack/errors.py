"""Exception types shared across modules."""

__all__ = ["LengthMismatch", "NonFiniteInput", "ShapeMismatch"]


class ShapeMismatch(ValueError):
    """Array arguments have inconsistent dimensions."""


class NonFiniteInput(ValueError):
    """An input contains NaN or infinity where finite values are required."""


class LengthMismatch(ValueError):
    """Two sequences that must be the same length are not."""
