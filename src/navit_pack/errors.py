"""Exception types, and the quoting of input in diagnostics, shared across modules."""

__all__ = ["LengthMismatch", "NonFiniteInput", "ShapeMismatch"]

# The longest quotation of an input value in a diagnostic, `...` included,
# so that a diagnostic stays one short line whatever the input holds.
_QUOTE_LIMIT = 64


class ShapeMismatch(ValueError):
    """Array arguments have inconsistent dimensions."""


class NonFiniteInput(ValueError):
    """An input contains NaN or infinity where finite values are required."""


class LengthMismatch(ValueError):
    """Two sequences that must be the same length are not."""


def _clipped(text: str) -> str:
    """`text` if it is at most _QUOTE_LIMIT characters long, else its first
    _QUOTE_LIMIT - 3 characters and `...`."""
    if len(text) <= _QUOTE_LIMIT:
        return text
    return text[: _QUOTE_LIMIT - 3] + "..."


def _quoted(value: object) -> str:
    """`repr(value)` for a diagnostic that echoes an id, field name, role
    or image reference read from the input, cut by `_clipped`."""
    return _clipped(repr(value))
