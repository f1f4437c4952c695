"""Decoding and checking of input records, and the base of the value types.

Every input record goes through one set of field checks kept here
(`_json_record`, `_record`, `_entry`, `_list`, `_name`, `_is_int`,
`_number`, `_float`): manifest lines (`packing.parse_manifest_line`),
scored groups (`objectives.parse_group_line`) and conversations
(`cli_chat`). A failed check raises ManifestError naming the place of the
fault ("candidate 2: "), which is formatted only then, so a valid record
costs no formatting. A diagnostic that echoes a string from the input
quotes it with `errors._quoted`, which cuts it with `_clipped`.
`_json_record` decodes a line with one call of the C scanner and falls
back to `json.loads`, so that each value and each error is `json.loads`'s
own.

The module loads no geometry or packing code, so that `prefs` reads its
groups without them.
"""

from __future__ import annotations

import json

from .errors import _quoted

__all__ = ["ManifestError"]

_scan_once = json.JSONDecoder().scan_once  # `(value, end)` of the JSON value at an index


class ManifestError(ValueError):
    """An input record is malformed."""


class _Value(tuple):
    """Base of the package's value types, each a `namedtuple` subclass with
    this mixed in and `__slots__ = ()`: immutable, built by keyword or
    position, and a `__new__` that checks its fields, if it has one.

    A value equals only a value of its own type with equal fields (never a
    plain tuple, nor another type with the same fields), and hashes as its
    fields do. A value that holds an array is unhashable, as the array is,
    and `==` or `!=` with a value of its own type raises `TypeError` (an
    array has no one truth value); with any other object it is unequal. No
    value has an order or `+` or `*`: those raise `TypeError`, with a plain
    tuple on either side too. `_make` and `_replace` build through the
    constructor, so they check what it checks and recompute a derived field.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # `_replace` calls `_make`; the namedtuple base's, ahead of `_Value` in the
        # MRO, skips `__new__`: wrap it to build with `__getnewargs__`'s arguments.
        make = cls._make
        cls._make = classmethod(lambda c, fields: c(*make(fields).__getnewargs__()))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return False
        try:
            hash(self)
        except TypeError:
            raise TypeError(f"{type(self).__name__} holds an array: it has no == or !=") from None
        return tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def _refused(self, other: object):
        raise TypeError(f"{type(self).__name__} is a value: it has no order, + or *")

    __lt__ = __le__ = __gt__ = __ge__ = _refused
    __add__ = __radd__ = __mul__ = __rmul__ = _refused


def _record(value: object, allowed: set[str], what: str = "record") -> dict:
    """`value` as a top-level JSON object holding only `allowed` fields."""
    if not isinstance(value, dict):
        raise ManifestError(f"{what} must be a JSON object, got {type(value).__name__}")
    if not value.keys() <= allowed:
        raise ManifestError(f"unknown field {_quoted(min(value.keys() - allowed))}")
    return value


def _json_record(line: str, allowed: set[str], what: str = "record") -> dict:
    """The JSON text `line` as a `what` holding only `allowed` fields. The scanner's value
    stands when it ends the line but for a final newline, exactly when `json.loads` agrees."""
    try:
        try:
            value, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            value = json.loads(line)
        else:
            if end != len(line) and (end != len(line) - 1 or line[end] != "\n"):
                value = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ManifestError(f"invalid JSON: {e}") from e
    except ValueError as e:  # an integer beyond Python's digit limit
        raise ManifestError(str(e)) from e
    return _record(value, allowed, what)


def _entry(value: object, allowed: set[str], what: str, index: int) -> dict:
    """Item `index` of a list of `what`s, as an object with only `allowed` fields."""
    if not isinstance(value, dict):
        raise ManifestError(f"{what} {index} must be an object")
    if not value.keys() <= allowed:
        unknown = min(value.keys() - allowed)
        raise ManifestError(f"{what} {index}: unknown field {_quoted(unknown)}")
    return value


def _list(obj: dict, key: str, where: str = "", required: bool = False) -> list:
    """The list field `key` of `obj`; empty when an optional one is absent."""
    value = obj.get(key, None if required else [])
    if not isinstance(value, list):
        raise ManifestError(f"{where}{key!r} must be a list")
    return value


def _name(obj: dict, key: str) -> str:
    """The required non-empty string field `key` of `obj`."""
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ManifestError(f"missing or invalid {key!r} (non-empty string required)")
    return value


def _is_int(value: object) -> bool:
    """A JSON integer: `bool` is an `int` to Python, not to JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _float(value: int | float, key: str, what: str, index: int) -> float:
    """`value` as a float; an integer beyond float range does not convert."""
    try:
        return float(value)
    except OverflowError:
        raise ManifestError(f"{what} {index}: {key!r} is too large") from None


def _number(obj: dict, key: str, what: str, index: int) -> float:
    """The JSON number field `key` of item `index` of a list of `what`s."""
    value = obj[key]
    if isinstance(value, float):
        return value
    if not _is_int(value):
        raise ManifestError(f"{what} {index}: {key!r} must be a number")
    return _float(value, key, what, index)
