"""First-fit-decreasing packing of variable-length samples.

Samples are packed whole (never split) into fixed-capacity sequences to
cut padding waste versus naive per-batch padding. Besides the packing
itself this module produces the attention metadata that keeps packed
samples independent (position ids restarting per segment, cumulative
block boundaries) and a waste report comparing against the naive padded
baseline.

Every input record goes through one set of field checks kept here
(`_json_record`, `_record`, `_entry`, `_list`, `_name`, `_is_int`,
`_number`, `_float`): manifest lines, scored groups
(`objectives.parse_group_line`) and conversations (`cli`). A failed check
raises ManifestError naming the place of the fault ("candidate 2: "),
which is formatted only then, so a valid record costs no formatting.
A diagnostic that echoes a string from the input quotes it with
`_quoted`, which bounds its length.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .geometry import ImageSize, PixelBudget, ResizePlan, plan_resize

__all__ = [
    "ManifestError",
    "ManifestRecord",
    "NaiveBaseline",
    "PackedSequence",
    "PackingReport",
    "SampleRecord",
    "SampleTooLong",
    "PAD_POSITION",
    "build_attention_metadata",
    "naive_batch_waste",
    "pack_ffd",
    "packing_report",
    "parse_image_size",
    "parse_manifest_line",
    "sample_from_record",
]

# Position id assigned to padding slots; pads belong to no attention block.
PAD_POSITION = -1

# The longest quotation of an input value in a diagnostic, `...` included,
# so that a diagnostic stays one short line whatever the input holds.
_QUOTE_LIMIT = 64

_MANIFEST_KEYS = {"id", "text_tokens", "images"}
_IMAGE_KEYS = {"width", "height"}


class SampleTooLong(ValueError):
    """One or more samples exceed the sequence capacity."""

    def __init__(self, ids: Sequence[str], capacity: int):
        self.ids = list(ids)
        self.capacity = capacity
        super().__init__(
            f"samples exceed capacity {capacity}: {', '.join(self.ids)}"
        )


class ManifestError(ValueError):
    """An input record is malformed."""


@dataclass(frozen=True)
class ManifestRecord:
    """One parsed manifest line before geometry planning."""

    id: str
    text_tokens: int
    images: tuple[ImageSize, ...]


@dataclass(frozen=True)
class SampleRecord:
    """A sample's token footprint: text tokens plus planned image tokens."""

    id: str
    text_tokens: int
    image_plans: tuple[ResizePlan, ...] = ()
    total_tokens: int = field(init=False)

    def __post_init__(self) -> None:
        total = self.text_tokens + sum(p.token_count for p in self.image_plans)
        object.__setattr__(self, "total_tokens", total)
        if total < 1:
            raise ValueError(f"sample {_quoted(self.id)} has zero tokens")
        if self.text_tokens < 0:
            raise ValueError(f"sample {_quoted(self.id)} has negative text_tokens")


@dataclass(frozen=True)
class PackedSequence:
    """One fixed-capacity sequence of contiguous sample segments.

    `segments` are (sample id, start offset, length) triples laid out
    back to back from offset 0; the rest of the capacity is padding.
    """

    capacity: int
    segments: tuple[tuple[str, int, int], ...]

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        used = 0
        for sample_id, start, length in self.segments:
            if start != used:
                raise ValueError(
                    f"segment {sample_id!r} starts at {start}, expected {used}"
                )
            if not 1 <= length <= self.capacity:
                raise ValueError(f"segment {sample_id!r} has invalid length {length}")
            used += length
        if used > self.capacity:
            raise ValueError(f"lengths {used} exceed capacity {self.capacity}")

    @property
    def used_tokens(self) -> int:
        return sum(length for _, _, length in self.segments)

    @property
    def pad_tokens(self) -> int:
        return self.capacity - self.used_tokens

    @property
    def cumulative_lengths(self) -> tuple[int, ...]:
        """Prefix sums of the segment lengths from 0: they delimit the
        attention blocks and end where padding begins."""
        return (0, *(start + length for _, start, length in self.segments))

    def to_json_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "segments": [[sid, start, length] for sid, start, length in self.segments],
            "pad_tokens": self.pad_tokens,
            "cumulative_lengths": list(self.cumulative_lengths),
        }


@dataclass(frozen=True)
class NaiveBaseline:
    """Slot accounting for naive batching: pad every batch to its max length."""

    total_slots: int
    pad_tokens: int

    @property
    def pad_fraction(self) -> float:
        return self.pad_tokens / self.total_slots if self.total_slots else 0.0


@dataclass(frozen=True)
class PackingReport:
    """Waste comparison between packed sequences and the naive baseline.

    The speedup proxy is naive total slots over packed total slots for
    the same useful tokens; it is a compute-waste ratio, not a measured
    wall-clock speedup.
    """

    n_samples: int
    n_sequences: int
    capacity: int
    packed_pad_fraction: float
    naive_pad_fraction: float
    useful_token_speedup_proxy: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def pack_ffd(samples: Sequence[SampleRecord], capacity: int) -> list[PackedSequence]:
    """Pack samples into fixed-capacity sequences, first-fit decreasing.

    Samples are placed whole, longest first (ties broken by id), each
    into the first open sequence with room. Deterministic for a given
    manifest. Raises SampleTooLong listing every sample that cannot fit
    at all, and ValueError on duplicate ids.

    First fit is found with a max segment tree over the free tokens of
    each bin, one leaf per possible bin: descending to the left child
    whenever it has room reaches the leftmost bin with room in O(log n).
    Bins not yet opened hold the full capacity, so they lie to the right
    of every open bin and the leftmost of them is the next bin to open.
    `linear_first_fit` in tests/test_packing.py is the plain scan over
    the open bins that this must match exactly.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    seen: set[str] = set()
    for s in samples:
        if s.id in seen:
            raise ValueError(f"duplicate sample id {_quoted(s.id)}")
        seen.add(s.id)
    too_long = [s.id for s in samples if s.total_tokens > capacity]
    if too_long:
        raise SampleTooLong(too_long, capacity)

    order = sorted(samples, key=lambda s: (-s.total_tokens, s.id))
    leaves = 1
    while leaves < len(order):
        leaves *= 2
    # free[leaves + i] = free tokens in bin i; free[k] = max(free[2k], free[2k + 1]).
    free = [capacity] * (2 * leaves)
    bins: list[list[SampleRecord]] = []
    for s in order:
        need = s.total_tokens
        k = 1
        while k < leaves:
            k = 2 * k if free[2 * k] >= need else 2 * k + 1
        i = k - leaves
        if i == len(bins):
            bins.append([])
        bins[i].append(s)
        free[k] -= need
        k //= 2
        while k:
            room = max(free[2 * k], free[2 * k + 1])
            if free[k] == room:
                break
            free[k] = room
            k //= 2

    sequences = []
    for contents in bins:
        segments = []
        offset = 0
        for s in contents:
            segments.append((s.id, offset, s.total_tokens))
            offset += s.total_tokens
        sequences.append(PackedSequence(capacity=capacity, segments=tuple(segments)))
    return sequences


def naive_batch_waste(samples: Sequence[SampleRecord], batch_size: int) -> NaiveBaseline:
    """Slot usage when batches of `batch_size` (input order) pad to their max."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    total_slots = 0
    for start in range(0, len(samples), batch_size):
        batch = samples[start : start + batch_size]
        total_slots += max(s.total_tokens for s in batch) * len(batch)
    useful = sum(s.total_tokens for s in samples)
    return NaiveBaseline(total_slots=total_slots, pad_tokens=total_slots - useful)


def build_attention_metadata(seq: PackedSequence) -> tuple[list[int], list[int]]:
    """Cumulative block boundaries and per-token position ids for a sequence.

    Position ids restart at 0 at every segment start; padding slots get
    the PAD_POSITION sentinel and belong to no block. The returned
    cumulative lengths bound the blocks consumed by block-diagonal
    attention and end where the real tokens do.

    This is the reference for the `position_ids` field that `pack` emits:
    the CLI slices that field from pre-rendered text, and its tests check
    it byte for byte against these lists.
    """
    positions = []
    for _, _, length in seq.segments:
        positions.extend(range(length))
    positions.extend([PAD_POSITION] * seq.pad_tokens)
    return list(seq.cumulative_lengths), positions


def packing_report(
    samples: Sequence[SampleRecord],
    sequences: Sequence[PackedSequence],
    capacity: int,
    batch_size: int,
) -> PackingReport:
    """Compare the packed slot usage against the naive baseline.

    `sequences` are `samples` as `pack_ffd` packed them at `capacity`;
    the report reuses them rather than packing again.

    An empty manifest reports zero fractions and a proxy of 1.0. The
    proxy can drop below 1.0 on manifests the naive baseline already
    packs tightly (near-uniform lengths with capacity far above the
    batch widths); it is a measurement, not a guaranteed win.
    """
    if not samples:
        return PackingReport(
            n_samples=0,
            n_sequences=0,
            capacity=capacity,
            packed_pad_fraction=0.0,
            naive_pad_fraction=0.0,
            useful_token_speedup_proxy=1.0,
        )
    packed_slots = len(sequences) * capacity
    packed_pads = sum(s.pad_tokens for s in sequences)
    naive = naive_batch_waste(samples, batch_size)
    return PackingReport(
        n_samples=len(samples),
        n_sequences=len(sequences),
        capacity=capacity,
        packed_pad_fraction=packed_pads / packed_slots,
        naive_pad_fraction=naive.pad_fraction,
        useful_token_speedup_proxy=naive.total_slots / packed_slots,
    )


def _quoted(value: object) -> str:
    """`repr(value)` for a diagnostic that echoes an id, field name, role
    or image reference read from the input. A repr longer than
    _QUOTE_LIMIT is cut to its first _QUOTE_LIMIT - 3 characters and `...`."""
    text = repr(value)
    if len(text) <= _QUOTE_LIMIT:
        return text
    return text[: _QUOTE_LIMIT - 3] + "..."


def _record(value: object, allowed: set[str], what: str = "record") -> dict:
    """`value` as a top-level JSON object holding only `allowed` fields."""
    if not isinstance(value, dict):
        raise ManifestError(f"{what} must be a JSON object, got {type(value).__name__}")
    if not value.keys() <= allowed:
        raise ManifestError(f"unknown field {_quoted(min(value.keys() - allowed))}")
    return value


def _json_record(line: str, allowed: set[str], what: str = "record") -> dict:
    """The JSON text `line` as a `what` holding only `allowed` fields."""
    try:
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


def parse_manifest_line(line: str) -> ManifestRecord:
    """Parse one manifest JSONL record.

    Expected shape: {"id": str, "text_tokens": int, "images":
    [{"width": int, "height": int}]}, with "images" optional. Unknown
    keys are rejected by name.
    """
    obj = _json_record(line, _MANIFEST_KEYS)
    record_id = _name(obj, "id")
    text_tokens = obj.get("text_tokens")
    if not _is_int(text_tokens):
        raise ManifestError("missing or invalid 'text_tokens' (integer required)")
    if text_tokens < 0:
        raise ManifestError("'text_tokens' must be non-negative")
    images = []
    for i, img in enumerate(_list(obj, "images")):
        images.append(parse_image_size(_entry(img, _IMAGE_KEYS, "image", i), i))
    return ManifestRecord(id=record_id, text_tokens=text_tokens, images=tuple(images))


def parse_image_size(img: dict, index: int) -> ImageSize:
    """The size of image `index` of a record: positive, non-bool integer
    `width` and `height` within float range, since planning scales them
    as floats. Manifests and conversations share this rule."""
    for key in ("width", "height"):
        val = img.get(key)
        if not _is_int(val) or val < 1:
            raise ManifestError(f"image {index}: {key!r} must be a positive integer")
        _float(val, key, "image", index)
    return ImageSize(width=img["width"], height=img["height"])


def sample_from_record(record: ManifestRecord, budget: PixelBudget) -> SampleRecord:
    """Plan the record's images under `budget` and total up its tokens."""
    plans = tuple(plan_resize(size, budget) for size in record.images)
    return SampleRecord(record.id, record.text_tokens, plans)
