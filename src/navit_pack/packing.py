"""First-fit-decreasing packing of variable-length samples.

Samples are packed whole (never split) into fixed-capacity sequences to
cut padding waste versus naive per-batch padding. Besides the packing
itself this module produces the attention metadata that keeps packed
samples independent (position ids restarting per segment, cumulative
block boundaries) and a waste report comparing against the naive padded
baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    """A manifest record is malformed."""


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
    image_plans: tuple[ResizePlan, ...]
    total_tokens: int

    def __post_init__(self) -> None:
        expected = self.text_tokens + sum(p.token_count for p in self.image_plans)
        if self.total_tokens != expected:
            raise ValueError(
                f"total_tokens {self.total_tokens} != text + image tokens {expected}"
            )
        if self.total_tokens < 1:
            raise ValueError(f"sample {self.id!r} has zero tokens")
        if self.text_tokens < 0:
            raise ValueError(f"sample {self.id!r} has negative text_tokens")

    @classmethod
    def build(
        cls, id: str, text_tokens: int, image_plans: Iterable[ResizePlan] = ()
    ) -> "SampleRecord":
        plans = tuple(image_plans)
        return cls(
            id=id,
            text_tokens=text_tokens,
            image_plans=plans,
            total_tokens=text_tokens + sum(p.token_count for p in plans),
        )


@dataclass(frozen=True)
class PackedSequence:
    """One fixed-capacity sequence of contiguous sample segments.

    `segments` are (sample id, start offset, length) triples laid out
    back to back from offset 0; `cumulative_lengths` are the prefix sums
    of the segment lengths starting at 0, so they delimit the attention
    blocks and end where padding begins.
    """

    capacity: int
    segments: tuple[tuple[str, int, int], ...]
    pad_tokens: int
    cumulative_lengths: tuple[int, ...]

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
        if used + self.pad_tokens != self.capacity:
            raise ValueError(
                f"lengths {used} + pads {self.pad_tokens} != capacity {self.capacity}"
            )
        expected_cumulative = (0, *(s + l for _, s, l in self.segments))
        if self.cumulative_lengths != expected_cumulative:
            raise ValueError(
                f"cumulative_lengths {self.cumulative_lengths} != prefix sums "
                f"{expected_cumulative}"
            )

    @property
    def used_tokens(self) -> int:
        return self.capacity - self.pad_tokens

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
        return {
            "n_samples": self.n_samples,
            "n_sequences": self.n_sequences,
            "capacity": self.capacity,
            "packed_pad_fraction": self.packed_pad_fraction,
            "naive_pad_fraction": self.naive_pad_fraction,
            "useful_token_speedup_proxy": self.useful_token_speedup_proxy,
        }


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
            raise ValueError(f"duplicate sample id {s.id!r}")
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
        sequences.append(
            PackedSequence(
                capacity=capacity,
                segments=tuple(segments),
                pad_tokens=capacity - offset,
                cumulative_lengths=(0, *(seg[1] + seg[2] for seg in segments)),
            )
        )
    return sequences


def naive_batch_waste(samples: Sequence[SampleRecord], batch_size: int) -> NaiveBaseline:
    """Slot usage when batches of `batch_size` (input order) pad to their max."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    total_slots = 0
    useful = 0
    for start in range(0, len(samples), batch_size):
        batch = samples[start : start + batch_size]
        width = max(s.total_tokens for s in batch)
        total_slots += width * len(batch)
        useful += sum(s.total_tokens for s in batch)
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


def parse_manifest_line(line: str) -> ManifestRecord:
    """Parse one manifest JSONL record.

    Expected shape: {"id": str, "text_tokens": int, "images":
    [{"width": int, "height": int}]}, with "images" optional. Unknown
    keys are rejected by name.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ManifestError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ManifestError(f"record must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - _MANIFEST_KEYS
    if unknown:
        raise ManifestError(f"unknown field {sorted(unknown)[0]!r}")
    if "id" not in obj or not isinstance(obj["id"], str) or not obj["id"]:
        raise ManifestError("missing or invalid 'id' (non-empty string required)")
    if "text_tokens" not in obj or not isinstance(obj["text_tokens"], int) or isinstance(obj["text_tokens"], bool):
        raise ManifestError("missing or invalid 'text_tokens' (integer required)")
    if obj["text_tokens"] < 0:
        raise ManifestError("'text_tokens' must be non-negative")
    images = []
    raw_images = obj.get("images", [])
    if not isinstance(raw_images, list):
        raise ManifestError("'images' must be a list")
    for i, img in enumerate(raw_images):
        if not isinstance(img, dict):
            raise ManifestError(f"image {i} must be an object")
        unknown = set(img) - _IMAGE_KEYS
        if unknown:
            raise ManifestError(f"image {i}: unknown field {sorted(unknown)[0]!r}")
        images.append(parse_image_size(img, i))
    return ManifestRecord(id=obj["id"], text_tokens=obj["text_tokens"], images=tuple(images))


def parse_image_size(img: dict, index: int) -> ImageSize:
    """The size of image `index` of a record: positive, non-bool integer
    `width` and `height` within float range, since planning scales them
    as floats. Manifests and conversations share this rule."""
    for key in ("width", "height"):
        val = img.get(key)
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise ManifestError(f"image {index}: {key!r} must be a positive integer")
        try:
            float(val)
        except OverflowError:
            raise ManifestError(f"image {index}: {key!r} is too large") from None
    return ImageSize(width=img["width"], height=img["height"])


def sample_from_record(record: ManifestRecord, budget: PixelBudget) -> SampleRecord:
    """Plan the record's images under `budget` and total up its tokens."""
    plans = tuple(plan_resize(size, budget) for size in record.images)
    return SampleRecord.build(record.id, record.text_tokens, plans)
