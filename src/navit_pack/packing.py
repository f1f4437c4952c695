"""First-fit-decreasing packing of variable-length samples.

Samples are packed whole (never split) into fixed-capacity sequences to
cut padding waste versus naive per-batch padding. Besides the packing
itself this module produces the attention metadata that keeps packed
samples independent (position ids restarting per segment, cumulative
block boundaries) and a waste report comparing against the naive padded
baseline.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import _quoted
from .geometry import BudgetInfeasible, ImageSize, PixelBudget, ResizePlan, plan_resize
from .records import ManifestError, _Value, _entry, _float, _is_int, _json_record, _list, _name

__all__ = [
    "ManifestRecord",
    "PackedSequence",
    "PackingReport",
    "SampleRecord",
    "SampleTooLong",
    "PAD_POSITION",
    "build_attention_metadata",
    "pack_ffd",
    "packing_report",
    "parse_image_size",
    "parse_manifest_line",
    "sample_from_record",
]

# Position id assigned to padding slots; pads belong to no attention block.
PAD_POSITION = -1

# At most this many ids are named when samples exceed the capacity.
_TOO_LONG_SHOWN = 10

_MANIFEST_KEYS = {"id", "text_tokens", "images"}
_IMAGE_KEYS = {"width", "height"}
# Every integer up to this converts to a float, as planning needs.
_FLOAT_MAX = sys.float_info.max


class SampleTooLong(ValueError):
    """One or more samples exceed the sequence capacity. `ids` lists them
    all; the message names only the first _TOO_LONG_SHOWN."""

    def __init__(self, ids: Sequence[str], capacity: int):
        self.ids = list(ids)
        self.capacity = capacity
        shown = ", ".join(map(_quoted, self.ids[:_TOO_LONG_SHOWN]))
        more = len(self.ids) - _TOO_LONG_SHOWN
        if more > 0:
            shown += f", ... ({more} more)"
        super().__init__(f"{len(self.ids)} samples exceed capacity {capacity}: {shown}")


class ManifestRecord(namedtuple("ManifestRecord", "id text_tokens images"), _Value):
    """One parsed manifest line before geometry planning: `images` is a
    tuple of `ImageSize`."""

    __slots__ = ()


class SampleRecord(
    namedtuple("SampleRecord", "id text_tokens image_plans total_tokens"), _Value
):
    """A sample's token footprint: text tokens plus planned image tokens.
    `total_tokens` is stored, totalled by the constructor."""

    __slots__ = ()

    def __new__(
        cls, id: str, text_tokens: int, image_plans: tuple[ResizePlan, ...] = ()
    ) -> SampleRecord:
        if text_tokens < 0:
            raise ValueError(f"sample {_quoted(id)} has negative text_tokens")
        total = text_tokens
        for plan in image_plans:
            total += plan.token_count
        if total < 1:
            raise ValueError(f"sample {_quoted(id)} has zero tokens")
        return tuple.__new__(cls, (id, text_tokens, image_plans, total))

    def __getnewargs__(self) -> tuple:
        """The constructor's arguments, for copy and pickle: all but the total."""
        return self[:3]


class PackedSequence(namedtuple("PackedSequence", "capacity lengths"), _Value):
    """One fixed-capacity sequence of contiguous sample segments.

    Stored: `capacity` and `lengths`, each segment's (sample id, length) in
    order. Computed: `segments`, their starts, and the padding after them.
    """

    __slots__ = ()

    def __new__(cls, capacity: int, lengths: tuple[tuple[str, int], ...]) -> PackedSequence:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        for sample_id, length in lengths:
            if not 1 <= length <= capacity:
                raise ValueError(f"segment {_quoted(sample_id)} has invalid length {length}")
        self = tuple.__new__(cls, (capacity, lengths))
        if self.used_tokens > capacity:
            raise ValueError(f"lengths {self.used_tokens} exceed capacity {capacity}")
        return self

    @property
    def used_tokens(self) -> int:
        return sum(length for _, length in self.lengths)

    @property
    def pad_tokens(self) -> int:
        return self.capacity - self.used_tokens

    @property
    def cumulative_lengths(self) -> tuple[int, ...]:
        """Prefix sums of the segment lengths from 0: they delimit the
        attention blocks and end where padding begins."""
        return tuple(accumulate((length for _, length in self.lengths), initial=0))

    @property
    def segments(self) -> tuple[tuple[str, int, int], ...]:
        """(sample id, start, length) triples, a start the sum of the lengths before it."""
        starts = self.cumulative_lengths
        return tuple((sid, start, length) for (sid, length), start in zip(self.lengths, starts))


class PackingReport(
    namedtuple(
        "PackingReport",
        "n_samples n_sequences capacity packed_pad_fraction naive_pad_fraction "
        "useful_token_speedup_proxy",
    ),
    _Value,
):
    """Waste comparison between packed sequences and the naive baseline.

    The speedup proxy is naive total slots over packed total slots for
    the same useful tokens; it is a compute-waste ratio, not a measured
    wall-clock speedup.
    """

    __slots__ = ()


def pack_ffd(samples: Sequence[SampleRecord], capacity: int) -> list[PackedSequence]:
    """Pack samples into fixed-capacity sequences, first-fit decreasing.

    Samples are placed whole, longest first (ties broken by id), each
    into the first open sequence with room. Deterministic for a given
    manifest. Raises SampleTooLong listing every sample that cannot fit
    at all, and ValueError on duplicate ids.

    Two stable sorts, by id then by length descending, give that order. A
    max segment tree over the bins' free tokens (unopened bins hold the
    full capacity) finds the leftmost bin with room in one O(log n) walk.
    A run of equal lengths takes one walk per bin, the bin found taking as
    many as it has room for, as first fit would: the bins before it lack
    room and it stays first until full. A walk places at least one sample,
    so a broken walk overfills a bin rather than looping forever. The
    oracle is `selfcheck.linear_first_fit`, a plain first-fit scan.
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

    order = sorted([(s.id, s.total_tokens) for s in samples])
    order.sort(key=itemgetter(1), reverse=True)
    leaves = 1 << (len(order) - 1).bit_length()
    # free[leaves + i] = free tokens in bin i; free[k] = max(free[2k], free[2k + 1]).
    free = [capacity] * (2 * leaves)
    bins: list[list[tuple[str, int]]] = []
    for need, group in groupby(order, itemgetter(1)):
        run, start = list(group), 0
        while start < len(run):
            k = 1
            while k < leaves:
                k = 2 * k if free[2 * k] >= need else 2 * k + 1
            take = max(1, min(len(run) - start, free[k] // need))
            if k - leaves == len(bins):
                bins.append([])
            bins[k - leaves] += run[start : start + take]
            start += take
            free[k] -= take * need
            while k > 1:
                k //= 2
                room = max(free[2 * k], free[2 * k + 1])
                if free[k] == room:
                    break
                free[k] = room

    return [PackedSequence(capacity, tuple(b)) for b in bins]


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
    for _, length in seq.lengths:
        positions.extend(range(length))
    positions.extend([PAD_POSITION] * seq.pad_tokens)
    return list(seq.cumulative_lengths), positions


def packing_report(
    samples: Sequence[SampleRecord],
    sequences: Sequence[PackedSequence],
    capacity: int,
    batch_size: int,
) -> PackingReport:
    """Compare the packed slot usage against the naive baseline, which pads
    each batch of `batch_size` samples (in input order) to its longest.

    `sequences` are `samples` as `pack_ffd` packed them at `capacity`;
    the report reuses them rather than packing again. A `batch_size`
    below 1 raises `ValueError` unless `samples` is empty.

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
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    naive_slots = 0
    for start in range(0, len(samples), batch_size):
        batch = samples[start : start + batch_size]
        naive_slots += max(s.total_tokens for s in batch) * len(batch)
    useful = sum(s.total_tokens for s in samples)
    packed_slots = len(sequences) * capacity
    packed_pads = sum(s.pad_tokens for s in sequences)
    return PackingReport(
        n_samples=len(samples),
        n_sequences=len(sequences),
        capacity=capacity,
        packed_pad_fraction=packed_pads / packed_slots,
        naive_pad_fraction=(naive_slots - useful) / naive_slots,
        useful_token_speedup_proxy=naive_slots / packed_slots,
    )


def parse_manifest_line(line: str) -> ManifestRecord:
    """Parse one manifest JSONL record.

    Expected shape: {"id": str, "text_tokens": int, "images":
    [{"width": int, "height": int}]}, with "images" optional. Unknown
    keys are rejected by name.

    JSON makes exact `int`, `list` and `dict` values, so exact-type checks
    accept a well-formed image; any other image goes to `_entry` and
    `parse_image_size`, which raise the error naming its fault.
    """
    obj = _json_record(line, _MANIFEST_KEYS)
    record_id = _name(obj, "id")
    text_tokens = obj.get("text_tokens")
    if type(text_tokens) is not int:
        raise ManifestError("missing or invalid 'text_tokens' (integer required)")
    if text_tokens < 0:
        raise ManifestError("'text_tokens' must be non-negative")
    if "images" not in obj:
        return ManifestRecord(record_id, text_tokens, ())
    images = []
    for i, img in enumerate(_list(obj, "images")):
        if type(img) is dict and img.keys() == _IMAGE_KEYS:
            width, height = img["width"], img["height"]
            if type(width) is int and type(height) is int:
                if 0 < width <= _FLOAT_MAX and 0 < height <= _FLOAT_MAX:
                    images.append(ImageSize(width, height))
                    continue
        images.append(parse_image_size(_entry(img, _IMAGE_KEYS, "image", i), i))
    return ManifestRecord(record_id, text_tokens, tuple(images))


def parse_image_size(img: dict, index: int) -> ImageSize:
    """The size of image `index` of a record: positive, non-bool integer
    `width` and `height` within float range, since planning scales them
    as floats. Manifests and conversations share this rule."""
    for key in ("width", "height"):
        val = img.get(key)
        if not _is_int(val) or val < 1:
            raise ManifestError(f"image {index}: {key!r} must be a positive integer")
        _float(val, key, "image", index)
    return ImageSize(img["width"], img["height"])


def _plan_image(index: int, size: ImageSize, budget: PixelBudget) -> ResizePlan:
    """Plan image `index` of a record under `budget`; a `BudgetInfeasible`
    names the image's index, so every reader reports it the same way."""
    try:
        return plan_resize(size, budget)
    except BudgetInfeasible as e:
        raise BudgetInfeasible(f"image {index}: {e}") from None


def _plan_images(sizes: Iterable[ImageSize], budget: PixelBudget) -> tuple[ResizePlan, ...]:
    """Plan each image under `budget`, as `_plan_image` does."""
    return tuple(_plan_image(i, size, budget) for i, size in enumerate(sizes))


def sample_from_record(record: ManifestRecord, budget: PixelBudget) -> SampleRecord:
    """Plan the record's images under `budget`, if it has any, and total up its tokens."""
    record_id, text_tokens, images = record
    return SampleRecord(record_id, text_tokens, _plan_images(images, budget) if images else ())
