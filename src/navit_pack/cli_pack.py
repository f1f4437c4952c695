"""`plan` and `pack`, which `cli.main` imports when it dispatches them."""

from __future__ import annotations

import argparse
import json
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Iterator

from . import cli
from .errors import _quoted
from .geometry import BudgetInfeasible, ResizePlan, phase_budget
from .packing import (
    PAD_POSITION,
    PackedSequence,
    SampleRecord,
    SampleTooLong,
    _plan_image,
    pack_ffd,
    packing_report,
    parse_manifest_line,
    sample_from_record,
)
from .records import ManifestError

# `cmd_plan` keeps the plans of at most this many distinct sizes, and
# forgets them all when it is full: about 260 bytes a size, so about 1 MB
# however many distinct sizes a manifest holds.
_PLAN_MEMO = 4096


def _position_runs(capacity: int) -> tuple[str, list[int], str]:
    """JSON text of the ids 0..capacity-1 and of capacity pad ids, unbracketed.

    `ends[n]` is the length of the first n ids' digits and the n - 1 commas
    between them, so every segment's position ids are one slice of the ids.
    """
    ids = json.dumps(list(range(capacity)), separators=(",", ":"))[1:-1]
    ends = [0, *map(add, accumulate(map(len, ids.split(","))), range(capacity))]
    pads = json.dumps([PAD_POSITION] * capacity, separators=(",", ":"))[1:-1]
    return ids, ends, pads


def _sequence_line(seq: PackedSequence, runs: tuple[str, list[int], str]) -> str:
    """The `pack` line of `seq` in one f-string, as `cmd_plan` writes a `plan` line.
    Byte-identical to its oracle `tests/mutants.oracle_line`: `json.dumps` of a dict of
    `seq`'s fields and `build_attention_metadata(seq)`'s `position_ids`. The ids are
    slices of `runs`, the `_position_runs` of `seq.capacity`, not encoded per token."""
    ids, ends, pads = runs
    capacity, lengths = seq
    segments, cumulative, positions, start = [], ["0"], [], 0
    for sid, length in lengths:
        segments.append(f"[{encode_basestring_ascii(sid)},{start},{length}]")
        positions.append(ids[: ends[length]])
        start += length
        cumulative.append(str(start))
    if start < capacity:
        positions.append(pads[: (len(str(PAD_POSITION)) + 1) * (capacity - start) - 1])
    return (
        f'{{"capacity":{capacity},"segments":[{",".join(segments)}],"pad_tokens":'
        f'{capacity - start},"cumulative_lengths":[{",".join(cumulative)}],'
        f'"position_ids":[{",".join(positions)}]}}'
    )


def _plan_fields(plan: ResizePlan) -> str:
    """The text of a `plan` line after `"image_index":N,`, newline included.
    It is the same for every image of a size, so `cmd_plan` makes it once."""
    source, target = plan.source, plan.target
    return (
        f'"source":{{"width":{source.width},"height":{source.height}}},"target":{{"width":'
        f'{target.width},"height":{target.height}}},"grid_rows":{plan.grid_rows},'
        f'"grid_cols":{plan.grid_cols},"token_count":{plan.token_count}}}\n'
    )


def cmd_plan(args: argparse.Namespace) -> None:
    """`plan`: one f-string per feasible image, equal to `json.dumps` of its
    dict plus a newline, byte for byte: the oracle its tests hold it to.

    Each distinct size is planned and its `_plan_fields` made once per run,
    as long as no more than `_PLAN_MEMO` sizes are kept. An infeasible size
    is not kept, so each of its images gets its own diagnostic, naming its
    line and index.
    """
    budget = phase_budget(args.phase)
    path = cli._shown(args.manifest)
    fields: dict[tuple[int, int], str] = {}

    def lines() -> Iterator[str]:
        for lineno, record in cli._records(args.manifest, parse_manifest_line):
            head = f'{{"id":{encode_basestring_ascii(record.id)},"image_index":'
            for index, size in enumerate(record.images):
                key = size.width, size.height  # a plain tuple: `ImageSize.__eq__` is Python code
                text = fields.get(key)
                if text is None:
                    try:
                        text = _plan_fields(_plan_image(index, size, budget))
                    except BudgetInfeasible as e:
                        cli._diag(f"{path}:{lineno}: {e}")
                        continue
                    if len(fields) >= _PLAN_MEMO:
                        fields.clear()
                    fields[key] = text
                yield f"{head}{index},{text}"

    cli._write_blocks(lines())


def cmd_pack(args: argparse.Namespace) -> None:
    budget = phase_budget(args.phase)
    seen_ids: set[str] = set()

    def sample(line: str) -> SampleRecord:
        record = parse_manifest_line(line)
        if record.id in seen_ids:
            raise ManifestError(f"duplicate sample id {_quoted(record.id)}")
        seen_ids.add(record.id)
        return sample_from_record(record, budget)

    samples = [s for _, s in cli._records(args.manifest, sample)]
    if cli._diagnostics:
        return
    try:
        sequences = pack_ffd(samples, args.capacity)
    except SampleTooLong as e:
        cli._diag(f"{cli._shown(args.manifest)}: {e}")
        return
    report = packing_report(samples, sequences, args.capacity, args.batch_size)
    runs = _position_runs(args.capacity)
    cli._write_blocks(chain(
        (_sequence_line(seq, runs) + "\n" for seq in sequences),
        [json.dumps(report._asdict(), separators=(",", ":")) + "\n"],
    ))
