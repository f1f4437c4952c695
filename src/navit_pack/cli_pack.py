"""`plan` and `pack`, which `cli.main` imports when it dispatches them."""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate
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
    """The `pack` line of `seq` in one f-string, as `_plan_lines` writes a `plan` line.
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


def _plan_lines(record_id: str, plans: list[tuple[int, ResizePlan]]) -> Iterator[str]:
    """Record `record_id`'s `plan` lines, one f-string per `(image index, plan)`. Each equals
    `json.dumps` of its dict plus a newline, byte for byte: the oracle its tests hold it to."""
    id_json = encode_basestring_ascii(record_id)
    for index, plan in plans:
        source, target = plan.source, plan.target
        yield (
            f'{{"id":{id_json},"image_index":{index},"source":{{"width":{source.width},'
            f'"height":{source.height}}},"target":{{"width":{target.width},"height":'
            f'{target.height}}},"grid_rows":{plan.grid_rows},"grid_cols":{plan.grid_cols},'
            f'"token_count":{plan.token_count}}}\n'
        )


def cmd_plan(args: argparse.Namespace) -> None:
    budget = phase_budget(args.phase)
    for lineno, record in cli._records(args.manifest, parse_manifest_line):
        plans = []
        for index, size in enumerate(record.images):
            try:
                plans.append((index, _plan_image(index, size, budget)))
            except BudgetInfeasible as e:
                cli._diag(f"{cli._shown(args.manifest)}:{lineno}: {e}")
        sys.stdout.writelines(_plan_lines(record.id, plans))


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
    for seq in sequences:
        print(_sequence_line(seq, runs))
    print(json.dumps(report._asdict(), separators=(",", ":")))
