"""Broken copies of the code that `verify`'s checks and the fast paths'
oracles guard, in one table.

`MUTANTS` maps a label to a `Mutant`: the `(module, attr)` it patches, its
change and its oracles. The change is one text edit `(old, new)` of the
live source, compiled by `recompiled`, so a mutant breaks today's code;
only other packing algorithms are whole replacements. A test swaps a
mutant in with `monkeypatch.setattr(mutant.module, mutant.attr,
mutant.replacement())`, and each of its oracles must then see it:
`verify` fails its `check` and no other (`test_c12`), and its `differs`
comparison of a fast path with a slow oracle over a fixed corpus finds a
mismatch (`test_mutants`).

A mutant may loop forever; tests run each one under `alarm`, which stops
it with an error that names it. A `differs` mutant stopped so counts as
seen: its corpus holds a case that it never finishes.
"""

import __future__
import inspect
import io
import json
import math
import os
import random
import signal
import sys
import tempfile
import textwrap
import threading
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple

import numpy as np

from navit_pack import chat, cli, cli_pack, cli_prefs, encoder, geometry, objectives, packing
from navit_pack import records, selfcheck, vet
from navit_pack.errors import NonFiniteInput
from navit_pack.geometry import ImageSize, PixelBudget, ResizePlan, phase_budget
from navit_pack.objectives import (
    GRPO_EPSILON, DpoConfig, GroupTooSmall, dpo_loss, pair_indices, parse_group_line,
)
from test_encoder import orthogonal_blocks
from test_geometry import oracle_plan_fast


def recompiled(module, attr, old, new):
    """`module.attr` compiled from its own source with the one occurrence of
    `old` replaced by `new`, its globals a copy of the module's."""
    source = textwrap.dedent(inspect.getsource(getattr(module, attr)))
    if source.count(old) != 1:
        raise ValueError(f"{module.__name__}.{attr} holds {old!r} {source.count(old)} times")
    namespace = dict(vars(module))
    code = compile(
        source.replace(old, new), module.__file__, "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    exec(code, namespace)
    return namespace[attr]


class Mutant(NamedTuple):
    """`module.attr` broken by `change`: a text edit `(old, new)` of its
    source, or a whole replacement. `check` names the `verify` check that
    must fail alone, `differs` the oracle comparison that must see it; a
    mutant has one or both."""

    module: object
    attr: str
    change: tuple[str, str] | Callable
    check: str | None = None
    differs: Callable[[], bool] | None = None

    def replacement(self):
        """The broken `module.attr`."""
        if callable(self.change):
            return self.change
        return recompiled(self.module, self.attr, *self.change)


def _sequences(bins, capacity):
    """`PackedSequence`s holding the samples of each bin in order."""
    return [
        packing.PackedSequence(capacity, tuple((s.id, s.total_tokens) for s in contents))
        for contents in bins
    ]


def pack_one_per_sequence(samples, capacity):
    """`packing.pack_ffd` putting each sample in its own sequence."""
    return _sequences([[s] for s in samples], capacity)


def pack_next_fit_decreasing(samples, capacity):
    """`packing.pack_ffd` with next fit: only the last bin is ever open."""
    bins, load = [], capacity
    for s in sorted(samples, key=lambda s: (-s.total_tokens, s.id)):
        if load + s.total_tokens > capacity:
            bins.append([])
            load = 0
        bins[-1].append(s)
        load += s.total_tokens
    return _sequences(bins, capacity)


def pack_first_fit_unsorted(samples, capacity):
    """`packing.pack_ffd` without the longest-first sort: first fit in input order."""
    bins = []
    for s in samples:
        for contents in bins:
            if sum(x.total_tokens for x in contents) + s.total_tokens <= capacity:
                contents.append(s)
                break
        else:
            bins.append([s])
    return _sequences(bins, capacity)


def sequence_dict(seq):
    """The fields of `seq`'s `pack` line before its position ids."""
    return {
        "capacity": seq.capacity,
        "segments": [list(segment) for segment in seq.segments],
        "pad_tokens": seq.pad_tokens,
        "cumulative_lengths": list(seq.cumulative_lengths),
    }


def oracle_line(seq):
    """The `pack` line of `seq`: `json.dumps` of its dict and per-token position ids."""
    _, positions = packing.build_attention_metadata(seq)
    return json.dumps({**sequence_dict(seq), "position_ids": positions}, separators=(",", ":"))


# Sequences with and without padding whose segments end on both sides of
# a change in digit count.
_LINE_CORPUS = [
    packing.PackedSequence(capacity, tuple((f"s{i}", n) for i, n in enumerate(lengths)))
    for capacity, lengths in [
        (1, [1]), (1, []), (12, [5, 4]), (101, [9, 10, 11, 1, 60]), (1001, [999, 1]),
        (1001, [100, 101]),
    ]
]


def sequence_line_differs():
    """Whether `cli_pack._sequence_line` writes a line of the corpus other than
    `oracle_line` does."""
    return any(
        cli_pack._sequence_line(seq, cli_pack._position_runs(seq.capacity)) != oracle_line(seq)
        for seq in _LINE_CORPUS
    )


# (lengths, capacity) manifests: hand-made exact fits, runs of equal
# lengths longer than one bin holds, then seeded ones.
_rng = random.Random(5)
_FFD_LENGTHS = [
    ([7, 5, 4, 4, 2], 10), ([10, 10], 10), ([6, 4, 6, 4, 5, 5], 10),
    ([3] * 10 + [2, 2], 10), ([5] * 7 + [4] * 5 + [1] * 30, 12), ([1] * 30 + [6], 12),
] + [([_rng.randint(1, 12) for _ in range(_rng.randint(1, 10))], 12) for _ in range(40)]

# Each manifest twice: ids in input order, then in a seeded order, so that
# equal lengths must be ordered by id rather than by input position.
_FFD_CORPUS = [
    ([packing.SampleRecord(f"s{i:02d}", n) for i, n in zip(ids, lengths)], capacity)
    for lengths, capacity in _FFD_LENGTHS
    for ids in (range(len(lengths)), _rng.sample(range(len(lengths)), len(lengths)))
]


def pack_ffd_differs():
    """Whether `packing.pack_ffd` puts a manifest of the corpus in other
    bins than `selfcheck.linear_first_fit`, or fails on one."""
    for samples, capacity in _FFD_CORPUS:
        try:
            bins = [[sid for sid, _ in seq.lengths] for seq in packing.pack_ffd(samples, capacity)]
        except (ValueError, IndexError):  # an overfull bin, or one past the last open bin
            return True
        if bins != selfcheck.linear_first_fit(samples, capacity):
            return True
    return False


def oracle_json_record(line, allowed, what="record"):
    """`records._json_record` by `json.loads` alone."""
    try:
        value = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as e:
        raise records.ManifestError(f"invalid JSON: {e}") from e
    except ValueError as e:  # an integer beyond Python's digit limit
        raise records.ManifestError(str(e)) from e
    return records._record(value, allowed, what)


def _outcome(parse, line):
    """`repr` of the manifest record that `parse` makes of `line`, or the
    text of the `ManifestError` it raises."""
    try:
        return repr(parse(line, packing._MANIFEST_KEYS))
    except records.ManifestError as e:
        return "error", str(e)


# Lines at the edges of what `json.loads` accepts, each written as is: a
# BOM on the first line, CRLF (whose CR is JSON whitespace), whitespace
# around a record, extra data, NaN and Infinity, an integer past Python's
# 4,300-digit limit, nesting past the recursion limit, and a last line with
# no newline. Every value and error must be `json.loads`'s own.
EDGE_LINES = (
    '\ufeff{"id": "bom", "text_tokens": 1}\n',
    '{"id": "crlf", "text_tokens": 2, "images": [{"width": 640, "height": 480}]}\r\n',
    '  {"id": "leading-spaces", "text_tokens": 3, "images": [{"width": 90, "height": 3000}]}\n',
    '{"id": "trailing-spaces", "text_tokens": 4, "images": [{"width": 2000, "height": 40}]} \t \n',
    '{"id": "extra-data", "text_tokens": 5} x\n',
    '{"id": "extra-brace", "text_tokens": 5}}\n',
    '{"id": "nan", "text_tokens": NaN}\n',
    '{"id": "infinity", "text_tokens": 1, "images": [{"width": Infinity, "height": 9}]}\n',
    '{"id": "huge", "text_tokens": ' + "9" * 5000 + "}\n",
    '{"id": "deep", "text_tokens": 1, "images": ' + "[" * 100_000 + "]" * 100_000 + "}\n",
    '{"id": "last-line", "text_tokens": 6, "images": [{"width": 1, "height": 1}]}',
)


# The edge lines of the golden corpus as a file holds them, then without
# their newline, as the last line of a file or a conversation holds them,
# and empty text.
_JSON_CORPUS = [*EDGE_LINES, *(line[:-1] for line in EDGE_LINES if line[-1:] == "\n"), "", "\n"]


def json_record_differs():
    """Whether `records._json_record` gives a line of the corpus another
    record, or another error, than `oracle_json_record` does."""
    return any(
        _outcome(records._json_record, line) != _outcome(oracle_json_record, line)
        for line in _JSON_CORPUS
    )


def _image_line(*images, **fields):
    """A manifest line of record `r` holding `images`, with `fields` added."""
    return json.dumps({"id": "r", "text_tokens": 3, "images": list(images), **fields}) + "\n"


def _record(*sides):
    """Record `r` of 3 text tokens and images of the `(width, height)` `sides`."""
    return packing.ManifestRecord("r", 3, tuple(ImageSize(w, h) for w, h in sides))


_VGA = {"width": 640, "height": 480}
_FLOAT_MAX = int(sys.float_info.max)


def _side_error(index, key, fault="must be a positive integer"):
    return f"image {index}: {key!r} {fault}"


# Manifest lines at the edges of `parse_manifest_line`'s exact-type checks,
# each with the record or the error text it gives: sides that are a `bool`,
# zero, negative, not integers, or at and past the edge of float range
# (`_FLOAT_MAX + 1` rounds to a float, 2^1024 does not); `images` absent,
# empty, null, a string, an object or a list of lists; a missing or extra
# image key; a `bool`, negative or float `text_tokens`; and a bad id.
_MANIFEST_CASES = [
    (_image_line(_VGA, {"width": 1, "height": 2**999}), _record((640, 480), (1, 2**999))),
    (
        _image_line(_VGA, {"width": _FLOAT_MAX, "height": _FLOAT_MAX + 1}),
        _record((640, 480), (_FLOAT_MAX, _FLOAT_MAX + 1)),
    ),
    *(
        (_image_line(_VGA, {"width": side, "height": 9}), _side_error(1, "width"))
        for side in (True, False, 0, -1, 1.0, None, "9")
    ),
    *(
        (_image_line(_VGA, {"width": side, "height": 9}), _side_error(1, "width", "is too large"))
        for side in (2**1024, 2**1100)
    ),
    (_image_line({"width": 9, "height": True}), _side_error(0, "height")),
    (_image_line({"width": 9, "height": 0}), _side_error(0, "height")),
    (_image_line({"width": 9, "height": 2**1100}), _side_error(0, "height", "is too large")),
    (_image_line({"width": 2**1100, "height": 0}), _side_error(0, "width", "is too large")),
    ('{"id": "r", "text_tokens": 0}\n', packing.ManifestRecord("r", 0, ())),
    (_image_line(), _record()),
    *(
        (_image_line(images=images), "'images' must be a list")
        for images in (None, "640x480", {})
    ),
    (_image_line(images=[[640, 480]]), "image 0 must be an object"),
    (_image_line({"width": 640, "height": 480, "depth": 3}), "image 0: unknown field 'depth'"),
    (_image_line({"width": 640}), _side_error(0, "height")),
    (_image_line({"height": 480, "w": 1}), "image 0: unknown field 'w'"),
    *(
        (_image_line(_VGA, text_tokens=tokens), "missing or invalid 'text_tokens' (integer required)")
        for tokens in (True, 1.0, None)
    ),
    (_image_line(_VGA, text_tokens=-1), "'text_tokens' must be non-negative"),
    *(
        (_image_line(_VGA, id=record_id), "missing or invalid 'id' (non-empty string required)")
        for record_id in ("", 7)
    ),
]


def manifest_differs():
    """Whether `packing.parse_manifest_line` gives a line of `_MANIFEST_CASES`
    another record, or another error, than the one recorded with it."""
    def outcome(line):
        try:
            return repr(packing.parse_manifest_line(line))
        except ValueError as e:
            return type(e).__name__, str(e)

    return any(
        outcome(line) != (repr(want) if isinstance(want, packing.ManifestRecord)
                          else ("ManifestError", want))
        for line, want in _MANIFEST_CASES
    )


def oracle_plan_line(record_id, index, plan):
    """The `plan` line of image `index` of record `record_id`: `json.dumps` of its dict."""
    target = plan.target
    return json.dumps({
        "id": record_id,
        "image_index": index,
        "source": {"width": plan.source.width, "height": plan.source.height},
        "target": {"width": target.width, "height": target.height},
        "grid_rows": plan.grid_rows,
        "grid_cols": plan.grid_cols,
        "token_count": plan.token_count,
    }, separators=(",", ":"))


# Manifest records for `plan`: ids that JSON must escape, grids that are
# not square, sizes repeated in a record and across records, sizes that
# share a width, and a sliver past the distortion limit in two records,
# which `plan` must report at each of its images.
PLAN_MANIFEST = "".join(
    json.dumps({
        "id": record_id, "text_tokens": 1,
        "images": [{"width": width, "height": height} for width, height in sizes],
    }) + "\n"
    for record_id, sizes in [
        ('say "hi"', [(640, 480)]),
        ("C:\\data\\img", [(100, 300), (2000, 50), (640, 480)]),
        ("café-日本-\U0001f600", [(1, 1), (640, 640), (1, 1)]),
        ("tab\tnew\nline\x01", [(300, 100), (10000, 3), (640, 100)]),
        ("plain", [(4032, 3024), (224, 224), (10000, 3), (3840, 2160), (224, 448), (640, 480)]),
    ]
)


def plan_oracle(text, path):
    """Expected `plan` stdout and stderr for the manifest `text` at `path`:
    `plan_resize` called on each image alone, one `oracle_plan_line` per
    plan and one diagnostic per infeasible image."""
    budget = phase_budget(geometry.Phase.P2)
    out, err = [], []
    for lineno, line in enumerate(text.split("\n")[:-1], 1):
        record = json.loads(line)
        for index, image in enumerate(record.get("images", [])):
            try:
                plan = geometry.plan_resize(ImageSize(image["width"], image["height"]), budget)
            except geometry.BudgetInfeasible as e:
                err.append(f"{path}:{lineno}: image {index}: {e}\n")
            else:
                out.append(oracle_plan_line(record["id"], index, plan) + "\n")
    return "".join(out), "".join(err)


def plan_output_differs():
    """Whether `plan` writes other stdout or stderr for `PLAN_MANIFEST` than
    `plan_oracle` does."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "plan.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(PLAN_MANIFEST)
        _, out, err = run_in_process("plan", "--manifest", path)
    return (out, err) != plan_oracle(PLAN_MANIFEST, path)


# (width, height, budget) sources, each with a grid that fits: P1 and P2
# sources from square to slivers past the distortion limit, one-value
# budgets that a few rows fit, and narrow budgets of many rows. The phase
# sources come first: `gt-for-ge-fit` differs on their slivers and loops
# forever on the one-value and narrow budgets.
_RESIZE_CORPUS = [
    (w, h, phase_budget(phase))
    for phase in (geometry.Phase.P1, geometry.Phase.P2)
    for w, h in [
        (640, 480), (4032, 3024), (100, 300), (2000, 50), (1, 1), (224, 224), (3840, 2160),
        (7, 9000), (9000, 7), (20000, 9),
    ]
] + [
    (100, 200, PixelBudget(200704, 200704, 16)), (5, 5, PixelBudget(1009, 1009, 1)),
    (3, 7, PixelBudget(720, 720, 1)), (7, 3, PixelBudget(720, 720, 1)),
    (50, 1, PixelBudget(360, 360, 1)), (1, 50, PixelBudget(360, 360, 1)),
] + [
    (w, h, PixelBudget(lo * patch**2, lo * patch**2 + extra, patch))
    for w, h in [(300, 100), (100, 300), (640, 480)]
    for lo, patch, extra in [(1000, 4, 40), (997, 2, 7), (5000, 1, 3), (4097, 8, 128)]
]


def plan_differs():
    """Whether `geometry.plan_resize` picks a grid for a source of the corpus
    other than `test_geometry.oracle_plan_fast`, the brute-force search over
    every row count; a rejected source's diagnostic names its grid."""
    for w, h, budget in _RESIZE_CORPUS:
        rows, cols = oracle_plan_fast(w, h, budget)
        try:
            plan = geometry.plan_resize(ImageSize(w, h), budget)
        except geometry.BudgetInfeasible as e:
            if not str(e).startswith(f"best grid {rows}x{cols} "):
                return True
        else:
            if (plan.grid_rows, plan.grid_cols) != (rows, cols):
                return True
    return False


def numpy_dpo_losses(lp_c, lr_c, lp_r, lr_r, cfg):
    """`objectives.dpo_loss` in numpy, one array per column of pairs:
    `np.logaddexp` for the loss and `np.exp` in both branches of the gradient."""
    lp_c, lr_c, lp_r, lr_r = (np.asarray(x, dtype=np.float64) for x in (lp_c, lr_c, lp_r, lr_r))
    beta, nll = cfg.beta, cfg.nll_weight
    with np.errstate(over="ignore", invalid="ignore"):
        z = beta * ((lp_c - lr_c) - (lp_r - lr_r))
        # -log sigmoid(z) = log(1 + exp(-z)), stable for large |z|
        loss = np.logaddexp(0.0, -z) + nll * (-lp_c)
        # d(-log sigmoid(z))/dz = -sigmoid(-z); each branch is computed for
        # every entry, and the one not taken may overflow.
        g = np.where(z < 40, -beta / (1.0 + np.exp(z)), -beta * np.exp(-z))
        return loss, g - nll, -g, -g, g


def numpy_grpo_rows(rewards):
    """`objectives.grpo_advantages` in numpy, on a `(groups, k)` array of
    groups: `std` and `mean` along each row."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] < 2:
        raise GroupTooSmall(f"need rows of >= 2 rewards, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise NonFiniteInput("rewards contain non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        std = r.std(axis=1)
        advantages = (r - r.mean(axis=1, keepdims=True)) / (std + GRPO_EPSILON)[:, None]
    advantages[~np.isfinite(std)] = np.nan
    return advantages


def grpo_row_agrees(row, rewards):
    """Whether a row of advantages agrees with `numpy_grpo_rows([rewards])`:
    the same entries non-finite and, of the others, for at most 7 rewards
    the same bits (the same `repr`, so the sign of a zero counts), and for
    more, whose sums numpy takes pairwise, within the bench's `close` rule
    at 1e-12."""
    want = numpy_grpo_rows([rewards])[0].tolist()
    if [math.isfinite(a) for a in row] != [math.isfinite(b) for b in want]:
        return False
    pairs = [(a, b) for a, b in zip(row, want, strict=True) if math.isfinite(a)]
    if len(rewards) < 8:
        return all(repr(a) == repr(b) for a, b in pairs)
    return all(abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)) for a, b in pairs)


# Rows of 2 to 9 rewards: binary, graded, spread over many magnitudes,
# constant, and one whose variance overflows.
_GRPO_CORPUS = [
    [1.0, 0.0], [0.0, 1.0, 1.0], [3.0, 1.0, 2.0], [0.25, 0.5, 0.75, 1.0, 0.0],
    [2.5, 2.5, 2.5], [1e-9, -3.0, 7e5, 0.1, -0.3, 42.0], [0.1] * 6 + [0.7],
    [0.3, -1.7, 2.9, 1e3, -4e-4, 5.5, 6.25, -0.125, 1.0 / 3.0], [1e308, -1e308],
]


def grpo_differs():
    """Whether `objectives.grpo_advantages` gives a row of the corpus that
    `grpo_row_agrees` rejects."""
    return not all(grpo_row_agrees(objectives.grpo_advantages(r), r) for r in _GRPO_CORPUS)


def prefs_oracle(
    text, command, path, margin=0.0, beta=0.1, nll_weight=0.0, min_score_variance=0.0
):
    """Expected `prefs` stdout and stderr: one `json.dumps` per line, from
    one `dpo_loss` call per pair and one `grpo_advantages` call per group.
    Each group goes through the difficulty filter and then the objective
    before the next, so diagnostics come in line order."""
    groups = [(n, parse_group_line(line)) for n, line in enumerate(text.splitlines(), 1)]
    out, err = [], []

    def not_finite(lineno, group, what):
        err.append(f"{path}:{lineno}: query {group.query_id!r}: {what} is not finite\n")

    for lineno, group in groups:
        if min_score_variance > 0.0:
            variance = group.score_variance()
            if not math.isfinite(variance):
                not_finite(lineno, group, "score variance")
                continue
            if variance < min_score_variance:
                continue
        scores, lp, lr = group.scores, group.logprob_policy, group.logprob_reference
        records = []
        if command == "grpo":
            advantages = objectives.grpo_advantages(scores)
            records.append({"query_id": group.query_id, "advantages": advantages})
            numbers, what = advantages, "advantage"
        elif command == "pairs":
            for i, j in pair_indices(scores, margin):
                records.append(
                    {
                        "query_id": group.query_id,
                        "chosen_index": i,
                        "rejected_index": j,
                        "chosen_response": group.responses[i],
                        "rejected_response": group.responses[j],
                        "score_gap": scores[i] - scores[j],
                    }
                )
            numbers, what = [r["score_gap"] for r in records], "score gap"
        else:
            for i, j in pair_indices(scores, margin):
                values = dpo_loss(lp[i], lr[i], lp[j], lr[j], DpoConfig(beta, nll_weight))
                records.append(
                    {
                        "query_id": group.query_id,
                        "chosen_index": i,
                        "rejected_index": j,
                        **dict(zip(_DPO_FIELDS, values)),
                    }
                )
            numbers, what = [r[k] for r in records for k in _DPO_FIELDS], "loss or gradient"
        if all(map(math.isfinite, numbers)):
            out.extend(records)
        else:
            not_finite(lineno, group, what)
    return "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in out), "".join(err)


_DPO_FIELDS = (
    "loss", "d_logprob_policy_chosen", "d_logprob_policy_rejected",
    "d_logprob_reference_chosen", "d_logprob_reference_rejected",
)


# Groups for `prefs dpo --nll-weight -0.0`, each candidate scored by its
# index: pairs whose `g` is negative, then one whose margin of 10000
# underflows `g` to -0.0, so that `g - nll_weight` is 0.0 and not `g`.
_PREFS_GROUPS = "".join(
    json.dumps({"query_id": f"q{n}", "candidates": [
        {"response": str(j), "logprob_policy": lp, "logprob_reference": lr, "score": float(j)}
        for j, (lp, lr) in enumerate(rows)
    ]}) + "\n"
    for n, rows in enumerate([
        [(-1.0, -2.0), (-3.0, -1.0), (-2.0, -2.5)], [(-5000.0, 0.0), (0.0, -5000.0)]
    ])
)


# Groups for `prefs pairs` whose ids and responses JSON must escape: a
# quote, a backslash, non-ASCII (one character past the BMP) and control
# characters.
_PAIRS_GROUPS = "".join(
    json.dumps({"query_id": query_id, "candidates": [
        {"response": response, "logprob_policy": -1.0, "logprob_reference": -1.0, "score": score}
        for response, score in zip(responses, (0.25, 1.0, 0.5))
    ]}) + "\n"
    for query_id, responses in [
        ('say "hi"', ['a "quoted" one', "C:\\dir\\file", "plain"]),
        ("café-日本-\U0001f600", ["naïve", "\U0001f600 grin", "tab\there"]),
        ("ctl\x01\x1f", ["line\nbreak", "bell\x07", "del\x7f"]),
    ]
)


def prefs_differs():
    """Whether `prefs dpo --nll-weight -0.0` or `prefs pairs` writes other
    stdout or stderr for its corpus than `prefs_oracle` does."""
    cases = [("dpo", _PREFS_GROUPS, {"nll_weight": -0.0}), ("pairs", _PAIRS_GROUPS, {})]
    with tempfile.TemporaryDirectory() as directory:
        for command, text, options in cases:
            path = os.path.join(directory, f"{command}.jsonl")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            flags = [x for k, v in options.items() for x in ("--" + k.replace("_", "-"), repr(v))]
            _, out, err = run_in_process("prefs", command, "--groups", path, *flags)
            if (out, err) != prefs_oracle(text, command, path, **options):
                return True
    return False


# Messages whose text holds a marker whole, split between two text parts or
# only in fragments, the last split by an image, which forms none.
_MARKER_CORPUS = [
    parts
    for marker in chat._MARKERS
    for parts in [
        (chat.TextPart(f"x{marker}y"),),
        (chat.TextPart("a" + marker[:4]), chat.TextPart(marker[4:] + "b")),
        (chat.TextPart(marker[:-1]), chat.TextPart(marker[1:])),
        (chat.TextPart(marker[:4]), chat.ImagePart("img0"), chat.TextPart(marker[4:])),
    ]
]


def marker_refusal_differs():
    """Whether `chat.ChatMessage` accepts a message of the corpus whose turn,
    rendered as the template writes it, holds more markers than the
    template puts there, or refuses one whose turn does not."""
    for parts in _MARKER_CORPUS:
        body = "".join(
            part.text if isinstance(part, chat.TextPart) else chat.IMAGE_PAD_TOKEN
            for part in parts
        )
        turn = f"<|im_start|>user\n{body}<|im_end|>\n"
        images = sum(isinstance(part, chat.ImagePart) for part in parts)
        forged = sum(map(turn.count, chat._MARKERS)) != 2 + images
        try:
            chat.ChatMessage(chat.Role.USER, parts)
        except ValueError:
            refused = True
        else:
            refused = False
        if refused != forged:
            return True
    return False


def attention_differs():
    """Whether `encoder.block_diag_forward` gives `test_encoder.orthogonal_blocks`,
    whose shifted exps all underflow, rows further than 1e-9 from
    `selfcheck._dense_block_attention`, or rows that are not finite."""
    packed, params, rope = orthogonal_blocks()
    # A 0/0 row is a NaN for the comparison to see, not a warning to raise.
    with np.errstate(invalid="ignore"):
        out = encoder.block_diag_forward(packed, params, rope)
    reference = selfcheck._dense_block_attention(packed, params, rope)
    return not (np.abs(out - reference) <= 1e-9).all()


def split_attention_differs():
    """Whether `encoder.block_diag_forward` on 2 workers gives
    `test_encoder.orthogonal_blocks((600, 100))` other bits, or another
    number of calls to numpy's error callback, than on 1 worker.

    The shifted exps of each of the 4 tiles underflow, which under
    `under="call"` makes one call per tile, so a tile left unrun or run
    under another error state shows in the count, whatever `np.empty_like`
    left in its rows. On 2 workers the first call waits, up to 1 s, for a
    call from another thread, so the helper runs a tile whichever thread
    starts first.
    """
    packed, params, rope = orthogonal_blocks((600, 100))
    saved, runs = encoder._workers, []
    try:
        for workers in (1, 2):
            threads, met = [], threading.Event()

            def call(kind, flag):
                threads.append(threading.get_ident())
                if workers == 1:
                    return
                if len(threads) == 1:
                    met.wait(1.0)
                elif threads[-1] != threads[0]:
                    met.set()

            encoder._workers = lambda: workers
            with np.errstate(under="call", call=call):
                runs.append((encoder.block_diag_forward(packed, params, rope), len(threads)))
    finally:
        encoder._workers = saved
    (want, want_calls), (got, got_calls) = runs
    return got_calls != want_calls or not np.array_equal(got, want)


def _mutants(module, attr, changes, check=None, differs=None):
    """`{label: Mutant}` of `module.attr`, one per change, all with the same oracles."""
    return {label: Mutant(module, attr, c, check, differs) for label, c in changes.items()}


MUTANTS = {
    **_mutants(vet, "vet_embed_grad", {
        "vet-grad-no-pa-term": ("probs * a[None, :] - probs * pa[:, None]", "probs * a[None, :]"),
    }, "vet-grad"),
    **_mutants(objectives, "dpo_loss", {
        "dpo-grad-plus-g": ("return loss, g - nll, -g, -g, g", "return loss, g - nll, -g, g, g"),
    }, "dpo-grad"),
    # The sample variance in place of the population variance.
    **_mutants(objectives, "_mean_variance", {
        "grpo-sample-std": (
            "return mean, squares / len(values)", "return mean, squares / (len(values) - 1)"
        ),
    }, differs=grpo_differs),
    **_mutants(encoder, "_rotate_pairs", {
        "rope-reflection": ("im += odd * cos", "im -= odd * cos"),
    }, "rope-relative"),
    **_mutants(encoder, "apply_rope_2d", {
        "rope-row-only": ("pos[:, :, None] * freqs", "pos[:, [0, 0], None] * freqs"),
        "rope-swapped-axes": ("pos[:, :, None] * freqs", "pos[:, ::-1, None] * freqs"),
    }, "rope-relative"),
    # Each block but the last takes the first token of the next as a key.
    **_mutants(encoder, "block_diag_forward", {
        "pack-boundary-moved": ("k[lo:hi], v[lo:hi]", "k[lo:hi + 1], v[lo:hi + 1]"),
    }, "pack-equiv"),
    # A tile whose shifted exps all underflow is kept, and its rows are 0/0.
    **_mutants(encoder, "block_diag_forward", {
        "shift-underflow-unguarded": ("if not (sums > _SUM_FLOOR).all():", "if False:"),
    }, differs=attention_differs),
    # A worker stops one tile early, so the last tile's rows keep what
    # `np.empty_like` left there; helpers run under numpy's default error
    # state, not the caller's.
    **_mutants(encoder, "_in_parallel", {
        "worker-stops-a-tile-early": (
            "if i >= len(items) or failures:", "if i >= len(items) - 1 or failures:"
        ),
        "helpers-without-error-state": ("np.errstate(call=call, **state)", "np.errstate()"),
    }, differs=split_attention_differs),
    **_mutants(packing, "pack_ffd", {
        "ffd-one-per-sequence": pack_one_per_sequence,
        "ffd-next-fit": pack_next_fit_decreasing,
        "ffd-unsorted-first-fit": pack_first_fit_unsorted,
    }, "ffd-opt"),
    # Three broken first-fit walks of the segment tree, and equal lengths
    # left in input order rather than ordered by id.
    **_mutants(packing, "pack_ffd", {
        "ffd-gt-for-ge": ("free[2 * k] >= need", "free[2 * k] > need"),
        "ffd-right-first": (
            "k = 2 * k if free[2 * k] >= need else 2 * k + 1",
            "k = 2 * k + 1 if free[2 * k + 1] >= need else 2 * k",
        ),
        "ffd-upward-update-stops-at-once": ("if free[k] == room:", "if True:"),
        "ffd-id-presort-dropped": (
            "sorted([(s.id, s.total_tokens) for s in samples])",
            "[(s.id, s.total_tokens) for s in samples]",
        ),
    }, "ffd-opt", pack_ffd_differs),
    **_mutants(packing, "pack_ffd", {
        "ascending-lengths": ("itemgetter(1), reverse=True", "itemgetter(1)"),
        "take-past-run-end": (
            "max(1, min(len(run) - start, free[k] // need))", "max(1, free[k] // need)"
        ),
        "take-past-free-room": (
            "max(1, min(len(run) - start, free[k] // need))", "max(1, len(run) - start)"
        ),
    }, differs=pack_ffd_differs),
    **_mutants(cli_pack, "_sequence_line", {
        "pad-slice-one-id-short": ("(capacity - start) - 1]", "(capacity - start - 1) - 1]"),
        "id-slice-off-by-one": ("ids[: ends[length]]", "ids[: ends[length - 1]]"),
        "space-after-spliced-comma": ("}],'", "}], '"),
        "segment-start-off-by-one": ("{start},{length}]", "{start + 1},{length}]"),
        "cumulative-without-leading-zero": ('["0"]', "[]"),
    }, differs=sequence_line_differs),
    # Id 10 is the first of two digits: its width taken from id 9 leaves
    # `ends[11]` one short. Each id is given the width of the one before
    # it, and id 0 its own.
    **_mutants(cli_pack, "_position_runs", {
        "ends-width-of-previous-id": (
            'accumulate(map(len, ids.split(",")))', 'accumulate(map(len, ids.split(",")), initial=1)'
        ),
    }, differs=sequence_line_differs),
    **_mutants(records, "_json_record", {
        "newline-unchecked": (
            '(end != len(line) - 1 or line[end] != "\\n")', "end != len(line) - 1"
        ),
        "trailing-space-accepted": (
            '(end != len(line) - 1 or line[end] != "\\n")', 'line[end] not in "\\n "'
        ),
    }, differs=json_record_differs),
    **_mutants(cli_pack, "cmd_plan", {
        "id-unescaped": ("encode_basestring_ascii(record.id)", "chr(34) + record.id + chr(34)"),
        "id-not-ascii-escaped": (
            "encode_basestring_ascii(record.id)", "json.dumps(record.id, ensure_ascii=False)"
        ),
        # Sizes of one width share the first one's plan.
        "memo-keyed-on-width": ("key = size.width, size.height", "key = size.width"),
    }, differs=plan_output_differs),
    **_mutants(cli_pack, "_plan_fields", {
        "rows-for-cols": ('"grid_cols":{plan.grid_cols}', '"grid_cols":{plan.grid_rows}'),
    }, differs=plan_output_differs),
    **_mutants(packing, "parse_manifest_line", {
        "side-bool-accepted": (
            "type(width) is int and type(height) is int",
            "isinstance(width, int) and isinstance(height, int)",
        ),
        "side-zero-accepted": ("0 < width <= _FLOAT_MAX", "0 <= width <= _FLOAT_MAX"),
        "side-unbounded": ("0 < height <= _FLOAT_MAX", "0 < height"),
        "extra-image-key-accepted": ("img.keys() == _IMAGE_KEYS", "img.keys() >= _IMAGE_KEYS"),
        "text-tokens-bool-accepted": (
            "type(text_tokens) is not int", "not isinstance(text_tokens, int)"
        ),
    }, differs=manifest_differs),
    **_mutants(geometry, "_fitting_row", {
        "floor-for-ceil": ("-(-n_lo // q)", "n_lo // q"),
        "gt-for-ge-fit": ("if r >= first:", "if r > first:"),
        "down-past-next-q": ("n_hi // (q + 1)", "n_hi // (q + 2)"),
    }, differs=plan_differs),
    **_mutants(cli_prefs, "_negated", {
        "negated-always-prefixed": ('text[1:] if text[0] == "-" else "-" + text', '"-" + text'),
    }, differs=prefs_differs),
    # With `nll_weight` -0.0, `g - nll_weight` no longer shares `g`'s text.
    **_mutants(cli_prefs, "_dpo_renderer", {
        "same-ignores-zero-sign": (
            "cfg.nll_weight == 0.0 and math.copysign(1.0, cfg.nll_weight) > 0.0",
            "cfg.nll_weight == 0.0",
        ),
    }, differs=prefs_differs),
    **_mutants(chat, "ChatMessage", {
        "marker-check-dropped": ("if held:", "if False:"),
    }, differs=marker_refusal_differs),
    **_mutants(cli_prefs, "_pairs_renderer", {
        "response-unescaped": ("encode_basestring_ascii(response)", "f'\"{response}\"'"),
        "chosen-rejected-swapped": (
            '{head}{i},"rejected_index":{j}', '{head}{j},"rejected_index":{i}'
        ),
    }, differs=prefs_differs),
}


class MutantTimeout(BaseException):
    """A mutant still running when its alarm rang. A `BaseException`, so
    that no handler for a check's or path's own errors takes it."""


# Seconds a mutant may run, about ten times a whole `verify` run.
_ALARM_S = 5.0


@contextmanager
def alarm(label):
    """Stop the block with `MutantTimeout` naming `label` if it runs longer
    than `_ALARM_S`, so that a mutant that loops forever fails its test."""

    def ring(signum, frame):
        raise MutantTimeout(f"{label} still running after {_ALARM_S} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, _ALARM_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_in_process(*argv, stdin=b""):
    """`(exit status, stdout, stderr)` of `cli.main(argv)` reading the bytes
    `stdin`, run in this process so that a monkeypatched mutant is the code
    it runs. A usage error or `--help` gives the status it exits with."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_verify(*argv):
    """`(exit status, {check: status}, stderr)` of `run_in_process(*argv)`."""
    code, out, err = run_in_process(*argv)
    statuses = {line.split()[0]: line.split()[1] for line in out.splitlines()}
    return code, statuses, err
