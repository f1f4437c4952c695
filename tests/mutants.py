"""Broken copies of the code that each `verify` check or fast path guards.

`MUTANTS`: a test swaps a mutant in with `monkeypatch.setattr(mutant.module,
mutant.attr, mutant.replacement)`; `verify` must then fail the mutant's
own check and no other. Each mutant keeps the signature of the code it
replaces and breaks it in the one way its docstring, or its text edit,
names.

`FAST_PATH_MUTANTS`: each fast path maps to its oracle comparison and to
mutants written as one text edit of the fast path's own source
(`recompiled`). With a mutant swapped in, the comparison over a fixed
corpus must find a mismatch.

A mutant may loop forever; tests run each one under `alarm`, which stops
it with an error that names it. A fast-path mutant stopped so counts as
seen: its corpus holds a case that it never finishes.
"""

import __future__
import inspect
import io
import json
import random
import signal
import textwrap
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple

import numpy as np

from navit_pack import cli, encoder, geometry, objectives, packing, selfcheck, vet
from navit_pack.geometry import ImageSize, PixelBudget, ResizePlan, phase_budget
from test_geometry import oracle_plan_fast
from test_golden import EDGE_LINES


class Mutant(NamedTuple):
    check: str
    module: object
    attr: str
    replacement: Callable


def vet_embed_grad_without_pa_term(features, head, table, upstream):
    """`vet.vet_embed_grad` with the `- (p.a) p` term dropped from d_logits."""
    u = np.asarray(upstream, dtype=np.float64)
    f, probs = vet._head_probs(features, head)
    d_logits = probs * (table.table @ u)[None, :]
    return vet.VetGradients(
        d_features=d_logits @ head.projection.T / head.temperature,
        d_projection=f.T @ d_logits / head.temperature,
        d_table=probs.sum(axis=0)[:, None] * u[None, :],
    )


_dpo_losses = objectives.dpo_losses


def dpo_losses_with_plus_g_reference_chosen(lp_c, lr_c, lp_r, lr_r, cfg):
    """`objectives.dpo_losses` returning +g, not -g, as the lr_c partial."""
    loss, d_lp_c, d_lp_r, _, g = _dpo_losses(lp_c, lr_c, lp_r, lr_r, cfg)
    return loss, d_lp_c, d_lp_r, g, g


def rotate_pairs_reflected(x, angles):
    """`encoder._rotate_pairs` with the odd output `even*sin - odd*cos`: a
    reflection, not a rotation."""
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[:, 0::2], x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = even * cos - odd * sin
    out[:, 1::2] = even * sin - odd * cos
    return out


_apply_rope_2d = encoder.apply_rope_2d


def apply_rope_2d_row_only(q_or_k, positions, config):
    """`encoder.apply_rope_2d` rotating both halves by the row coordinate."""
    return _apply_rope_2d(q_or_k, np.asarray(positions)[:, [0, 0]], config)


def apply_rope_2d_swapped_axes(q_or_k, positions, config):
    """`encoder.apply_rope_2d` rotating the first half by the column
    coordinate and the second half by the row."""
    return _apply_rope_2d(q_or_k, np.asarray(positions)[:, [1, 0]], config)


_block_diag_forward = encoder.block_diag_forward


def block_diag_forward_first_boundary_moved(packed, weights, rope):
    """`encoder.block_diag_forward` with the boundary between the first two
    samples moved one token right (the first sample takes one token of the
    second; a second sample of one token is absorbed)."""
    b = list(packed.sample_boundaries)
    if len(b) > 2:
        b[1] += 1
    moved = encoder.PatchSequence(packed.embeddings, packed.positions, tuple(sorted(set(b))))
    return _block_diag_forward(moved, weights, rope)


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


# Edits of `packing.pack_ffd` that `verify`'s ffd-opt sees as well as the
# fast-path corpus: three broken first-fit walks of its segment tree, and
# equal lengths left in input order rather than ordered by id.
_FFD_EDITS = {
    "gt-for-ge": ("free[2 * k] >= need", "free[2 * k] > need"),
    "right-first": (
        "k = 2 * k if free[2 * k] >= need else 2 * k + 1",
        "k = 2 * k + 1 if free[2 * k + 1] >= need else 2 * k",
    ),
    "upward-update-stops-at-once": ("if free[k] == room:", "if True:"),
    "id-presort-dropped": (
        "sorted([(s.id, s.total_tokens) for s in samples])",
        "[(s.id, s.total_tokens) for s in samples]",
    ),
}


MUTANTS = {
    "vet-grad-no-pa-term": Mutant(
        "vet-grad", vet, "vet_embed_grad", vet_embed_grad_without_pa_term
    ),
    "dpo-grad-plus-g": Mutant(
        "dpo-grad", objectives, "dpo_losses", dpo_losses_with_plus_g_reference_chosen
    ),
    "rope-reflection": Mutant("rope-relative", encoder, "_rotate_pairs", rotate_pairs_reflected),
    "rope-row-only": Mutant("rope-relative", encoder, "apply_rope_2d", apply_rope_2d_row_only),
    "rope-swapped-axes": Mutant(
        "rope-relative", encoder, "apply_rope_2d", apply_rope_2d_swapped_axes
    ),
    "pack-boundary-moved": Mutant(
        "pack-equiv", encoder, "block_diag_forward", block_diag_forward_first_boundary_moved
    ),
    "ffd-one-per-sequence": Mutant("ffd-opt", packing, "pack_ffd", pack_one_per_sequence),
    "ffd-next-fit": Mutant("ffd-opt", packing, "pack_ffd", pack_next_fit_decreasing),
    "ffd-unsorted-first-fit": Mutant("ffd-opt", packing, "pack_ffd", pack_first_fit_unsorted),
    **{
        f"ffd-{label}": Mutant("ffd-opt", packing, "pack_ffd", recompiled(packing, "pack_ffd", *e))
        for label, e in _FFD_EDITS.items()
    },
}


def oracle_line(seq):
    """The `pack` line of `seq`: `json.dumps` of its dict and per-token position ids."""
    _, positions = packing.build_attention_metadata(seq)
    return json.dumps({**seq.to_json_dict(), "position_ids": positions}, separators=(",", ":"))


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
    """Whether `cli._sequence_line` writes a line of the corpus other than
    `oracle_line` does."""
    return any(
        cli._sequence_line(seq, cli._position_runs(seq.capacity)) != oracle_line(seq)
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
    """`packing._json_record` by `json.loads` alone."""
    try:
        value = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as e:
        raise packing.ManifestError(f"invalid JSON: {e}") from e
    except ValueError as e:  # an integer beyond Python's digit limit
        raise packing.ManifestError(str(e)) from e
    return packing._record(value, allowed, what)


def _outcome(parse, line):
    """`repr` of the manifest record that `parse` makes of `line`, or the
    text of the `ManifestError` it raises."""
    try:
        return repr(parse(line, packing._MANIFEST_KEYS))
    except packing.ManifestError as e:
        return "error", str(e)


# The edge lines of the golden corpus as a file holds them, then without
# their newline, as the last line of a file or a conversation holds them,
# and empty text.
_JSON_CORPUS = [*EDGE_LINES, *(line[:-1] for line in EDGE_LINES if line[-1:] == "\n"), "", "\n"]


def json_record_differs():
    """Whether `packing._json_record` gives a line of the corpus another
    record, or another error, than `oracle_json_record` does."""
    return any(
        _outcome(packing._json_record, line) != _outcome(oracle_json_record, line)
        for line in _JSON_CORPUS
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


# (id, [(image index, plan)]) records: ids that JSON must escape, and
# grids that are not square.
_PLAN_CORPUS = [
    (record_id, [
        (index, ResizePlan(ImageSize(width, height), rows, cols, 16))
        for index, (width, height, rows, cols) in enumerate(images)
    ])
    for record_id, images in [
        ('say "hi"', [(640, 480, 30, 40)]),
        ("C:\\data\\img", [(100, 300, 42, 14), (2000, 50, 7, 126)]),
        ("café-日本-\U0001f600", [(1, 1, 28, 28)]),
        ("tab\tnew\nline\x01", [(300, 100, 16, 48)]),
        ("plain", [(4032, 3024, 84, 112), (224, 224, 28, 28), (3840, 2160, 63, 112)]),
    ]
]


def plan_lines_differ():
    """Whether `cli._plan_lines` writes a record of the corpus other than
    `oracle_plan_line` does, line for line."""
    return any(
        "".join(cli._plan_lines(record_id, plans))
        != "".join(oracle_plan_line(record_id, i, plan) + "\n" for i, plan in plans)
        for record_id, plans in _PLAN_CORPUS
    )


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


class FastPath(NamedTuple):
    module: object
    attr: str
    differs: Callable[[], bool]
    mutants: dict[str, tuple[str, str]]  # label: (text of the fast path, its mutant)


FAST_PATH_MUTANTS = {
    "cli._sequence_line": FastPath(cli, "_sequence_line", sequence_line_differs, {
        "pad-slice-one-id-short": ("(capacity - start) - 1]", "(capacity - start - 1) - 1]"),
        "id-slice-off-by-one": ("ids[: ends[length]]", "ids[: ends[length - 1]]"),
        "space-after-spliced-comma": ("}],'", "}], '"),
        "segment-start-off-by-one": ("{start},{length}]", "{start + 1},{length}]"),
        "cumulative-without-leading-zero": ('["0"]', "[]"),
    }),
    # Id 10 is the first of two digits: its width taken from id 9 leaves
    # `ends[11]` one short.
    "cli._position_runs": FastPath(cli, "_position_runs", sequence_line_differs, {
        "ends-width-of-previous-id": ("len(str(i))", "len(str(max(i - 1, 0)))"),
    }),
    "packing._json_record": FastPath(packing, "_json_record", json_record_differs, {
        "newline-unchecked": (
            '(end != len(line) - 1 or line[end] != "\\n")', "end != len(line) - 1"
        ),
        "trailing-space-accepted": (
            '(end != len(line) - 1 or line[end] != "\\n")', 'line[end] not in "\\n "'
        ),
    }),
    "packing.pack_ffd": FastPath(packing, "pack_ffd", pack_ffd_differs, {
        **_FFD_EDITS,
        "ascending-lengths": ("itemgetter(1), reverse=True", "itemgetter(1)"),
        "take-past-run-end": (
            "max(1, min(len(run) - start, free[k] // need))", "max(1, free[k] // need)"
        ),
        "take-past-free-room": (
            "max(1, min(len(run) - start, free[k] // need))", "max(1, len(run) - start)"
        ),
    }),
    "cli._plan_lines": FastPath(cli, "_plan_lines", plan_lines_differ, {
        "id-unescaped": ("json.dumps(record_id)", "f'\"{record_id}\"'"),
        "id-not-ascii-escaped": (
            "json.dumps(record_id)", "json.dumps(record_id, ensure_ascii=False)"
        ),
        "rows-for-cols": ('"grid_cols":{plan.grid_cols}', '"grid_cols":{plan.grid_rows}'),
    }),
    "geometry._fitting_row": FastPath(geometry, "_fitting_row", plan_differs, {
        "floor-for-ceil": ("-(-n_lo // q)", "n_lo // q"),
        "gt-for-ge-fit": ("if r >= first:", "if r > first:"),
        "down-past-next-q": ("n_hi // (q + 1)", "n_hi // (q + 2)"),
    }),
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


def run_verify(*argv):
    """`(exit status, {check: status}, stderr)` of `cli.main(argv)`, run in
    this process so that a monkeypatched mutant is the code it runs."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    statuses = {line.split()[0]: line.split()[1] for line in out.getvalue().splitlines()}
    return code, statuses, err.getvalue()
