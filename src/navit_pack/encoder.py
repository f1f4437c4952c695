"""Toy native-resolution encoder pieces.

Single-head, single-block, double-precision building blocks: 2D rotary
position embeddings (half the head dimensions for rows, half for
columns), bilinear interpolation of a learned position table, and
scaled dot-product attention over a packed sequence, computed block by
block so no score crosses a sample boundary. The point is verifiable
mechanisms, not model quality.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
from collections import namedtuple

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch
from .records import _Value

__all__ = [
    "AttentionParams",
    "LearnedPosTable",
    "PatchSequence",
    "RopeConfig",
    "apply_rope_2d",
    "block_diag_forward",
    "interpolate_pos_table",
]

# Most score entries one query tile of block_diag_forward holds (1 MiB of
# float64), whatever the block length.
_TILE_ENTRIES = 1 << 17


# A tile whose shifted row sums are not all above this is redone with the
# exact row max: its largest terms may have left the normal float range.
_SUM_FLOOR = 1e-200


# Environment variables that set OpenBLAS's thread count, in the order it
# reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


# Base of the rotary frequencies, as in RoFormer.
_ROPE_BASE = 10000.0


class RopeConfig(namedtuple("RopeConfig", "d_head"), _Value):
    """Rotary embedding setup for 2D positions.

    The first half of the head dimensions rotate by the row coordinate and
    the second half by the column coordinate, each half in consecutive
    (2i, 2i+1) pairs with base 10^4, so `d_head` must be a positive
    multiple of 4.
    """

    __slots__ = ()

    def __new__(cls, d_head: int) -> RopeConfig:
        if not isinstance(d_head, (int, np.integer)):
            raise TypeError(f"d_head must be an integer, got {d_head!r}")
        if d_head < 4 or d_head % 4:
            raise ValueError(f"d_head must be a positive multiple of 4, got {d_head}")
        return tuple.__new__(cls, (d_head,))


class LearnedPosTable(namedtuple("LearnedPosTable", "grid_rows grid_cols table"), _Value):
    """Learned absolute position embeddings on a fixed patch grid."""

    __slots__ = ()

    def __new__(
        cls,
        grid_rows: int,
        grid_cols: int,
        table: np.ndarray,  # (grid_rows * grid_cols, d_model)
    ) -> LearnedPosTable:
        if grid_rows < 1 or grid_cols < 1:
            raise ValueError("grid must have at least one cell per side")
        if table.ndim != 2 or table.shape[0] != grid_rows * grid_cols:
            raise ShapeMismatch(
                f"table has {table.shape} rows, expected {grid_rows * grid_cols}"
            )
        return tuple.__new__(cls, (grid_rows, grid_cols, table))


class PatchSequence(
    namedtuple("PatchSequence", "embeddings positions sample_boundaries"), _Value
):
    """Packed finite patch features with their finite, non-negative 2D
    positions and sample boundaries.

    `sample_boundaries` are cumulative token offsets: starts at 0, ends at
    the token count, strictly ascending (no empty samples).
    """

    __slots__ = ()

    def __new__(
        cls,
        embeddings: np.ndarray,  # (n_tokens, d_model)
        positions: np.ndarray,  # (n_tokens, 2) of (row, col)
        sample_boundaries: tuple[int, ...],
    ) -> PatchSequence:
        if embeddings.ndim != 2:
            raise ShapeMismatch(f"embeddings must be 2D, got shape {embeddings.shape}")
        n = embeddings.shape[0]
        pos = np.asarray(positions)
        if pos.shape != (n, 2):
            raise ShapeMismatch(f"positions shape {pos.shape} != ({n}, 2)")
        if not np.isfinite(embeddings).all():
            raise NonFiniteInput("embeddings contain non-finite entries")
        if n and pos.min() < 0:
            raise ValueError("positions must be non-negative")
        if not np.isfinite(pos).all():
            raise NonFiniteInput("positions contain non-finite entries")
        b = sample_boundaries
        if not b or b[0] != 0 or b[-1] != n:
            raise ValueError(f"boundaries must run 0..{n}, got {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"boundaries must be strictly ascending, got {b}")
        return tuple.__new__(cls, (embeddings, positions, sample_boundaries))


class AttentionParams(namedtuple("AttentionParams", "wq wk wv wo"), _Value):
    """Finite projection matrices for one attention head: `wq`, `wk` and
    `wv` are (d_model, d_head), `wo` is (d_head, d_model)."""

    __slots__ = ()

    def __new__(
        cls, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray, wo: np.ndarray
    ) -> AttentionParams:
        if wq.ndim != 2:
            raise ShapeMismatch(f"wq must be 2D, got shape {wq.shape}")
        d_model, d_head = wq.shape
        for name, mat, shape in (
            ("wk", wk, (d_model, d_head)),
            ("wv", wv, (d_model, d_head)),
            ("wo", wo, (d_head, d_model)),
        ):
            if mat.shape != shape:
                raise ShapeMismatch(f"{name} has shape {mat.shape}, expected {shape}")
        for name, mat in zip(cls._fields, (wq, wk, wv, wo)):
            if not np.isfinite(mat).all():
                raise NonFiniteInput(f"{name} contains non-finite entries")
        return tuple.__new__(cls, (wq, wk, wv, wo))

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @property
    def d_head(self) -> int:
        return self.wq.shape[1]

    @classmethod
    def random(cls, d_model: int, d_head: int, rng: np.random.Generator) -> "AttentionParams":
        scale = 1.0 / np.sqrt(d_model)
        return cls(
            wq=rng.normal(0.0, scale, (d_model, d_head)),
            wk=rng.normal(0.0, scale, (d_model, d_head)),
            wv=rng.normal(0.0, scale, (d_model, d_head)),
            wo=rng.normal(0.0, scale, (d_head, d_model)),
        )


def _rotate_pairs(x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive (2i, 2i+1) pairs of x by the given angles."""
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    re, im = out[..., 0::2], out[..., 1::2]
    np.multiply(even, cos, out=re)
    re -= odd * sin
    np.multiply(even, sin, out=im)
    im += odd * cos
    return out


def apply_rope_2d(q_or_k: np.ndarray, positions: np.ndarray, config: RopeConfig) -> np.ndarray:
    """Rotate each token's vector by its (row, col) position.

    Pair i = (2i, 2i+1) of each half of the head dimensions rotates by
    theta_i * coordinate, theta_i = 10^4^(-2i / (d_head / 2)): the first
    half by the row coordinate, the second half by the column coordinate.
    Rotations preserve vector norms, dot products between rotated vectors
    depend on positions only through their offset, and position (0, 0) is
    the exact identity, so all-zero positions give plain attention.

    `q_or_k` is (n, d_head), or a (stack, n, d_head) stack of such arrays
    that share the n positions, such as q and k of one sequence: each
    slice comes out as its own call would give it, and the angles, cos
    and sin are computed once for the whole stack.
    """
    x = np.asarray(q_or_k, dtype=np.float64)
    pos = np.asarray(positions, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != config.d_head:
        raise ShapeMismatch(f"expected (n, {config.d_head}) vectors, got {x.shape}")
    n = x.shape[-2]
    if pos.shape != (n, 2):
        raise ShapeMismatch(f"positions shape {pos.shape} != ({n}, 2)")
    d_axis = config.d_head // 2
    freqs = _ROPE_BASE ** (-2.0 * np.arange(d_axis // 2) / d_axis)
    return _rotate_pairs(x, (pos[:, :, None] * freqs).reshape(n, d_axis))


def interpolate_pos_table(
    src: LearnedPosTable, target_rows: int, target_cols: int
) -> LearnedPosTable:
    """Bilinearly resample a learned position grid to a new grid shape.

    Each channel is treated as a 2D field with grid corners aligned, so
    every output cell is a convex combination of source cells and a
    same-shape target is a bitwise copy.
    """
    if target_rows < 1 or target_cols < 1:
        raise ValueError("target grid must have at least one cell per side")
    if (target_rows, target_cols) == (src.grid_rows, src.grid_cols):
        return LearnedPosTable(target_rows, target_cols, src.table.copy())

    field2d = np.asarray(src.table, dtype=np.float64).reshape(
        src.grid_rows, src.grid_cols, -1
    )

    def axis_coords(n_target: int, n_source: int) -> np.ndarray:
        if n_target == 1:
            return np.array([(n_source - 1) / 2.0])
        return np.arange(n_target) * (n_source - 1) / (n_target - 1)

    r = axis_coords(target_rows, src.grid_rows)
    c = axis_coords(target_cols, src.grid_cols)
    r0 = np.minimum(np.floor(r).astype(int), src.grid_rows - 1)
    c0 = np.minimum(np.floor(c).astype(int), src.grid_cols - 1)
    r1 = np.minimum(r0 + 1, src.grid_rows - 1)
    c1 = np.minimum(c0 + 1, src.grid_cols - 1)
    fr = (r - r0)[:, None, None]
    fc = (c - c0)[None, :, None]

    out = (
        field2d[np.ix_(r0, c0)] * (1 - fr) * (1 - fc)
        + field2d[np.ix_(r0, c1)] * (1 - fr) * fc
        + field2d[np.ix_(r1, c0)] * fr * (1 - fc)
        + field2d[np.ix_(r1, c1)] * fr * fc
    )
    return LearnedPosTable(
        target_rows, target_cols, out.reshape(target_rows * target_cols, -1)
    )


def _workers() -> int:
    """Threads `block_diag_forward` may run its tiles on: the CPUs this
    process may use over the threads each BLAS call takes.

    OpenBLAS takes the first of `_BLAS_THREAD_VARS` that C's `atoi` reads
    as a positive count, and every CPU when none does, so with BLAS
    unpinned this is 1.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for name in _BLAS_THREAD_VARS:
        count = re.match(r"\s*[+-]?\d+", os.environ.get(name, ""))
        if count and int(count.group()) > 0:
            return max(1, (cpus or 1) // int(count.group()))
    return 1


def _in_parallel(run, items: list, workers: int) -> None:
    """Call `run(*item)` for each of `items` on `workers` threads, the
    caller and `workers - 1` helpers, each taking the next item no thread
    has taken yet.

    Helpers run under the caller's numpy error state. Once a thread
    raises, no thread starts another item, and the first exception is
    raised here after every helper has stopped.
    """
    # Each index goes to one thread: `next` on a count runs under the
    # interpreter lock from start to end.
    taken = itertools.count()
    failures = []
    state, call = np.geterr(), np.geterrcall()

    def work() -> None:
        try:
            for i in taken:
                if i >= len(items) or failures:
                    break
                run(*items[i])
        except BaseException as error:
            failures.append(error)

    def helper() -> None:
        with np.errstate(call=call, **state):
            work()

    helpers = [threading.Thread(target=helper) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[0]


def block_diag_forward(
    packed: PatchSequence, weights: AttentionParams, rope: RopeConfig
) -> np.ndarray:
    """Single-head attention over a packed sequence, blocked per sample.

    Tokens attend only within their own sample's block: each block's
    queries are scored against that block's keys alone, so the work is
    the sum of squared block lengths rather than the square of the
    sequence length, and each sample's output rows equal an isolated
    forward on that sample. Query rows go in tiles of at most
    `_TILE_ENTRIES` (2^17) scores, which bounds the working memory of a
    long block. An empty sequence gives an empty (0, d_model) result.

    q and k are rotated in one `apply_rope_2d` call. The softmax of row i
    is shifted by m_i = |q_i| * max |k_j| / sqrt(d_head) over the keys j
    of its block, which by Cauchy-Schwarz is at least every score of the
    row and depends on that block alone. The 1/sqrt(d_head) scale and the
    shift are folded into the queries, the shift as one extra column of
    -m_i against a column of ones on the keys, so a tile's scores take
    four passes: the score product, an in-place exp, the row sum and the
    value product, after which each row is divided by its sum. A tile
    with a row sum not above `_SUM_FLOOR` (a shift so far above the row's
    largest score that its largest term leaves the normal range, or a
    non-finite input) is redone with the exact row max as the shift,
    which gives non-finite inputs the rows of a plain max-shifted softmax.

    The tiles are independent, and each is computed the same way whichever
    thread runs it, so the result is bit for bit the same for any number
    of workers. There are as many workers as `_workers()` gives (the
    usable CPUs over the BLAS threads, so 1 unless BLAS is pinned to fewer
    threads than there are CPUs), but no more than there are whole tiles
    of `_TILE_ENTRIES` scores in the sequence's sum of squared block
    lengths. With two or more, the caller and its helper threads each take
    the next tile not yet taken; with one, the caller runs every tile.
    """
    x = np.asarray(packed.embeddings, dtype=np.float64)
    if x.shape[1] != weights.d_model:
        raise ShapeMismatch(
            f"embeddings have d_model {x.shape[1]}, weights expect {weights.d_model}"
        )
    d = weights.d_head
    q, k = apply_rope_2d(np.stack((x @ weights.wq, x @ weights.wk)), packed.positions, rope)
    b = packed.sample_boundaries
    lengths = np.diff(b)
    key_max = np.repeat(np.maximum.reduceat(np.linalg.norm(k, axis=1), b[:-1]), lengths)
    scale = 1.0 / np.sqrt(d)
    # Scaled queries with a last column of -m_i, keys with a last column of
    # 1; rebinding both frees the rotated stack.
    q = np.hstack((q * scale, (np.linalg.norm(q, axis=1) * key_max * -scale)[:, None]))
    k = np.hstack((k, np.ones((len(k), 1))))
    v = x @ weights.wv

    heads = np.empty_like(v)

    def attend(lo: int, hi: int, start: int, stop: int) -> None:
        k_block, v_block = k[lo:hi], v[lo:hi]
        scores = q[start:stop] @ k_block.T
        np.exp(scores, out=scores)
        sums = scores.sum(axis=1, keepdims=True)
        if not (sums > _SUM_FLOOR).all():
            scores = q[start:stop, :d] @ k_block[:, :d].T
            scores -= scores.max(axis=1, keepdims=True)
            np.exp(scores, out=scores)
            sums = scores.sum(axis=1, keepdims=True)
        heads[start:stop] = (scores @ v_block) / sums

    def tiles():
        for lo, hi in zip(b[:-1], b[1:]):
            tile_rows = max(1, _TILE_ENTRIES // (hi - lo))
            for start in range(lo, hi, tile_rows):
                yield lo, hi, start, min(start + tile_rows, hi)

    whole_tiles = int(lengths @ lengths) // _TILE_ENTRIES
    workers = min(_workers(), whole_tiles) if whole_tiles > 1 else 1
    if workers > 1:
        _in_parallel(attend, list(tiles()), workers)
    else:
        for tile in tiles():
            attend(*tile)
    return heads @ weights.wo
