"""Toy native-resolution encoder pieces.

Single-head, single-block, double-precision building blocks: 2D rotary
position embeddings split across the row/column axes, bilinear
interpolation of a learned position table, and scaled dot-product
attention over a packed sequence, computed block by block so no score
crosses a sample boundary. The point is verifiable mechanisms, not
model quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

__all__ = [
    "AttentionParams",
    "DisabledRope",
    "LearnedPosTable",
    "PatchSequence",
    "RopeConfig",
    "apply_rope_2d",
    "block_diag_forward",
    "interpolate_pos_table",
    "rope_dot_relative",
]

# Most score entries one query tile of block_diag_forward holds (1 MiB of
# float64), whatever the block length.
_TILE_ENTRIES = 1 << 17


class DisabledRope(RuntimeError):
    """Rotary embedding was applied while disabled; callers must skip instead."""


@dataclass(frozen=True)
class RopeConfig:
    """Rotary embedding setup for 2D positions.

    `axis_split` is the fraction of head dimensions rotated by the row
    coordinate; the rest rotate by the column coordinate. Both partitions
    must come out even so they pair up for rotation.
    """

    d_head: int
    base: float = 10000.0
    enabled: bool = True
    axis_split: float = 0.5

    def __post_init__(self) -> None:
        if self.d_head < 2 or self.d_head % 2:
            raise ValueError(f"d_head must be a positive even integer, got {self.d_head}")
        if not 0.0 < self.axis_split < 1.0:
            raise ValueError(f"axis_split must lie in (0, 1), got {self.axis_split}")
        if self.base <= 0.0:
            raise ValueError(f"base must be positive, got {self.base}")
        d_row = self.axis_split * self.d_head
        if abs(d_row - round(d_row)) > 1e-9 or round(d_row) % 2:
            raise ValueError(
                f"axis_split {self.axis_split} of d_head {self.d_head} must give an "
                f"even row sub-dimension, got {d_row}"
            )
        if (self.d_head - round(d_row)) % 2:
            raise ValueError("column sub-dimension must be even")

    @property
    def d_row(self) -> int:
        return round(self.axis_split * self.d_head)

    @property
    def d_col(self) -> int:
        return self.d_head - self.d_row


@dataclass(frozen=True)
class LearnedPosTable:
    """Learned absolute position embeddings on a fixed patch grid."""

    grid_rows: int
    grid_cols: int
    table: np.ndarray  # (grid_rows * grid_cols, d_model)

    def __post_init__(self) -> None:
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid must have at least one cell per side")
        if self.table.ndim != 2 or self.table.shape[0] != self.grid_rows * self.grid_cols:
            raise ShapeMismatch(
                f"table has {self.table.shape} rows, expected "
                f"{self.grid_rows * self.grid_cols}"
            )


@dataclass(frozen=True)
class PatchSequence:
    """Packed patch features with their 2D positions and sample boundaries.

    `sample_boundaries` are cumulative token offsets: starts at 0, ends at
    the token count, strictly ascending (no empty samples).
    """

    embeddings: np.ndarray  # (n_tokens, d_model)
    positions: np.ndarray  # (n_tokens, 2) of (row, col)
    sample_boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.embeddings.ndim != 2:
            raise ShapeMismatch(f"embeddings must be 2D, got shape {self.embeddings.shape}")
        n = self.embeddings.shape[0]
        pos = np.asarray(self.positions)
        if pos.shape != (n, 2):
            raise ShapeMismatch(f"positions shape {pos.shape} != ({n}, 2)")
        if n and pos.min() < 0:
            raise ValueError("positions must be non-negative")
        b = self.sample_boundaries
        if not b or b[0] != 0 or b[-1] != n:
            raise ValueError(f"boundaries must run 0..{n}, got {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"boundaries must be strictly ascending, got {b}")


@dataclass(frozen=True)
class AttentionParams:
    """Projection matrices for one attention head."""

    wq: np.ndarray  # (d_model, d_head)
    wk: np.ndarray  # (d_model, d_head)
    wv: np.ndarray  # (d_model, d_head)
    wo: np.ndarray  # (d_head, d_model)

    def __post_init__(self) -> None:
        d_model, d_head = self.wq.shape
        for name, mat, shape in (
            ("wk", self.wk, (d_model, d_head)),
            ("wv", self.wv, (d_model, d_head)),
            ("wo", self.wo, (d_head, d_model)),
        ):
            if mat.shape != shape:
                raise ShapeMismatch(f"{name} has shape {mat.shape}, expected {shape}")

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


def _axis_angles(coords: np.ndarray, d_axis: int, base: float) -> np.ndarray:
    """Rotation angles theta_i * coord with theta_i = base^(-2i/d_axis)."""
    freqs = base ** (-2.0 * np.arange(d_axis // 2) / d_axis)
    return np.asarray(coords, dtype=np.float64)[:, None] * freqs[None, :]


def _rotate_pairs(x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive (2i, 2i+1) pairs of x by the given angles."""
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[:, 0::2], x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = even * cos - odd * sin
    out[:, 1::2] = even * sin + odd * cos
    return out


def apply_rope_2d(q_or_k: np.ndarray, positions: np.ndarray, config: RopeConfig) -> np.ndarray:
    """Rotate each token's vector by its (row, col) position.

    The first `config.d_row` dimensions rotate pairwise by angles
    proportional to the row coordinate, the remainder by the column
    coordinate. Rotations preserve vector norms, and dot products between
    rotated vectors depend on positions only through their offset.
    """
    if not config.enabled:
        raise DisabledRope("rotary embedding is disabled; skip the call instead")
    x = np.asarray(q_or_k, dtype=np.float64)
    pos = np.asarray(positions)
    if x.ndim != 2 or x.shape[1] != config.d_head:
        raise ShapeMismatch(f"expected (n, {config.d_head}) vectors, got {x.shape}")
    if pos.shape != (x.shape[0], 2):
        raise ShapeMismatch(f"positions shape {pos.shape} != ({x.shape[0]}, 2)")
    out = np.empty_like(x)
    out[:, : config.d_row] = _rotate_pairs(
        x[:, : config.d_row], _axis_angles(pos[:, 0], config.d_row, config.base)
    )
    out[:, config.d_row :] = _rotate_pairs(
        x[:, config.d_row :], _axis_angles(pos[:, 1], config.d_col, config.base)
    )
    return out


def rope_dot_relative(
    q: np.ndarray,
    k: np.ndarray,
    p_q: tuple[int, int],
    p_k: tuple[int, int],
    config: RopeConfig,
) -> float:
    """Dot product of q and k after rotating each to its own position.

    Depends on (p_q - p_k) only; equal positions reduce to the plain
    dot product.
    """
    rq = apply_rope_2d(np.asarray(q, dtype=np.float64)[None, :], np.array([p_q]), config)
    rk = apply_rope_2d(np.asarray(k, dtype=np.float64)[None, :], np.array([p_k]), config)
    return float(rq[0] @ rk[0])


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
    long block. The 1/sqrt(d_head) scale is folded into the queries once,
    and each row is normalised by its softmax sum after the value
    product, so a tile's n x n scores take no multiply or divide pass.
    An empty sequence gives an empty (0, d_model) result.
    """
    x = np.asarray(packed.embeddings, dtype=np.float64)
    if x.shape[1] != weights.d_model:
        raise ShapeMismatch(
            f"embeddings have d_model {x.shape[1]}, weights expect {weights.d_model}"
        )
    q = x @ weights.wq
    k = x @ weights.wk
    v = x @ weights.wv
    if rope.enabled:
        q = apply_rope_2d(q, packed.positions, rope)
        k = apply_rope_2d(k, packed.positions, rope)
    # In place: `q` is a fresh array, and a scaled copy would add its size
    # to peak memory.
    q *= 1.0 / np.sqrt(weights.d_head)

    heads = np.empty_like(v)
    b = packed.sample_boundaries
    for lo, hi in zip(b[:-1], b[1:]):
        k_block, v_block = k[lo:hi], v[lo:hi]
        tile_rows = max(1, _TILE_ENTRIES // (hi - lo))
        for start in range(lo, hi, tile_rows):
            stop = min(start + tile_rows, hi)
            scores = q[start:stop] @ k_block.T
            scores -= scores.max(axis=1, keepdims=True)
            np.exp(scores, out=scores)
            heads[start:stop] = (scores @ v_block) / scores.sum(axis=1, keepdims=True)
    return heads @ weights.wo
