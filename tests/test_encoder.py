"""Rotary embeddings, position-table interpolation, and packed attention."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from navit_pack.encoder import (
    _TILE_ENTRIES,
    AttentionParams,
    DisabledRope,
    LearnedPosTable,
    PatchSequence,
    RopeConfig,
    apply_rope_2d,
    block_diag_forward,
    interpolate_pos_table,
    rope_dot_relative,
)
from navit_pack import encoder
from navit_pack.errors import ShapeMismatch
from navit_pack.selfcheck import _dense_block_attention, check_pack_equiv


def plain_attention(x, params):
    """Unmasked single-head attention, written independently of the encoder."""
    q = x @ params.wq
    k = x @ params.wk
    v = x @ params.wv
    scores = q @ k.T / np.sqrt(params.d_head)
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ v @ params.wo


class TestRopeConfig:
    def test_defaults(self):
        cfg = RopeConfig(d_head=8)
        assert cfg.d_row == 4 and cfg.d_col == 4 and cfg.base == 10000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d_head": 7},
            {"d_head": 8, "axis_split": 0.3},  # 2.4 row dims
            {"d_head": 6, "axis_split": 0.5},  # odd halves
            {"d_head": 8, "axis_split": 1.5},
            {"d_head": 8, "base": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RopeConfig(**kwargs)

    def test_uneven_split(self):
        cfg = RopeConfig(d_head=8, axis_split=0.25)
        assert cfg.d_row == 2 and cfg.d_col == 6


class TestApplyRope:
    def test_zero_position_identity_exact(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(5, 8))
        out = apply_rope_2d(v, np.zeros((5, 2), dtype=int), RopeConfig(d_head=8))
        assert np.array_equal(out, v)

    def test_hand_computed_rotation(self):
        out = apply_rope_2d(
            np.array([[1.0, 0.0, 1.0, 0.0]]), np.array([[1, 0]]), RopeConfig(d_head=4)
        )
        np.testing.assert_allclose(
            out[0], [np.cos(1.0), np.sin(1.0), 1.0, 0.0], atol=1e-15
        )

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        cfg = RopeConfig(d_head=16)
        v = rng.normal(size=(300, 16)) * rng.uniform(0.1, 10.0, size=(300, 1))
        pos = rng.integers(0, 100, (300, 2))
        np.testing.assert_allclose(
            np.linalg.norm(apply_rope_2d(v, pos, cfg), axis=1),
            np.linalg.norm(v, axis=1),
            atol=1e-12,
        )

    def test_axis_factorization(self):
        # Column coordinate zero leaves the column half untouched.
        rng = np.random.default_rng(2)
        cfg = RopeConfig(d_head=8)
        v = rng.normal(size=(4, 8))
        out = apply_rope_2d(v, np.array([[3, 0]] * 4), cfg)
        np.testing.assert_array_equal(out[:, cfg.d_row :], v[:, cfg.d_row :])
        out = apply_rope_2d(v, np.array([[0, 5]] * 4), cfg)
        np.testing.assert_array_equal(out[:, : cfg.d_row], v[:, : cfg.d_row])

    def test_disabled_raises(self):
        cfg = RopeConfig(d_head=4, enabled=False)
        with pytest.raises(DisabledRope):
            apply_rope_2d(np.ones((1, 4)), np.zeros((1, 2), dtype=int), cfg)

    def test_shape_mismatch(self):
        cfg = RopeConfig(d_head=4)
        with pytest.raises(ShapeMismatch):
            apply_rope_2d(np.ones((2, 6)), np.zeros((2, 2), dtype=int), cfg)
        with pytest.raises(ShapeMismatch):
            apply_rope_2d(np.ones((2, 4)), np.zeros((3, 2), dtype=int), cfg)


class TestRelativeProperty:
    def test_equal_positions_plain_dot(self):
        rng = np.random.default_rng(3)
        cfg = RopeConfig(d_head=8)
        q, k = rng.normal(size=8), rng.normal(size=8)
        assert rope_dot_relative(q, k, (4, 9), (4, 9), cfg) == pytest.approx(
            float(q @ k), abs=1e-12
        )

    def test_translation_invariance_example(self):
        rng = np.random.default_rng(4)
        cfg = RopeConfig(d_head=8)
        q, k = rng.normal(size=8), rng.normal(size=8)
        a = rope_dot_relative(q, k, (2, 3), (1, 1), cfg)
        b = rope_dot_relative(q, k, (5, 7), (4, 5), cfg)
        assert a == pytest.approx(b, abs=1e-9)

    def test_translation_invariance_many(self):
        rng = np.random.default_rng(5)
        cfg = RopeConfig(d_head=8)
        for _ in range(300):
            q, k = rng.normal(size=8), rng.normal(size=8)
            p_q, p_k = rng.integers(0, 64, 2), rng.integers(0, 64, 2)
            t = rng.integers(0, 64, 2)
            a = rope_dot_relative(q, k, tuple(p_q), tuple(p_k), cfg)
            b = rope_dot_relative(q, k, tuple(p_q + t), tuple(p_k + t), cfg)
            assert abs(a - b) < 1e-9

    def test_self_dot_bounded_by_norm(self):
        rng = np.random.default_rng(6)
        cfg = RopeConfig(d_head=8)
        q = rng.normal(size=8)
        norm_sq = float(q @ q)
        assert rope_dot_relative(q, q, (3, 4), (3, 4), cfg) == pytest.approx(norm_sq)
        for offset in [(1, 0), (0, 1), (5, 9)]:
            p_k = (10, 10)
            p_q = (10 + offset[0], 10 + offset[1])
            assert rope_dot_relative(q, q, p_q, p_k, cfg) <= norm_sq + 1e-12


class TestInterpolation:
    def test_identity_bitwise(self):
        rng = np.random.default_rng(7)
        src = LearnedPosTable(4, 5, rng.normal(size=(20, 6)))
        out = interpolate_pos_table(src, 4, 5)
        assert np.array_equal(out.table, src.table)

    def test_bilinear_center_of_corners(self):
        src = LearnedPosTable(2, 2, np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = interpolate_pos_table(src, 3, 3)
        grid = out.table.reshape(3, 3)
        assert grid[1, 1] == pytest.approx(2.5)
        # corners copy through exactly
        assert grid[0, 0] == 1.0 and grid[0, 2] == 2.0
        assert grid[2, 0] == 3.0 and grid[2, 2] == 4.0

    def test_constant_field_stays_constant(self):
        src = LearnedPosTable(4, 4, np.full((16, 3), 7.25))
        for rows, cols in [(1, 1), (2, 9), (11, 5)]:
            out = interpolate_pos_table(src, rows, cols)
            np.testing.assert_allclose(out.table, 7.25, atol=1e-12)

    def test_weights_are_convex(self):
        # Identity channels expose the interpolation weights directly.
        rows, cols = 3, 4
        src = LearnedPosTable(rows, cols, np.eye(rows * cols))
        for target in [(1, 1), (2, 2), (5, 7), (3, 4), (9, 2)]:
            out = interpolate_pos_table(src, *target)
            assert out.table.min() >= -1e-15
            np.testing.assert_allclose(out.table.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_target_rejected(self):
        src = LearnedPosTable(2, 2, np.zeros((4, 1)))
        with pytest.raises(ValueError):
            interpolate_pos_table(src, 0, 3)


def make_packed(rng, lengths, d_model):
    n = sum(lengths)
    boundaries = [0]
    for length in lengths:
        boundaries.append(boundaries[-1] + length)
    return PatchSequence(
        embeddings=rng.normal(size=(n, d_model)),
        positions=rng.integers(0, 32, (n, 2)),
        sample_boundaries=tuple(boundaries),
    )


class TestBlockDiagonal:
    def test_single_sample_equals_plain_attention(self):
        rng = np.random.default_rng(8)
        params = AttentionParams.random(6, 8, rng)
        packed = make_packed(rng, [9], 6)
        out = block_diag_forward(packed, params, RopeConfig(d_head=8, enabled=False))
        np.testing.assert_allclose(out, plain_attention(packed.embeddings, params), atol=1e-12)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_packed_matches_isolated(self, enabled):
        rng = np.random.default_rng(9)
        params = AttentionParams.random(6, 8, rng)
        rope = RopeConfig(d_head=8, enabled=enabled)
        packed = make_packed(rng, [4, 7, 1, 5], 6)
        out = block_diag_forward(packed, params, rope)
        b = packed.sample_boundaries
        for i in range(len(b) - 1):
            lo, hi = b[i], b[i + 1]
            alone = _dense_block_attention(
                PatchSequence(
                    embeddings=packed.embeddings[lo:hi],
                    positions=packed.positions[lo:hi],
                    sample_boundaries=(0, hi - lo),
                ),
                params,
                rope,
            )
            np.testing.assert_allclose(out[lo:hi], alone, atol=1e-6)

    def test_two_samples_against_plain_oracle(self):
        rng = np.random.default_rng(10)
        params = AttentionParams.random(5, 4, rng)
        packed = make_packed(rng, [3, 6], 5)
        out = block_diag_forward(packed, params, RopeConfig(d_head=4, enabled=False))
        np.testing.assert_allclose(
            out[:3], plain_attention(packed.embeddings[:3], params), atol=1e-6
        )
        np.testing.assert_allclose(
            out[3:], plain_attention(packed.embeddings[3:], params), atol=1e-6
        )

    def test_singleton_blocks_are_local(self):
        rng = np.random.default_rng(11)
        params = AttentionParams.random(4, 4, rng)
        rope = RopeConfig(d_head=4, enabled=False)
        x = rng.normal(size=(3, 4))
        packed = PatchSequence(
            embeddings=x, positions=np.zeros((3, 2), int), sample_boundaries=(0, 1, 2, 3)
        )
        out = block_diag_forward(packed, params, rope)
        perturbed = x.copy()
        perturbed[1] += 10.0
        out2 = block_diag_forward(
            PatchSequence(
                embeddings=perturbed,
                positions=np.zeros((3, 2), int),
                sample_boundaries=(0, 1, 2, 3),
            ),
            params,
            rope,
        )
        np.testing.assert_array_equal(out[0], out2[0])
        np.testing.assert_array_equal(out[2], out2[2])
        # each singleton row is just x Wv Wo
        np.testing.assert_allclose(out, x @ params.wv @ params.wo, atol=1e-12)

    def test_positions_unused_when_rope_disabled(self):
        rng = np.random.default_rng(12)
        params = AttentionParams.random(4, 4, rng)
        rope = RopeConfig(d_head=4, enabled=False)
        x = rng.normal(size=(7, 4))
        base = PatchSequence(
            embeddings=x,
            positions=rng.integers(0, 9, (7, 2)),
            sample_boundaries=(0, 4, 7),
        )
        shuffled = PatchSequence(
            embeddings=x,
            positions=rng.permutation(np.asarray(base.positions)),
            sample_boundaries=(0, 4, 7),
        )
        np.testing.assert_array_equal(
            block_diag_forward(base, params, rope),
            block_diag_forward(shuffled, params, rope),
        )

    def test_shape_mismatch(self):
        rng = np.random.default_rng(13)
        params = AttentionParams.random(4, 4, rng)
        packed = make_packed(rng, [3], 6)
        with pytest.raises(ShapeMismatch):
            block_diag_forward(packed, params, RopeConfig(d_head=4, enabled=False))

    def test_empty_sequence(self):
        rng = np.random.default_rng(14)
        params = AttentionParams.random(6, 4, rng)
        packed = PatchSequence(
            embeddings=np.zeros((0, 6)), positions=np.zeros((0, 2), int), sample_boundaries=(0,)
        )
        for enabled in (False, True):
            out = block_diag_forward(packed, params, RopeConfig(d_head=4, enabled=enabled))
            assert out.shape == (0, 6)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_long_block_spans_row_tiles(self, enabled):
        n = 1500
        assert math.ceil(n / (_TILE_ENTRIES // n)) == 18
        rng = np.random.default_rng(15)
        params = AttentionParams.random(8, 8, rng)
        rope = RopeConfig(d_head=8, enabled=enabled)
        packed = make_packed(rng, [n], 8)
        np.testing.assert_allclose(
            block_diag_forward(packed, params, rope),
            _dense_block_attention(packed, params, rope),
            rtol=0,
            atol=1e-9,
        )

    @pytest.mark.parametrize("enabled", [False, True])
    def test_long_and_singleton_blocks(self, enabled):
        rng = np.random.default_rng(16)
        params = AttentionParams.random(8, 8, rng)
        rope = RopeConfig(d_head=8, enabled=enabled)
        packed = make_packed(rng, [1, 1100, 1, 1, 1300, 37, 1], 8)
        np.testing.assert_allclose(
            block_diag_forward(packed, params, rope),
            _dense_block_attention(packed, params, rope),
            rtol=0,
            atol=1e-9,
        )

    def test_long_block_memory_is_tiled(self):
        # The dense 4096 x 4096 float64 score matrix alone would be 128 MiB.
        rng = np.random.default_rng(17)
        params = AttentionParams.random(32, 32, rng)
        packed = make_packed(rng, [4096], 32)
        tracemalloc.start()
        try:
            block_diag_forward(packed, params, RopeConfig(d_head=32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("later_tiles", [1.0, 1.01])
    def test_verify_catches_a_later_tile_bug(self, monkeypatch, later_tiles):
        # A copy of block_diag_forward whose row sums are off by a factor on
        # every tile after a block's first: 1.0 is the faithful copy.
        def forward(packed, weights, rope):
            x = packed.embeddings
            q, k, v = x @ weights.wq, x @ weights.wk, x @ weights.wv
            if rope.enabled:
                q = apply_rope_2d(q, packed.positions, rope)
                k = apply_rope_2d(k, packed.positions, rope)
            q = q / np.sqrt(weights.d_head)
            heads = np.empty_like(v)
            b = packed.sample_boundaries
            for lo, hi in zip(b[:-1], b[1:]):
                tile_rows = max(1, _TILE_ENTRIES // (hi - lo))
                for start in range(lo, hi, tile_rows):
                    stop = min(start + tile_rows, hi)
                    scores = q[start:stop] @ k[lo:hi].T
                    scores = np.exp(scores - scores.max(axis=1, keepdims=True))
                    total = scores.sum(axis=1, keepdims=True)
                    if start > lo:
                        total = total * later_tiles
                    heads[start:stop] = (scores @ v[lo:hi]) / total
            return heads @ weights.wo

        monkeypatch.setattr(encoder, "block_diag_forward", forward)
        assert check_pack_equiv(0).passed == (later_tiles == 1.0)

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
    def test_packed_equivalence_property(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        params = AttentionParams.random(4, 4, rng)
        rope = RopeConfig(d_head=4, enabled=True)
        packed = make_packed(rng, lengths, 4)
        out = block_diag_forward(packed, params, rope)
        b = packed.sample_boundaries
        for i in range(len(b) - 1):
            lo, hi = b[i], b[i + 1]
            alone = _dense_block_attention(
                PatchSequence(
                    embeddings=packed.embeddings[lo:hi],
                    positions=packed.positions[lo:hi],
                    sample_boundaries=(0, hi - lo),
                ),
                params,
                rope,
            )
            np.testing.assert_allclose(out[lo:hi], alone, atol=1e-6)


class TestValidation:
    def test_boundaries_must_cover_tokens(self):
        with pytest.raises(ValueError):
            PatchSequence(
                embeddings=np.zeros((3, 2)),
                positions=np.zeros((3, 2), int),
                sample_boundaries=(0, 2),
            )

    def test_boundaries_strictly_ascending(self):
        with pytest.raises(ValueError):
            PatchSequence(
                embeddings=np.zeros((3, 2)),
                positions=np.zeros((3, 2), int),
                sample_boundaries=(0, 2, 2, 3),
            )

    def test_attention_params_shapes(self):
        with pytest.raises(ShapeMismatch):
            AttentionParams(
                wq=np.zeros((4, 3)), wk=np.zeros((4, 3)), wv=np.zeros((4, 2)),
                wo=np.zeros((3, 4)),
            )
