"""Rotary embeddings, position-table interpolation, and packed attention."""

import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from navit_pack.encoder import (
    _KEY_CHUNK,
    _TILE_ENTRIES,
    AttentionParams,
    LearnedPosTable,
    PatchSequence,
    RopeConfig,
    apply_rope_2d,
    block_diag_forward,
    interpolate_pos_table,
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
    def test_only_field_is_d_head(self):
        assert RopeConfig._fields == ("d_head",)
        assert RopeConfig(d_head=8).d_head == 8

    @pytest.mark.parametrize("d_head", [-4, 0, 2, 6, 7, 10])
    def test_invalid(self, d_head):
        # Each half of d_head must split into (2i, 2i+1) pairs.
        with pytest.raises(ValueError):
            RopeConfig(d_head=d_head)


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
        half = cfg.d_head // 2
        v = rng.normal(size=(4, 8))
        out = apply_rope_2d(v, np.array([[3, 0]] * 4), cfg)
        np.testing.assert_array_equal(out[:, half:], v[:, half:])
        out = apply_rope_2d(v, np.array([[0, 5]] * 4), cfg)
        np.testing.assert_array_equal(out[:, :half], v[:, :half])

    def test_base_and_split(self):
        # At d_head 8, pair 1 of a half turns by 10^4^(-2/4) = 0.01 rad per
        # unit of its own axis; the other half is left exactly as it was.
        cfg = RopeConfig(d_head=8)
        basis = np.eye(8)[[2, 6]]
        turned = [np.cos(0.01), np.sin(0.01)]
        out = apply_rope_2d(basis, np.array([[1, 0], [1, 0]]), cfg)
        np.testing.assert_allclose(out[0, 2:4], turned, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(out[1], basis[1])
        out = apply_rope_2d(basis, np.array([[0, 1], [0, 1]]), cfg)
        np.testing.assert_array_equal(out[0], basis[0])
        np.testing.assert_allclose(out[1, 6:8], turned, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d_head", [4, 8, 16, 32])
    def test_matches_closed_form_per_axis(self, d_head):
        # Each axis written out pair by pair: row on the first half, column
        # on the second, theta_i = 10^4^(-2i / (d_head / 2)).
        rng = np.random.default_rng(d_head)
        n, d_axis = 64, d_head // 2
        v = rng.normal(size=(n, d_head))
        pos = rng.integers(0, 512, (n, 2))
        want = v.copy()
        for t in range(n):
            for axis in range(2):
                for i in range(d_axis // 2):
                    angle = pos[t, axis] * 10000.0 ** (-2.0 * i / d_axis)
                    c, s = math.cos(angle), math.sin(angle)
                    j = axis * d_axis + 2 * i
                    a, b = v[t, j], v[t, j + 1]
                    want[t, j], want[t, j + 1] = a * c - b * s, a * s + b * c
        got = apply_rope_2d(v, pos, RopeConfig(d_head=d_head))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        cfg = RopeConfig(d_head=4)
        with pytest.raises(ShapeMismatch, match=r"^expected \(n, 4\) vectors, got \(2, 6\)$"):
            apply_rope_2d(np.ones((2, 6)), np.zeros((2, 2), dtype=int), cfg)
        with pytest.raises(ShapeMismatch, match=r"^positions shape \(3, 2\) != \(2, 2\)$"):
            apply_rope_2d(np.ones((2, 4)), np.zeros((3, 2), dtype=int), cfg)
        with pytest.raises(ShapeMismatch, match=r"^positions shape \(2, 2\) != \(3, 2\)$"):
            apply_rope_2d(np.ones((2, 3, 4)), np.zeros((2, 2), dtype=int), cfg)
        with pytest.raises(ShapeMismatch):
            apply_rope_2d(np.ones((4,)), np.zeros((1, 2), dtype=int), cfg)
        with pytest.raises(ShapeMismatch):
            apply_rope_2d(np.ones((1, 2, 3, 4)), np.zeros((3, 2), dtype=int), cfg)

    def test_stack_equals_per_slice_calls(self):
        # q and k of one sequence go through in one call; each comes out
        # with the bits its own call gives.
        rng = np.random.default_rng(19)
        cfg = RopeConfig(d_head=16)
        stack = rng.normal(size=(2, 50, 16))
        pos = rng.integers(0, 100, (50, 2))
        out = apply_rope_2d(stack, pos, cfg)
        assert out.shape == stack.shape
        for i in range(2):
            assert out[i].tobytes() == apply_rope_2d(stack[i], pos, cfg).tobytes()


class TestRelativeProperty:
    """Dot products of vectors rotated by `apply_rope_2d` to their own
    positions: they depend on the position offset only."""

    def test_equal_positions_plain_dot(self):
        rng = np.random.default_rng(3)
        cfg = RopeConfig(d_head=8)
        q, k = rng.normal(size=8), rng.normal(size=8)
        rq, rk = apply_rope_2d(np.stack([q, k]), np.array([(4, 9), (4, 9)]), cfg)
        assert rq @ rk == pytest.approx(float(q @ k), abs=1e-12)

    def test_translation_invariance_example(self):
        rng = np.random.default_rng(4)
        cfg = RopeConfig(d_head=8)
        q, k = rng.normal(size=8), rng.normal(size=8)
        rq, rk = apply_rope_2d(np.stack([q, k]), np.array([(2, 3), (1, 1)]), cfg)
        sq, sk = apply_rope_2d(np.stack([q, k]), np.array([(5, 7), (4, 5)]), cfg)
        assert rq @ rk == pytest.approx(sq @ sk, abs=1e-9)

    def test_translation_invariance_many(self):
        rng = np.random.default_rng(5)
        cfg = RopeConfig(d_head=8)
        for _ in range(300):
            q, k = rng.normal(size=8), rng.normal(size=8)
            p_q, p_k = rng.integers(0, 64, 2), rng.integers(0, 64, 2)
            t = rng.integers(0, 64, 2)
            rq, rk = apply_rope_2d(np.stack([q, k]), np.stack([p_q, p_k]), cfg)
            sq, sk = apply_rope_2d(np.stack([q, k]), np.stack([p_q + t, p_k + t]), cfg)
            assert abs(rq @ rk - sq @ sk) < 1e-9

    def test_self_dot_bounded_by_norm(self):
        rng = np.random.default_rng(6)
        cfg = RopeConfig(d_head=8)
        q = rng.normal(size=8)
        norm_sq = float(q @ q)
        rq, rk = apply_rope_2d(np.stack([q, q]), np.array([(3, 4), (3, 4)]), cfg)
        assert rq @ rk == pytest.approx(norm_sq)
        for offset in [(1, 0), (0, 1), (5, 9)]:
            p_k = (10, 10)
            p_q = (10 + offset[0], 10 + offset[1])
            rq, rk = apply_rope_2d(np.stack([q, q]), np.array([p_q, p_k]), cfg)
            assert rq @ rk <= norm_sq + 1e-12


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


def make_packed(rng, lengths, d_model, rotated=True):
    """Random packed tokens; `rotated=False` zeroes the positions, which
    leaves q and k unrotated, after the same rng draws."""
    n = sum(lengths)
    boundaries = [0]
    for length in lengths:
        boundaries.append(boundaries[-1] + length)
    return PatchSequence(
        embeddings=rng.normal(size=(n, d_model)),
        positions=rng.integers(0, 32, (n, 2)) * rotated,
        sample_boundaries=tuple(boundaries),
    )


def exact_max_forward(packed, weights, rope, later_tiles=1.0):
    """`block_diag_forward` with each tile's scores shifted by their exact row
    max, in the row tiles of its exact-max redo, which are its own tiles
    for blocks of at most `_KEY_CHUNK` tokens. The row sums of every tile
    after a block's first are multiplied by `later_tiles`: 1.0 is the
    faithful copy."""
    x = packed.embeddings
    q, k, v = x @ weights.wq, x @ weights.wk, x @ weights.wv
    q = apply_rope_2d(q, packed.positions, rope)
    k = apply_rope_2d(k, packed.positions, rope)
    q = q * (1.0 / np.sqrt(weights.d_head))
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


def orthogonal_blocks(lengths=(12, 5)):
    """Blocks of the given lengths whose rotated queries and keys are
    orthogonal at large norms, with `(packed, params, rope)`.

    `wq` writes only the row half of the head dimensions and `wk` only the
    column half, and RoPE turns pairs within a half, so every score is 0
    while the shift |q_i| max |k_j| / sqrt(d_head) is above 1000: each
    shifted exp underflows to 0.
    """
    rng = np.random.default_rng(21)
    d_model = d_head = 8
    wq, wk = np.zeros((d_model, d_head)), np.zeros((d_model, d_head))
    wq[:, :4] = rng.normal(0.0, 100.0, (d_model, 4))
    wk[:, 4:] = rng.normal(0.0, 100.0, (d_model, 4))
    params = AttentionParams(
        wq, wk, rng.normal(size=(d_model, d_head)), rng.normal(size=(d_head, d_model))
    )
    return make_packed(rng, lengths, d_model), params, RopeConfig(d_head=d_head)


class TestBlockDiagonal:
    def test_single_sample_equals_plain_attention(self):
        rng = np.random.default_rng(8)
        params = AttentionParams.random(6, 8, rng)
        packed = make_packed(rng, [9], 6, rotated=False)
        out = block_diag_forward(packed, params, RopeConfig(d_head=8))
        np.testing.assert_allclose(out, plain_attention(packed.embeddings, params), atol=1e-12)

    @pytest.mark.parametrize("d_head", [4, 8, 32])
    def test_zero_positions_equal_plain_attention_per_block(self, d_head):
        rng = np.random.default_rng(18)
        params = AttentionParams.random(6, d_head, rng)
        packed = make_packed(rng, [4, 7, 1, 5], 6, rotated=False)
        out = block_diag_forward(packed, params, RopeConfig(d_head=d_head))
        b = packed.sample_boundaries
        for lo, hi in zip(b[:-1], b[1:]):
            np.testing.assert_allclose(
                out[lo:hi], plain_attention(packed.embeddings[lo:hi], params), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("rotated", [False, True])
    def test_packed_matches_isolated(self, rotated):
        rng = np.random.default_rng(9)
        params = AttentionParams.random(6, 8, rng)
        rope = RopeConfig(d_head=8)
        packed = make_packed(rng, [4, 7, 1, 5], 6, rotated)
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
        packed = make_packed(rng, [3, 6], 5, rotated=False)
        out = block_diag_forward(packed, params, RopeConfig(d_head=4))
        np.testing.assert_allclose(
            out[:3], plain_attention(packed.embeddings[:3], params), atol=1e-6
        )
        np.testing.assert_allclose(
            out[3:], plain_attention(packed.embeddings[3:], params), atol=1e-6
        )

    def test_singleton_blocks_are_local(self):
        rng = np.random.default_rng(11)
        params = AttentionParams.random(4, 4, rng)
        rope = RopeConfig(d_head=4)
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

    def test_shape_mismatch(self):
        rng = np.random.default_rng(13)
        params = AttentionParams.random(4, 4, rng)
        packed = make_packed(rng, [3], 6)
        with pytest.raises(ShapeMismatch):
            block_diag_forward(packed, params, RopeConfig(d_head=4))

    def test_empty_sequence(self):
        rng = np.random.default_rng(14)
        params = AttentionParams.random(6, 4, rng)
        packed = PatchSequence(
            embeddings=np.zeros((0, 6)), positions=np.zeros((0, 2), int), sample_boundaries=(0,)
        )
        out = block_diag_forward(packed, params, RopeConfig(d_head=4))
        assert out.shape == (0, 6)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_long_block_spans_row_tiles(self, rotated):
        n = 1500
        assert math.ceil(n / (_TILE_ENTRIES // _KEY_CHUNK)) == 6
        assert math.ceil(n / _KEY_CHUNK) == 3
        rng = np.random.default_rng(15)
        params = AttentionParams.random(8, 8, rng)
        rope = RopeConfig(d_head=8)
        packed = make_packed(rng, [n], 8, rotated)
        np.testing.assert_allclose(
            block_diag_forward(packed, params, rope),
            _dense_block_attention(packed, params, rope),
            rtol=0,
            atol=1e-9,
        )

    @pytest.mark.parametrize("rotated", [False, True])
    def test_long_and_singleton_blocks(self, rotated):
        rng = np.random.default_rng(16)
        params = AttentionParams.random(8, 8, rng)
        rope = RopeConfig(d_head=8)
        packed = make_packed(rng, [1, 1100, 1, 1, 1300, 37, 1], 8, rotated)
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

    def test_redo_memory_is_sub_tiled(self):
        # Every tile of the block is redone with the exact row max; a redo of
        # a whole 256-row tile against the whole block at once peaks at
        # about 10 MiB, the sub-tiled redo at about 3.1 MiB.
        packed, params, rope = orthogonal_blocks((4096,))
        with np.errstate(under="ignore"):
            tracemalloc.start()
            try:
                out = block_diag_forward(packed, params, rope)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        np.testing.assert_allclose(
            out, _dense_block_attention(packed, params, rope), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("n", [511, 512, 513, 1024, 1025, 1300])
    def test_key_chunk_edges_match_the_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        params = AttentionParams.random(8, 8, rng)
        rope = RopeConfig(d_head=8)
        packed = make_packed(rng, [1, n, 1], 8)
        np.testing.assert_allclose(
            block_diag_forward(packed, params, rope),
            _dense_block_attention(packed, params, rope),
            rtol=0,
            atol=1e-9,
        )

    def test_short_blocks_tile_as_without_key_chunks(self, monkeypatch):
        lengths = [3, _KEY_CHUNK, 40, _KEY_CHUNK - 1, 1, 90, 300]
        rng = np.random.default_rng(34)
        params = AttentionParams.random(8, 8, rng)
        packed = make_packed(rng, lengths, 8)
        outputs = []
        for chunk in (_KEY_CHUNK, 2**20):
            monkeypatch.setattr(encoder, "_KEY_CHUNK", chunk)
            outputs.append(block_diag_forward(packed, params, RopeConfig(d_head=8)))
        assert np.array_equal(outputs[1].view(np.int64), outputs[0].view(np.int64))

    @pytest.mark.parametrize("later_tiles", [1.0, 1.01])
    def test_verify_catches_a_later_tile_bug(self, monkeypatch, later_tiles):
        def forward(packed, weights, rope):
            return exact_max_forward(packed, weights, rope, later_tiles)

        monkeypatch.setattr(encoder, "block_diag_forward", forward)
        assert check_pack_equiv(0)[0] == (later_tiles == 1.0)

    def test_shift_far_above_the_row_max_is_redone_exactly(self):
        packed, params, rope = orthogonal_blocks()
        x = packed.embeddings
        q = apply_rope_2d(x @ params.wq, packed.positions, rope) / np.sqrt(rope.d_head)
        k = apply_rope_2d(x @ params.wk, packed.positions, rope)
        b = packed.sample_boundaries
        for lo, hi in zip(b[:-1], b[1:]):
            assert np.array_equal(q[lo:hi] @ k[lo:hi].T, np.zeros((hi - lo, hi - lo)))
            shift = np.linalg.norm(q[lo:hi], axis=1) * np.linalg.norm(k[lo:hi], axis=1).max()
            assert shift.min() > 1000.0
        out = block_diag_forward(packed, params, rope)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(
            out, _dense_block_attention(packed, params, rope), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_give_the_exact_max_rows(self, bad):
        # The block with the bad token takes the exact-max path bit for bit;
        # the block after it stays finite.
        rng = np.random.default_rng(20)
        params = AttentionParams.random(8, 8, rng)
        rope = RopeConfig(d_head=8)
        packed = make_packed(rng, [40, 9], 8)
        packed.embeddings[7, 3] = bad
        with np.errstate(invalid="ignore"):
            got = block_diag_forward(packed, params, rope)
            want = exact_max_forward(packed, params, rope)
        np.testing.assert_array_equal(got[:40], want[:40])
        assert np.isfinite(got[40:]).all()
        np.testing.assert_allclose(got[40:], want[40:], rtol=0, atol=1e-12)

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
    def test_packed_equivalence_property(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        params = AttentionParams.random(4, 4, rng)
        rope = RopeConfig(d_head=4)
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


def refuse_to_start(thread):
    raise AssertionError(f"{thread.name} started")


class TestSplitTiles:
    """`block_diag_forward` with its tiles on more than one worker. The
    count is forced through `encoder._workers`, since tier-1 runs with BLAS
    unpinned, where it is 1."""

    @pytest.mark.parametrize(
        "lengths",
        [
            [3, 700, 40, 1, 90],
            np.random.default_rng(30).integers(30, 90, 150).tolist(),
            [1, 511, 1, 512, 1, 513, 1, 1024, 1, 1025, 1, 1300, 1],
        ],
        ids=["long-and-short", "many-blocks", "key-chunk-edges"],
    )
    def test_any_worker_count_gives_the_same_bits(self, monkeypatch, lengths):
        assert sum(n * n for n in lengths) >= 3 * _TILE_ENTRIES
        rng = np.random.default_rng(31)
        params = AttentionParams.random(8, 8, rng)
        packed = make_packed(rng, lengths, 8)
        in_parallel, split = encoder._in_parallel, []

        def spy(run, tiles, workers):
            split.append(workers)
            in_parallel(run, tiles, workers)

        monkeypatch.setattr(encoder, "_in_parallel", spy)
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(encoder, "_workers", lambda: workers)
            outputs.append(block_diag_forward(packed, params, RopeConfig(d_head=8)))
        assert split == [2, 3]
        for out in outputs[1:]:
            assert np.array_equal(out, outputs[0])

    def test_nan_embedding_gives_the_inline_bits_and_no_warning(self, monkeypatch):
        # The NaN token is a key of every row of its block, so every tile of
        # the block meets it, the helper's included.
        rng = np.random.default_rng(32)
        params = AttentionParams.random(8, 8, rng)
        packed = make_packed(rng, [700, 9], 8)
        packed.embeddings[350, 3] = np.nan
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(encoder, "_workers", lambda: workers)
            with warnings.catch_warnings(), np.errstate(invalid="ignore"):
                warnings.simplefilter("error")
                outputs.append(block_diag_forward(packed, params, RopeConfig(d_head=8)))
        assert np.isnan(outputs[0][:700]).all() and np.isfinite(outputs[0][700:]).all()
        assert np.array_equal(outputs[1].view(np.int64), outputs[0].view(np.int64))

    def test_an_error_in_a_tile_reaches_the_caller(self, monkeypatch):
        # Every tile's shifted exps underflow. (A NaN input raises no
        # floating-point error, so it cannot stand in here.)
        packed, params, rope = orthogonal_blocks((600, 100))
        monkeypatch.setattr(encoder, "_workers", lambda: 2)
        before = threading.active_count()
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            block_diag_forward(packed, params, rope)
        assert threading.active_count() == before

    def test_helpers_take_the_callers_error_state_and_raise_in_it(self):
        meet = threading.Barrier(2, timeout=5.0)
        states = []

        def run(i):
            meet.wait()  # each of the two threads holds one item
            states.append((np.geterr()["under"], np.geterrcall()))
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("raised by a helper")

        before = threading.active_count()
        with np.errstate(under="raise", call=print):
            with pytest.raises(ValueError, match="raised by a helper"):
                encoder._in_parallel(run, [(0,), (1,)], 2)
        assert states == [("raise", print)] * 2
        assert threading.active_count() == before

    def test_every_item_runs_once_on_more_workers_than_cores(self):
        ran, items = [], [(i,) for i in range(5000)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=encoder._in_parallel, args=(ran.append, items, 8))
            runner.start()
            runner.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not runner.is_alive()
        assert sorted(ran) == list(range(5000))

    def test_no_helper_starts_with_blas_unpinned(self, monkeypatch):
        for name in encoder._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(threading.Thread, "start", refuse_to_start)
        rng = np.random.default_rng(33)
        params = AttentionParams.random(8, 8, rng)
        assert encoder._workers() == 1
        block_diag_forward(make_packed(rng, [700], 8), params, RopeConfig(d_head=8))

    @pytest.mark.parametrize(
        "env, blas_threads",
        [
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": " +2"}, 2),
            ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1,4"}, 1),
            ({"OMP_NUM_THREADS": "-1"}, None),
            ({}, None),
        ],
    )
    def test_workers_are_the_cpus_over_the_blas_threads(self, monkeypatch, env, blas_threads):
        for name in encoder._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cpus = len(os.sched_getaffinity(0))
        assert encoder._workers() == (1 if blas_threads is None else max(1, cpus // blas_threads))


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
