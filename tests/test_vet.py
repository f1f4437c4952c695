"""Visual head softmax, expected embeddings, and analytic gradients."""

import numpy as np
import pytest

from conftest import finite_difference, rel_err
from navit_pack.errors import LengthMismatch, NonFiniteInput, ShapeMismatch
from navit_pack.vet import (
    ProbVisualToken,
    VisualEmbeddingTable,
    VisualHead,
    _check_probs,
    head_forward,
    vet_embed,
    vet_embed_grad,
)


def softmax_oracle(logits):
    """Direct exponentiation and normalization."""
    e = [np.exp(z) for z in logits]
    total = sum(e)
    return [v / total for v in e]


class TestHeadForward:
    def test_zero_features_uniform(self):
        head = VisualHead(projection=np.random.default_rng(0).normal(size=(3, 5)))
        (token,) = head_forward(np.zeros((1, 3)), head)
        np.testing.assert_allclose(token.probs, 0.2, atol=1e-15)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(1)
        head = VisualHead(projection=rng.normal(size=(4, 6)), temperature=0.37)
        features = rng.normal(size=(10, 4))
        logits = features @ head.projection
        for token, row in zip(head_forward(features, head), logits):
            assert int(np.argmax(token.probs)) == int(np.argmax(row))

    def test_hand_computed_softmax(self):
        # logits (ln 2, ln 1, ln 1) at temperature 1
        head = VisualHead(projection=np.eye(3), temperature=1.0)
        (token,) = head_forward(np.array([[np.log(2.0), 0.0, 0.0]]), head)
        np.testing.assert_allclose(token.probs, [0.5, 0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(
            token.probs, softmax_oracle([np.log(2.0), 0.0, 0.0]), atol=1e-15
        )

    def test_simplex_invariant(self):
        rng = np.random.default_rng(2)
        head = VisualHead(projection=rng.normal(size=(6, 9)), temperature=0.5)
        for token in head_forward(rng.normal(size=(50, 6)) * 30.0, head):
            assert token.probs.min() >= 0.0
            assert abs(token.probs.sum() - 1.0) <= 1e-9

    def test_logit_shift_invariance(self):
        # d_model 1, unit feature: logits are the projection row itself.
        rng = np.random.default_rng(3)
        row = rng.normal(size=(1, 7))
        (base,) = head_forward(np.ones((1, 1)), VisualHead(projection=row))
        (shifted,) = head_forward(np.ones((1, 1)), VisualHead(projection=row + 123.456))
        np.testing.assert_allclose(base.probs, shifted.probs, atol=1e-12)

    def test_large_logits_stay_finite(self):
        head = VisualHead(projection=np.eye(2) * 1e4, temperature=1.0)
        (token,) = head_forward(np.array([[1.0, -1.0]]), head)
        assert np.isfinite(token.probs).all()

    def test_nonfinite_rejected(self):
        head = VisualHead(projection=np.eye(2))
        with pytest.raises(NonFiniteInput):
            head_forward(np.array([[np.nan, 0.0]]), head)

    def test_overflowing_logits_rejected(self):
        # Finite features whose logits overflow: inf - inf gives NaN rows.
        head = VisualHead(projection=np.array([[2.0, 1.0]]))
        with pytest.raises(NonFiniteInput, match="must sum to 1, got .*nan"):
            head_forward(np.array([[0.5], [1e308]]), head)

    def test_shape_mismatch(self):
        head = VisualHead(projection=np.eye(3))
        with pytest.raises(ShapeMismatch):
            head_forward(np.zeros((2, 4)), head)
        with pytest.raises(ShapeMismatch):
            head_forward(np.zeros(3), head)


class TestVetEmbed:
    def test_one_hot_selects_row(self):
        rng = np.random.default_rng(4)
        table = VisualEmbeddingTable(table=rng.normal(size=(5, 3)))
        probs = np.zeros(5)
        probs[3] = 1.0
        np.testing.assert_array_equal(
            vet_embed(ProbVisualToken(probs=probs), table), table.table[3]
        )

    def test_uniform_is_mean(self):
        rng = np.random.default_rng(5)
        table = VisualEmbeddingTable(table=rng.normal(size=(8, 4)))
        out = vet_embed(ProbVisualToken(probs=np.full(8, 0.125)), table)
        np.testing.assert_allclose(out, table.table.mean(axis=0), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            vocab = int(rng.integers(2, 12))
            d_embed = int(rng.integers(1, 6))
            table = VisualEmbeddingTable(table=rng.normal(size=(vocab, d_embed)))
            raw = rng.uniform(0.0, 1.0, vocab)
            probs = raw / raw.sum()
            expected = np.zeros(d_embed)
            for k in range(vocab):
                expected += probs[k] * table.table[k]
            out = vet_embed(ProbVisualToken(probs=probs), table)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_weighted_sum_example(self):
        table = VisualEmbeddingTable(
            table=np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        )
        out = vet_embed(ProbVisualToken(probs=np.array([0.5, 0.25, 0.25])), table)
        np.testing.assert_allclose(out, [1.0, 0.75], atol=1e-15)

    def test_convex_hull_containment(self):
        rng = np.random.default_rng(7)
        table = VisualEmbeddingTable(table=rng.normal(size=(10, 5)))
        for _ in range(100):
            raw = rng.uniform(0.0, 1.0, 10)
            out = vet_embed(ProbVisualToken(probs=raw / raw.sum()), table)
            assert (out >= table.table.min(axis=0) - 1e-12).all()
            assert (out <= table.table.max(axis=0) + 1e-12).all()

    def test_temperature_limit_selects_argmax_row(self):
        rng = np.random.default_rng(8)
        projection = rng.normal(size=(3, 6))
        features = rng.normal(size=(1, 3))
        table = VisualEmbeddingTable(table=rng.normal(size=(6, 4)))
        logits = (features @ projection)[0]
        winner = int(np.argmax(logits))
        (token,) = head_forward(features, VisualHead(projection=projection, temperature=1e-3))
        out = vet_embed(token, table)
        np.testing.assert_allclose(out, table.table[winner], atol=1e-6)

    def test_length_mismatch(self):
        table = VisualEmbeddingTable(table=np.zeros((4, 2)))
        with pytest.raises(LengthMismatch):
            vet_embed(ProbVisualToken(probs=np.full(3, 1 / 3)), table)

    def test_invalid_token_rejected(self):
        with pytest.raises(ValueError):
            ProbVisualToken(probs=np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            ProbVisualToken(probs=np.array([1.5, -0.5]))

    def test_nan_token_rejected(self):
        with pytest.raises(NonFiniteInput):
            ProbVisualToken(probs=np.array([np.nan, np.nan]))

    def test_array_check_names_first_bad_row(self):
        probs = np.array([[0.5, 0.5], [1.5, -0.5], [0.7, 0.7]])
        with pytest.raises(ValueError, match=r"^probabilities must be non-negative, min is -0\.5$"):
            _check_probs(probs)
        with pytest.raises(ValueError, match=r"^probabilities must sum to 1, got .*1\.4"):
            _check_probs(probs[[0, 2, 1]])

    def test_random_table_init_bounds(self):
        table = VisualEmbeddingTable.random(np.random.default_rng(0))
        assert table.table.shape == (64, 32)
        assert table.table.min() >= -0.02 and table.table.max() <= 0.02
        again = VisualEmbeddingTable.random(np.random.default_rng(0))
        assert np.array_equal(table.table, again.table)


def scalar_loss(features, projection, table, upstream, temperature):
    head = VisualHead(projection=projection, temperature=temperature)
    vet_table = VisualEmbeddingTable(table=table)
    return float(
        sum(vet_embed(t, vet_table) @ upstream for t in head_forward(features, head))
    )


class TestGradients:
    def test_zero_upstream_zero_gradients(self):
        rng = np.random.default_rng(9)
        head = VisualHead(projection=rng.normal(size=(3, 4)))
        table = VisualEmbeddingTable(table=rng.normal(size=(4, 2)))
        grads = vet_embed_grad(rng.normal(size=(2, 3)), head, table, np.zeros(2))
        assert not grads.d_features.any()
        assert not grads.d_projection.any()
        assert not grads.d_table.any()

    def test_table_gradient_is_probs_outer_upstream(self):
        rng = np.random.default_rng(10)
        head = VisualHead(projection=rng.normal(size=(3, 5)), temperature=0.8)
        table = VisualEmbeddingTable(table=rng.normal(size=(5, 2)))
        features = rng.normal(size=(1, 3))
        upstream = rng.normal(size=2)
        grads = vet_embed_grad(features, head, table, upstream)
        (token,) = head_forward(features, head)
        np.testing.assert_allclose(
            grads.d_table, np.outer(token.probs, upstream), atol=1e-14
        )

    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(1, 4))
            d_model = int(rng.integers(2, 5))
            vocab = int(rng.integers(3, 7))
            d_embed = int(rng.integers(2, 5))
            features = rng.uniform(-1, 1, (n, d_model))
            projection = rng.uniform(-1, 1, (d_model, vocab))
            table = rng.uniform(-1, 1, (vocab, d_embed))
            upstream = rng.uniform(-1, 1, d_embed)
            temperature = float(rng.uniform(0.5, 2.0))
            head = VisualHead(projection=projection, temperature=temperature)
            grads = vet_embed_grad(features, head, VisualEmbeddingTable(table=table), upstream)
            worst = max(
                worst,
                rel_err(
                    grads.d_features,
                    finite_difference(
                        lambda f: scalar_loss(f, projection, table, upstream, temperature),
                        features,
                    ),
                ),
                rel_err(
                    grads.d_projection,
                    finite_difference(
                        lambda p: scalar_loss(features, p, table, upstream, temperature),
                        projection,
                    ),
                ),
                rel_err(
                    grads.d_table,
                    finite_difference(
                        lambda t: scalar_loss(features, projection, t, upstream, temperature),
                        table,
                    ),
                ),
            )
        assert worst < 1e-5

    def test_vocabulary_mismatch(self):
        head = VisualHead(projection=np.zeros((3, 4)))
        table = VisualEmbeddingTable(table=np.zeros((5, 2)))
        with pytest.raises(ShapeMismatch):
            vet_embed_grad(np.zeros((1, 3)), head, table, np.zeros(2))
