"""Visual head softmax, expected embeddings, and analytic gradients."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from navit_pack.errors import LengthMismatch, NonFiniteInput, ShapeMismatch
from navit_pack.vet import (
    ProbVisualToken,
    VisualEmbeddingTable,
    VisualHead,
    _head_probs,
    head_forward,
    vet_embed,
    vet_embed_grad,
)


def softmax_oracle(logits):
    """Direct exponentiation and normalization."""
    e = [np.exp(z) for z in logits]
    total = sum(e)
    return [v / total for v in e]


def is_distribution_rows(probs):
    """Every entry >= 0 and every row summing to 1 within 1e-9."""
    return bool((probs.min(axis=1) >= 0.0).all() and (abs(probs.sum(axis=1) - 1.0) <= 1e-9).all())


def loop_expectation(probs, table):
    """sum_k probs[k] * table[k], one row at a time."""
    expected = np.zeros(table.shape[1])
    for k in range(len(probs)):
        expected += probs[k] * table[k]
    return expected


class TestHeadForward:
    def test_zero_features_uniform(self):
        head = VisualHead(projection=np.random.default_rng(0).normal(size=(3, 5)))
        (token,) = head_forward(np.zeros((1, 3)), head)
        np.testing.assert_allclose(token.probs, 0.2, atol=1e-15)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(1)
        head = VisualHead(projection=rng.normal(size=(4, 6)))
        features = rng.normal(size=(10, 4))
        logits = features @ head.projection
        for token, row in zip(head_forward(features, head), logits):
            assert int(np.argmax(token.probs)) == int(np.argmax(row))

    def test_hand_computed_softmax(self):
        # logits (ln 2, ln 1, ln 1)
        head = VisualHead(projection=np.eye(3))
        (token,) = head_forward(np.array([[np.log(2.0), 0.0, 0.0]]), head)
        np.testing.assert_allclose(token.probs, [0.5, 0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(
            token.probs, softmax_oracle([np.log(2.0), 0.0, 0.0]), atol=1e-15
        )

    def test_simplex_invariant(self):
        rng = np.random.default_rng(2)
        head = VisualHead(projection=rng.normal(size=(6, 9)))
        for token in head_forward(rng.normal(size=(50, 6)) * 60.0, head):
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
        head = VisualHead(projection=np.eye(2) * 1e4)
        (token,) = head_forward(np.array([[1.0, -1.0]]), head)
        assert np.isfinite(token.probs).all()
        # Finite logits whose max shift overflows to -inf: exp gives 0, without a warning.
        head = VisualHead(projection=np.array([[1e308, -1e308]]))
        (token,) = head_forward(np.ones((1, 1)), head)
        np.testing.assert_array_equal(token.probs, [1.0, 0.0])

    def test_nonfinite_rejected(self):
        head = VisualHead(projection=np.eye(2))
        with pytest.raises(NonFiniteInput):
            head_forward(np.array([[np.nan, 0.0]]), head)

    def test_overflowing_logits_rejected(self):
        # Finite features whose logits overflow.
        head = VisualHead(projection=np.array([[2.0, 1.0]]))
        with pytest.raises(NonFiniteInput, match="^logits overflow to non-finite values$"):
            head_forward(np.array([[0.5], [1e308]]), head)
        # inf - inf in the product gives a NaN logit.
        head = VisualHead(projection=np.array([[1e308, 1.0], [1e308, 1.0]]))
        with pytest.raises(NonFiniteInput, match="^logits overflow to non-finite values$"):
            head_forward(np.array([[10.0, -10.0]]), head)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_projection_rejected(self, bad):
        projection = np.eye(2)
        projection[0, 1] = bad
        with pytest.raises(NonFiniteInput, match="^projection contains non-finite entries$"):
            VisualHead(projection=projection)

    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(2, 5),
        st.data(),
    )
    def test_probs_are_distributions_unless_logits_overflow(self, n, d_model, vocab, data):
        """Finite features and projections from the whole float range: the
        rows are distributions exactly when the logits are finite, and the
        error names the logits otherwise."""
        finite = st.floats(allow_nan=False, allow_infinity=False)
        features = data.draw(arrays(np.float64, (n, d_model), elements=finite))
        projection = data.draw(arrays(np.float64, (d_model, vocab), elements=finite))
        with np.errstate(over="ignore", invalid="ignore"):
            finite_logits = np.isfinite(features @ projection).all()
        if finite_logits:
            _, probs = _head_probs(features, VisualHead(projection))
            assert is_distribution_rows(probs)
        else:
            with pytest.raises(NonFiniteInput, match="^logits overflow to non-finite values$"):
                _head_probs(features, VisualHead(projection))

    def test_tokens_view_the_rows_of_the_checked_array(self):
        rng = np.random.default_rng(12)
        head = VisualHead(projection=rng.normal(size=(4, 6)))
        features = rng.normal(size=(7, 4))
        tokens = head_forward(features, head)
        assert [type(t) for t in tokens] == [ProbVisualToken] * 7
        _, probs = _head_probs(features, head)
        np.testing.assert_array_equal(np.stack([t.probs for t in tokens]), probs)
        rows = tokens[0].probs.base
        assert rows.shape == (7, 6) and all(t.probs.base is rows for t in tokens)

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
            out = vet_embed(ProbVisualToken(probs=probs), table)
            np.testing.assert_allclose(out, loop_expectation(probs, table.table), atol=1e-12)

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

    def test_length_mismatch(self):
        table = VisualEmbeddingTable(table=np.zeros((4, 2)))
        with pytest.raises(LengthMismatch, match=r"^token has 3 probabilities, table has 4 rows$"):
            vet_embed(ProbVisualToken(probs=np.full(3, 1 / 3)), table)

    @given(st.integers(1, 80), st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_equals_matmul_bitwise(self, vocab, d_embed, seed):
        rng = np.random.default_rng(seed)
        token = ProbVisualToken(probs=rng.dirichlet(np.ones(vocab)))
        table = VisualEmbeddingTable(table=rng.normal(size=(vocab, d_embed)))
        assert vet_embed(token, table).tobytes() == (token.probs @ table.table).tobytes()

    def test_invalid_token_rejected(self):
        # The texts carry plain numbers, not numpy reprs.
        with pytest.raises(ValueError, match=r"^probabilities must sum to 1, got 1\.4$"):
            ProbVisualToken(probs=np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match=r"^probabilities must be non-negative, min is -0\.5$"):
            ProbVisualToken(probs=np.array([1.5, -0.5]))

    def test_nan_token_rejected(self):
        with pytest.raises(NonFiniteInput, match="^probabilities must sum to 1, got nan$"):
            ProbVisualToken(probs=np.array([np.nan, np.nan]))
        with pytest.raises(NonFiniteInput, match="^probabilities must sum to 1, got inf$"):
            ProbVisualToken(probs=np.array([np.inf, 0.0]))


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
        head = VisualHead(projection=rng.normal(size=(3, 5)))
        table = VisualEmbeddingTable(table=rng.normal(size=(5, 2)))
        features = rng.normal(size=(1, 3))
        upstream = rng.normal(size=2)
        grads = vet_embed_grad(features, head, table, upstream)
        (token,) = head_forward(features, head)
        np.testing.assert_allclose(
            grads.d_table, np.outer(token.probs, upstream), atol=1e-14
        )

    def test_nonfinite_feature_rejected(self):
        head = VisualHead(projection=np.eye(2))
        table = VisualEmbeddingTable(table=np.ones((2, 3)))
        with pytest.raises(NonFiniteInput, match="^features contain non-finite entries$"):
            vet_embed_grad(np.array([[np.inf, 0.0]]), head, table, np.ones(3))

    def test_overflowing_logits_rejected(self):
        # As in head_forward: finite features whose logits overflow.
        head = VisualHead(projection=np.array([[2.0, 1.0]]))
        table = VisualEmbeddingTable(table=np.ones((2, 3)))
        with pytest.raises(NonFiniteInput, match="^logits overflow to non-finite values$"):
            vet_embed_grad(np.array([[0.5], [1e308]]), head, table, np.ones(3))

    def test_nonfinite_upstream_rejected(self):
        head = VisualHead(projection=np.eye(2))
        table = VisualEmbeddingTable(table=np.ones((2, 3)))
        with pytest.raises(NonFiniteInput, match="^upstream contains non-finite entries$"):
            vet_embed_grad(np.zeros((1, 2)), head, table, np.array([1.0, np.inf, 0.0]))

    def test_overflowing_gradients_rejected(self):
        # Finite upstream, but table @ upstream overflows: an error, not
        # a numpy warning or infinite gradients.
        head = VisualHead(projection=np.eye(2))
        table = VisualEmbeddingTable(table=np.ones((2, 3)))
        with pytest.raises(NonFiniteInput, match="^gradients overflow to non-finite values$"):
            vet_embed_grad(np.zeros((1, 2)), head, table, np.full(3, 1e308))

    def test_vocabulary_mismatch(self):
        head = VisualHead(projection=np.zeros((3, 4)))
        table = VisualEmbeddingTable(table=np.zeros((5, 2)))
        with pytest.raises(ShapeMismatch):
            vet_embed_grad(np.zeros((1, 3)), head, table, np.zeros(2))
