"""Visual head and visual embedding table.

The head maps a patch feature to a probability distribution over a
discrete vocabulary of visual words (a softmax of its logits); the
embedding table turns that distribution into the expected value of its
rows. Analytic gradients for the composed map are provided so the
training path can be checked against finite differences.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import LengthMismatch, NonFiniteInput, ShapeMismatch
from .records import _Value

__all__ = [
    "ProbVisualToken",
    "VetGradients",
    "VisualEmbeddingTable",
    "VisualHead",
    "head_forward",
    "vet_embed",
    "vet_embed_grad",
]


class VisualHead(namedtuple("VisualHead", "projection"), _Value):
    """Projection onto the visual vocabulary: the logits of a feature row x
    are x @ projection, and its distribution is their softmax. The
    projection must be finite."""

    __slots__ = ()

    def __new__(cls, projection: np.ndarray) -> VisualHead:  # (d_model, vocab_size)
        if projection.ndim != 2 or projection.shape[1] < 2:
            raise ShapeMismatch(f"projection must be (d_model, vocab>=2), got {projection.shape}")
        if not np.isfinite(projection).all():
            raise NonFiniteInput("projection contains non-finite entries")
        return tuple.__new__(cls, (projection,))

    @property
    def vocab_size(self) -> int:
        return self.projection.shape[1]


class ProbVisualToken(namedtuple("ProbVisualToken", "probs"), _Value):
    """Probability distribution over the visual vocabulary for one patch:
    a non-empty vector, every entry >= 0 and a sum within 1e-9 of 1. A sum
    that is NaN or infinite raises `NonFiniteInput`."""

    __slots__ = ()

    def __new__(cls, probs: np.ndarray) -> ProbVisualToken:
        if probs.ndim != 1 or not probs.size:
            raise ShapeMismatch(f"probs must be a non-empty vector, got shape {probs.shape}")
        low, total = float(probs.min()), float(probs.sum())
        if low < 0.0:
            raise ValueError(f"probabilities must be non-negative, min is {low}")
        if not abs(total - 1.0) <= 1e-9:
            error = ValueError if np.isfinite(total) else NonFiniteInput
            raise error(f"probabilities must sum to 1, got {total}")
        return tuple.__new__(cls, (probs,))


class VisualEmbeddingTable(namedtuple("VisualEmbeddingTable", "table"), _Value):
    """One embedding row per visual word: `table` is (vocab_size, d_embed)."""

    __slots__ = ()

    def __new__(cls, table: np.ndarray) -> VisualEmbeddingTable:
        if table.ndim != 2:
            raise ShapeMismatch(f"table must be 2D, got shape {table.shape}")
        if not np.isfinite(table).all():
            raise NonFiniteInput("embedding table contains non-finite entries")
        return tuple.__new__(cls, (table,))

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    # One temporary, then in place: at encode sizes (4096 x 64) a fresh
    # array per step took longer than the arithmetic on it.
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _head_probs(features: np.ndarray, head: VisualHead) -> tuple[np.ndarray, np.ndarray]:
    """The features as a float array and their (n, vocab) probabilities.

    Row i is softmax(features_i @ projection), with max subtraction.
    Non-finite features raise `NonFiniteInput`, and so do logits that
    overflow (the projection is finite), without a numpy warning. The
    softmax of finite logits needs no check: its entries are in [0, 1] and
    each row's max is 1, so each row sums to 1 within vocab * epsilon.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ShapeMismatch(f"features must be (n, d_model), got shape {f.shape}")
    if f.shape[1] != head.projection.shape[0]:
        raise ShapeMismatch(
            f"features have d_model {f.shape[1]}, projection expects "
            f"{head.projection.shape[0]}"
        )
    if not np.isfinite(f).all():
        raise NonFiniteInput("features contain non-finite entries")
    # Overflow in the product, or in the shift of a finite row, is not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = f @ head.projection
        if not np.isfinite(logits).all():
            raise NonFiniteInput("logits overflow to non-finite values")
        return f, _softmax_rows(logits)


def head_forward(features: np.ndarray, head: VisualHead) -> list[ProbVisualToken]:
    """Map each feature row to its distribution over visual words.

    The probabilities are those of `_head_probs`, which rejects non-finite
    features and overflowing logits, and each token holds a view of its
    row.
    """
    _, probs = _head_probs(features, head)
    # Each row is a softmax of finite logits, so a distribution (see
    # `_head_probs`): skip the per-row check of `ProbVisualToken.__new__`,
    # and build the tokens from the 1-tuples of `zip` without a Python loop.
    return list(map(tuple.__new__, [ProbVisualToken] * len(probs), zip(probs)))


def vet_embed(token: ProbVisualToken, vet: VisualEmbeddingTable) -> np.ndarray:
    """Expected embedding: probability-weighted sum of the table rows."""
    probs, table = token.probs, vet.table
    if probs.shape[0] != table.shape[0]:
        raise LengthMismatch(
            f"token has {probs.shape[0]} probabilities, table has {table.shape[0]} rows"
        )
    # `dot` gives the bits of `@` at about half the per-call cost.
    return probs.dot(table)


class VetGradients(namedtuple("VetGradients", "d_features d_projection d_table"), _Value):
    """Gradients of upstream . vet_embed(head_forward(features)): `d_features`
    is (n, d_model), `d_projection` (d_model, vocab_size) and `d_table`
    (vocab_size, d_embed)."""

    __slots__ = ()


def vet_embed_grad(
    features: np.ndarray,
    head: VisualHead,
    vet: VisualEmbeddingTable,
    upstream: np.ndarray,
) -> VetGradients:
    """Analytic gradients of sum_i upstream . embed(features_i).

    For each row, with logits z = features_i @ projection, p = softmax(z)
    and a = table @ upstream, the softmax Jacobian gives
    dL/dz = p * a - (p . a) p; features and projection gradients follow by
    the chain rule, and the table gradient is the outer product
    p (x) upstream summed over rows. Non-finite upstream entries, and
    finite inputs whose gradients overflow, raise `NonFiniteInput`.
    """
    u = np.asarray(upstream, dtype=np.float64)
    if u.shape != (vet.table.shape[1],):
        raise ShapeMismatch(
            f"upstream shape {u.shape} != (d_embed,) = ({vet.table.shape[1]},)"
        )
    if not np.isfinite(u).all():
        raise NonFiniteInput("upstream contains non-finite entries")
    if head.vocab_size != vet.vocab_size:
        raise ShapeMismatch(
            f"head vocabulary {head.vocab_size} != table vocabulary {vet.vocab_size}"
        )

    f, probs = _head_probs(features, head)  # probs: (n, vocab)
    # Finite inputs whose gradients overflow surface as the NonFiniteInput
    # below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        a = vet.table @ u  # (vocab,)
        pa = probs @ a  # (n,)
        d_logits = probs * a[None, :] - probs * pa[:, None]  # (n, vocab)

        d_features = d_logits @ head.projection.T
        d_projection = f.T @ d_logits
        d_table = probs.sum(axis=0)[:, None] * u[None, :]
    if not all(np.isfinite(g).all() for g in (d_features, d_projection, d_table)):
        raise NonFiniteInput("gradients overflow to non-finite values")
    return VetGradients(d_features=d_features, d_projection=d_projection, d_table=d_table)
