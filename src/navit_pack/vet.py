"""Visual head and visual embedding table.

The head maps a patch feature to a probability distribution over a
discrete vocabulary of visual words (temperature-scaled softmax); the
embedding table turns that distribution into the expected value of its
rows. Analytic gradients for the composed map are provided so the
training path can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonFiniteInput, ShapeMismatch

__all__ = [
    "ProbVisualToken",
    "VetGradients",
    "VisualEmbeddingTable",
    "VisualHead",
    "DEFAULT_VOCAB_SIZE",
    "DEFAULT_D_EMBED",
    "head_forward",
    "vet_embed",
    "vet_embed_grad",
]

DEFAULT_VOCAB_SIZE = 64
DEFAULT_D_EMBED = 32


@dataclass(frozen=True)
class VisualHead:
    """Projection onto the visual vocabulary plus a softmax temperature."""

    projection: np.ndarray  # (d_model, vocab_size)
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.projection.ndim != 2 or self.projection.shape[1] < 2:
            raise ShapeMismatch(
                f"projection must be (d_model, vocab>=2), got {self.projection.shape}"
            )
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def vocab_size(self) -> int:
        return self.projection.shape[1]


@dataclass(frozen=True)
class ProbVisualToken:
    """Probability distribution over the visual vocabulary for one patch."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.probs.ndim != 1:
            raise ShapeMismatch(f"probs must be a vector, got shape {self.probs.shape}")
        _check_probs(self.probs[None, :])


def _check_probs(probs: np.ndarray) -> None:
    """Raise unless each row of `probs` (rows, vocab) is a distribution.

    Every entry must be >= 0 and every row must sum to 1 within 1e-9. The
    error names the first bad row's minimum or sum; a row whose sum is
    NaN or infinite raises `NonFiniteInput`.
    """
    lows = probs.min(axis=1)
    totals = probs.sum(axis=1)
    bad = ~((lows >= 0.0) & (np.abs(totals - 1.0) <= 1e-9))
    if not bad.any():
        return
    row = probs[int(np.argmax(bad))]
    if row.min() < 0.0:
        raise ValueError(f"probabilities must be non-negative, min is {row.min()}")
    total = row.sum()
    error = ValueError if np.isfinite(total) else NonFiniteInput
    raise error(f"probabilities must sum to 1, got {total!r}")


@dataclass(frozen=True)
class VisualEmbeddingTable:
    """One embedding row per visual word."""

    table: np.ndarray  # (vocab_size, d_embed)

    def __post_init__(self) -> None:
        if self.table.ndim != 2:
            raise ShapeMismatch(f"table must be 2D, got shape {self.table.shape}")
        if not np.isfinite(self.table).all():
            raise NonFiniteInput("embedding table contains non-finite entries")

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        vocab_size: int = DEFAULT_VOCAB_SIZE,
        d_embed: int = DEFAULT_D_EMBED,
    ) -> "VisualEmbeddingTable":
        return cls(table=rng.uniform(-0.02, 0.02, (vocab_size, d_embed)))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    # One temporary, then in place: at encode sizes (4096 x 64) a fresh
    # array per step took longer than the arithmetic on it.
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def head_forward(features: np.ndarray, head: VisualHead) -> list[ProbVisualToken]:
    """Map each feature row to its distribution over visual words.

    Row i is softmax(features_i @ projection / temperature), computed with
    max subtraction so large logits stay finite. The whole probability
    array is checked once, with the rule `ProbVisualToken` applies to one
    row, and each token holds a view of its row. Logits that overflow to
    infinity give NaN probabilities and raise `NonFiniteInput`, without a
    numpy warning.
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
    # Overflowing logits surface as the NonFiniteInput below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _softmax_rows(f @ head.projection / head.temperature)
    _check_probs(probs)
    # Each row was checked with its array: skip the per-row __post_init__.
    new, set_field = object.__new__, object.__setattr__
    tokens = []
    for row in probs:
        token = new(ProbVisualToken)
        set_field(token, "probs", row)
        tokens.append(token)
    return tokens


def vet_embed(token: ProbVisualToken, vet: VisualEmbeddingTable) -> np.ndarray:
    """Expected embedding: probability-weighted sum of the table rows."""
    if token.probs.shape[0] != vet.vocab_size:
        raise LengthMismatch(
            f"token has {token.probs.shape[0]} probabilities, table has "
            f"{vet.vocab_size} rows"
        )
    return token.probs @ vet.table


@dataclass(frozen=True)
class VetGradients:
    """Gradients of upstream . vet_embed(head_forward(features))."""

    d_features: np.ndarray  # (n, d_model)
    d_projection: np.ndarray  # (d_model, vocab_size)
    d_table: np.ndarray  # (vocab_size, d_embed)


def vet_embed_grad(
    features: np.ndarray,
    head: VisualHead,
    vet: VisualEmbeddingTable,
    upstream: np.ndarray,
) -> VetGradients:
    """Analytic gradients of sum_i upstream . embed(features_i).

    For each row, with p = softmax(z) and a = table @ upstream, the
    softmax Jacobian gives dL/dz = p * a - (p . a) p; features and
    projection gradients follow by the chain rule, and the table gradient
    is the outer product p (x) upstream summed over rows.
    """
    f = np.asarray(features, dtype=np.float64)
    u = np.asarray(upstream, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != head.projection.shape[0]:
        raise ShapeMismatch(f"features shape {f.shape} inconsistent with projection")
    if u.shape != (vet.table.shape[1],):
        raise ShapeMismatch(
            f"upstream shape {u.shape} != (d_embed,) = ({vet.table.shape[1]},)"
        )
    if head.vocab_size != vet.vocab_size:
        raise ShapeMismatch(
            f"head vocabulary {head.vocab_size} != table vocabulary {vet.vocab_size}"
        )

    probs = _softmax_rows(f @ head.projection / head.temperature)  # (n, vocab)
    a = vet.table @ u  # (vocab,)
    pa = probs @ a  # (n,)
    d_logits = probs * a[None, :] - probs * pa[:, None]  # (n, vocab)

    d_features = d_logits @ head.projection.T / head.temperature
    d_projection = f.T @ d_logits / head.temperature
    d_table = probs.sum(axis=0)[:, None] * u[None, :]
    return VetGradients(d_features=d_features, d_projection=d_projection, d_table=d_table)
