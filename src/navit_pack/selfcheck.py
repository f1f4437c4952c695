"""Built-in verification checks behind the `verify` CLI subcommand.

Each check exercises one correctness contract on seeded random fixtures:
gradient agreement with central finite differences, rotary embeddings
against their closed form and their relative-position property, per-block
packed attention against the dense masked reference, and
first-fit-decreasing packing against a plain first-fit scan and
exhaustive optimal packing. The tests show that each check catches a
broken copy of the code it guards. A `check_*` function returns only its
verdict, `(passed, detail)`; `_CHECKS` alone names the checks and orders them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

import numpy as np

from . import encoder, objectives, packing, vet
from .errors import _clipped
from .records import _Value

__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "linear_first_fit",
    "max_rel_err",
    "optimal_bin_count",
    "run_checks",
]


# Random fixtures per check; pack-equiv's last packing is one _LONG_BLOCK.
_GRAD_INSTANCES = 30
_ROPE_DRAWS = 1000
_PACK_TRIALS = 26
_FFD_MANIFESTS = 40
_STEP = 1e-6  # finite-difference step h


class CheckResult(namedtuple("CheckResult", "name passed detail"), _Value):
    __slots__ = ()


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, 1)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float((np.abs(a - n) / denom).max())


def stacked_central_diff(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar function at x from one call of f,
    which maps every x + h*e_i, then every x - h*e_i, stacked on a new leading axis, to
    one value each; h is `_STEP`."""
    x = np.asarray(x, dtype=np.float64)
    steps = (_STEP * np.eye(x.size)).reshape(x.size, *x.shape)
    values = f(np.concatenate([x + steps, x - steps]))
    return ((values[: x.size] - values[x.size :]) / (2.0 * _STEP)).reshape(x.shape)


def optimal_bin_count(lengths: list[int], capacity: int) -> int:
    """Exhaustive minimum number of capacity-sized bins (branch and bound)."""
    items = sorted(lengths, reverse=True)
    if any(length > capacity for length in items):
        raise ValueError("an item exceeds capacity")
    best = len(items) if items else 0
    loads: list[int] = []

    def place(i: int) -> None:
        nonlocal best
        if len(loads) >= best:
            return
        if i == len(items):
            best = len(loads)
            return
        size = items[i]
        tried: set[int] = set()
        for b, load in enumerate(loads):
            if load + size <= capacity and load not in tried:
                tried.add(load)
                loads[b] += size
                place(i + 1)
                loads[b] -= size
        loads.append(size)
        place(i + 1)
        loads.pop()

    place(0)
    return best


def linear_first_fit(samples: list[packing.SampleRecord], capacity: int) -> list[list[str]]:
    """First-fit decreasing by a plain scan of the open bins, left to right.

    The oracle for `pack_ffd`'s segment tree: ids per bin, in bin order.
    """
    bins: list[list[packing.SampleRecord]] = []
    for s in sorted(samples, key=lambda s: (-s.total_tokens, s.id)):
        for contents in bins:
            if sum(x.total_tokens for x in contents) + s.total_tokens <= capacity:
                contents.append(s)
                break
        else:
            bins.append([s])
    return [[s.id for s in contents] for contents in bins]


def _vet_losses(
    features: np.ndarray, projection: np.ndarray, table: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """sum over rows of upstream . (softmax(features @ projection) @ table), written
    apart from `vet.head_forward` and `vet.vet_embed`. Any one argument may be a
    stack of inputs along a leading axis; the result has one loss per input."""
    logits = features @ projection
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return ((probs @ table) @ upstream).sum(axis=-1)


def _vet_fixtures(seed: int):
    """The `vet-grad` instances of `seed`: (features, projection, table, upstream)."""
    rng = np.random.default_rng([seed, 1])
    for _ in range(_GRAD_INSTANCES):
        n = int(rng.integers(1, 4))
        d_model = int(rng.integers(2, 5))
        vocab = int(rng.integers(3, 7))
        d_embed = int(rng.integers(2, 5))
        features = rng.uniform(-1.0, 1.0, (n, d_model))
        projection = rng.uniform(-1.0, 1.0, (d_model, vocab))
        table = rng.uniform(-1.0, 1.0, (vocab, d_embed))
        upstream = rng.uniform(-1.0, 1.0, d_embed)
        yield features, projection, table, upstream


def _grad_result(worst: float, tol: float) -> tuple[bool, str]:
    """The verdict of a gradient check whose worst relative error is `worst`."""
    return worst < tol, f"max rel err {worst:.3e} over {_GRAD_INSTANCES} instances (tol {tol:.0e})"


def check_vet_grad(seed: int) -> tuple[bool, str]:
    tol = 1e-5
    worst = 0.0
    for features, projection, table, upstream in _vet_fixtures(seed):
        head = vet.VisualHead(projection=projection)
        grads = vet.vet_embed_grad(
            features, head, vet.VisualEmbeddingTable(table=table), upstream
        )
        args = {"features": features, "projection": projection, "table": table}
        for arg, value in args.items():

            def losses(x: np.ndarray, _arg: str = arg) -> np.ndarray:
                return _vet_losses(**{**args, _arg: x}, upstream=upstream)

            numeric = stacked_central_diff(losses, value)
            worst = max(worst, max_rel_err(getattr(grads, f"d_{arg}"), numeric))
    return _grad_result(worst, tol)


def check_dpo_grad(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng([seed, 2])
    tol = 1e-6
    worst = 0.0
    for _ in range(_GRAD_INSTANCES):
        lps = rng.uniform(-5.0, 5.0, 4)
        cfg = objectives.DpoConfig(
            beta=float(rng.uniform(0.05, 2.0)), nll_weight=float(rng.uniform(0.0, 1.0))
        )

        def losses(x: np.ndarray) -> np.ndarray:
            rows = x[:, [0, 2, 1, 3]].tolist()
            return np.asarray([objectives.dpo_loss(*row, cfg)[0] for row in rows])

        _, *partials = objectives.dpo_loss(*lps[[0, 2, 1, 3]].tolist(), cfg)
        numeric = stacked_central_diff(losses, lps)
        worst = max(worst, max_rel_err(np.asarray(partials), numeric))
    return _grad_result(worst, tol)


def _rope_closed_form(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The 2D RoPE rule by complex multiplication, written apart from `encoder`.

    Pair i = (2i, 2i+1) of the first half of the head dimensions, read as
    the complex number x[2i] + 1j*x[2i+1], is multiplied by
    exp(1j*theta_i*row), and pair i of the second half by
    exp(1j*theta_i*col), with theta_i = 10^4^(-2i / (d_head / 2)).
    """
    n, d_head = x.shape
    d_axis = d_head // 2
    theta = 10000.0 ** (-2.0 * np.arange(d_axis // 2) / d_axis)
    angles = np.hstack([np.outer(positions[:, 0], theta), np.outer(positions[:, 1], theta)])
    turned = (x[:, 0::2] + 1j * x[:, 1::2]) * np.exp(1j * angles)
    return np.stack([turned.real, turned.imag], axis=2).reshape(n, d_head)


def check_rope_relative(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng([seed, 3])
    config = encoder.RopeConfig(d_head=8)
    q = rng.normal(0.0, 1.0, (_ROPE_DRAWS, config.d_head))
    k = rng.normal(0.0, 1.0, (_ROPE_DRAWS, config.d_head))
    p_q = rng.integers(0, 64, (_ROPE_DRAWS, 2))
    p_k = rng.integers(0, 64, (_ROPE_DRAWS, 2))
    t = rng.integers(0, 64, (_ROPE_DRAWS, 2))

    rotated = encoder.apply_rope_2d(q, p_q, config)
    worst_closed = float(np.abs(rotated - _rope_closed_form(q, p_q)).max())

    dots = np.einsum("ij,ij->i", rotated, encoder.apply_rope_2d(k, p_k, config))
    shifted = np.einsum(
        "ij,ij->i",
        encoder.apply_rope_2d(q, p_q + t, config),
        encoder.apply_rope_2d(k, p_k + t, config),
    )
    worst_shift = float(np.abs(dots - shifted).max())

    norms_in = np.linalg.norm(q, axis=1)
    norms_out = np.linalg.norm(rotated, axis=1)
    worst_norm = float(np.abs(norms_in - norms_out).max())

    identity_ok = np.array_equal(
        encoder.apply_rope_2d(q, np.zeros((_ROPE_DRAWS, 2), dtype=int), config), q
    )
    passed = worst_closed < 1e-12 and worst_shift < 1e-9 and worst_norm < 1e-12 and identity_ok
    return passed, (
        f"closed-form dev {worst_closed:.3e} (tol 1e-12), "
        f"translation dev {worst_shift:.3e} (tol 1e-09), "
        f"norm dev {worst_norm:.3e} (tol 1e-12), "
        f"zero-position identity {'exact' if identity_ok else 'BROKEN'}, "
        f"{_ROPE_DRAWS} draws"
    )


def _dense_block_attention(
    packed: encoder.PatchSequence,
    weights: encoder.AttentionParams,
    rope: encoder.RopeConfig,
) -> np.ndarray:
    """Reference for `encoder.block_diag_forward`: dense masked attention.

    Builds the full n x n score matrix and puts an additive -inf on every
    cross-sample entry before the softmax. Quadratic in the whole sequence
    length, so only for small fixtures.
    """
    x = np.asarray(packed.embeddings, dtype=np.float64)
    q = x @ weights.wq
    k = x @ weights.wk
    v = x @ weights.wv
    q = encoder.apply_rope_2d(q, packed.positions, rope)
    k = encoder.apply_rope_2d(k, packed.positions, rope)

    n = x.shape[0]
    scores = (q @ k.T) / np.sqrt(weights.d_head)
    block_id = np.empty(n, dtype=int)
    b = packed.sample_boundaries
    for i in range(len(b) - 1):
        block_id[b[i] : b[i + 1]] = i
    scores[block_id[:, None] != block_id[None, :]] = -np.inf

    return vet._softmax_rows(scores) @ v @ weights.wo


# One block this long spans two row tiles of `encoder.block_diag_forward`
# (2^17 // 400 = 327 rows per tile), and the dense reference stays at 160k
# scores.
_LONG_BLOCK = 400


def check_pack_equiv(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng([seed, 4])
    tol = 1e-6
    d_model, d_head = 8, 8
    rope = encoder.RopeConfig(d_head=d_head)
    worst = 0.0
    for trial in range(_PACK_TRIALS):
        weights = encoder.AttentionParams.random(d_model, d_head, rng)
        if trial == _PACK_TRIALS - 1:
            lengths = [_LONG_BLOCK]
        else:
            lengths = [int(rng.integers(1, 25)) for _ in range(int(rng.integers(1, 9)))]
        n = sum(lengths)
        x = rng.normal(0.0, 1.0, (n, d_model))
        # Even trials zero the positions, which turns the rotation off.
        positions = rng.integers(0, 32, (n, 2)) * (trial % 2)
        boundaries = [0]
        for length in lengths:
            boundaries.append(boundaries[-1] + length)
        packed = encoder.PatchSequence(
            embeddings=x, positions=positions, sample_boundaries=tuple(boundaries)
        )
        out = encoder.block_diag_forward(packed, weights, rope)
        reference = _dense_block_attention(packed, weights, rope)
        worst = max(worst, float(np.abs(out - reference).max()))
    return worst < tol, (
        f"max abs dev {worst:.3e} from dense masked attention over "
        f"{_PACK_TRIALS} packings (tol {tol:.0e})"
    )


def check_ffd_opt(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng([seed, 5])
    capacity = 12
    worst_margin = -math.inf
    for _ in range(_FFD_MANIFESTS):
        lengths = [int(rng.integers(1, capacity + 1)) for _ in range(int(rng.integers(1, 11)))]
        # Ids in a fixed order other than the input's (7i mod 11), so that
        # equal lengths must be ordered by id, not by input position.
        samples = [
            packing.SampleRecord(f"s{(7 * i) % 11:02d}", length)
            for i, length in enumerate(lengths)
        ]
        sequences = packing.pack_ffd(samples, capacity)
        contents = [[sid for sid, _ in seq.lengths] for seq in sequences]
        if contents != linear_first_fit(samples, capacity):
            return False, "bins differ from a plain first-fit scan"
        opt = optimal_bin_count(lengths, capacity)
        bound = math.ceil(11.0 / 9.0 * opt) + 1
        count = len(sequences)
        worst_margin = max(worst_margin, count - bound)
        if count > bound:
            return False, f"{count} sequences exceeds bound {bound} (opt {opt})"
    return True, (
        f"within ceil(11/9 opt)+1 on {_FFD_MANIFESTS} manifests (worst slack {-worst_margin})"
    )


_CHECKS: dict[str, Callable[[int], tuple[bool, str]]] = {
    "vet-grad": check_vet_grad,
    "dpo-grad": check_dpo_grad,
    "rope-relative": check_rope_relative,
    "pack-equiv": check_pack_equiv,
    "ffd-opt": check_ffd_opt,
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks(seed: int) -> list[CheckResult]:
    """Run every check seeded, in `CHECK_NAMES` order, and name each result by its `_CHECKS`
    key; one that raises or returns no `(passed, detail)` pair fails with the error as detail."""
    results = []
    for name in CHECK_NAMES:
        try:
            passed, detail = _CHECKS[name](seed)
        except Exception as e:
            passed, detail = False, _clipped(f"raised {type(e).__name__}: {e}")
        results.append(CheckResult(name, passed, detail))
    return results
