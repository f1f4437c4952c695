"""Built-in verification checks behind the `verify` CLI subcommand.

Each check exercises one correctness contract on seeded random fixtures:
gradient agreement with central finite differences, the relative-position
property of rotary embeddings, per-block packed attention against the
dense masked reference, and the first-fit-decreasing bound against
exhaustive optimal packing. A fault flag perturbs exactly one check's
measured values past tolerance, proving the harness detects failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import encoder, objectives, packing, vet
from .errors import ShapeMismatch

__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "max_rel_err",
    "optimal_bin_count",
    "run_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, 1)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float((np.abs(a - n) / denom).max())


def central_diff(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xflat = x.reshape(-1)
    for i in range(xflat.size):
        orig = xflat[i]
        xflat[i] = orig + h
        f_plus = f(x)
        xflat[i] = orig - h
        f_minus = f(x)
        xflat[i] = orig
        flat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


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


def _vet_loss(
    features: np.ndarray, projection: np.ndarray, table: np.ndarray,
    upstream: np.ndarray, temperature: float,
) -> float:
    head = vet.VisualHead(projection=projection, temperature=temperature)
    vet_table = vet.VisualEmbeddingTable(table=table)
    tokens = vet.head_forward(features, head)
    return float(sum(vet.vet_embed(t, vet_table) @ upstream for t in tokens))


def check_vet_grad(seed: int, fault: bool = False, instances: int = 30) -> CheckResult:
    rng = np.random.default_rng([seed, 1])
    tol = 1e-5
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(1, 4))
        d_model = int(rng.integers(2, 5))
        vocab = int(rng.integers(3, 7))
        d_embed = int(rng.integers(2, 5))
        features = rng.uniform(-1.0, 1.0, (n, d_model))
        projection = rng.uniform(-1.0, 1.0, (d_model, vocab))
        table = rng.uniform(-1.0, 1.0, (vocab, d_embed))
        upstream = rng.uniform(-1.0, 1.0, d_embed)
        temperature = float(rng.uniform(0.5, 2.0))

        head = vet.VisualHead(projection=projection, temperature=temperature)
        grads = vet.vet_embed_grad(
            features, head, vet.VisualEmbeddingTable(table=table), upstream
        )
        d_features = grads.d_features + (1e-3 if fault else 0.0)
        for analytic, arg in (
            (d_features, "features"),
            (grads.d_projection, "projection"),
            (grads.d_table, "table"),
        ):
            args = {"features": features, "projection": projection, "table": table}

            def loss_of(x: np.ndarray, _arg: str = arg) -> float:
                current = dict(args)
                current[_arg] = x
                return _vet_loss(
                    current["features"], current["projection"], current["table"],
                    upstream, temperature,
                )

            numeric = central_diff(loss_of, args[arg])
            worst = max(worst, max_rel_err(analytic, numeric))
    return CheckResult(
        name="vet-grad",
        passed=worst < tol,
        detail=f"max rel err {worst:.3e} over {instances} instances (tol {tol:.0e})",
    )


def check_dpo_grad(seed: int, fault: bool = False, instances: int = 30) -> CheckResult:
    rng = np.random.default_rng([seed, 2])
    tol = 1e-6
    worst = 0.0
    for _ in range(instances):
        lps = rng.uniform(-5.0, 5.0, 4)
        cfg = objectives.DpoConfig(
            beta=float(rng.uniform(0.05, 2.0)), nll_weight=float(rng.uniform(0.0, 1.0))
        )

        def loss_of(x: np.ndarray) -> float:
            chosen = objectives.ScoredCandidate("c", float(x[0]), float(x[2]), 1.0)
            rejected = objectives.ScoredCandidate("r", float(x[1]), float(x[3]), 0.0)
            return objectives.dpo_loss(chosen, rejected, cfg).loss

        result = objectives.dpo_loss(
            objectives.ScoredCandidate("c", lps[0], lps[2], 1.0),
            objectives.ScoredCandidate("r", lps[1], lps[3], 0.0),
            cfg,
        )
        analytic = np.array(
            [
                result.d_logprob_policy_chosen + (1e-3 if fault else 0.0),
                result.d_logprob_policy_rejected,
                result.d_logprob_reference_chosen,
                result.d_logprob_reference_rejected,
            ]
        )
        numeric = central_diff(loss_of, lps.copy())
        worst = max(worst, max_rel_err(analytic, numeric))
    return CheckResult(
        name="dpo-grad",
        passed=worst < tol,
        detail=f"max rel err {worst:.3e} over {instances} instances (tol {tol:.0e})",
    )


def check_rope_relative(seed: int, fault: bool = False, draws: int = 1000) -> CheckResult:
    rng = np.random.default_rng([seed, 3])
    config = encoder.RopeConfig(d_head=8)
    q = rng.normal(0.0, 1.0, (draws, config.d_head))
    k = rng.normal(0.0, 1.0, (draws, config.d_head))
    p_q = rng.integers(0, 64, (draws, 2))
    p_k = rng.integers(0, 64, (draws, 2))
    t = rng.integers(0, 64, (draws, 2))

    dots = np.einsum(
        "ij,ij->i", encoder.apply_rope_2d(q, p_q, config), encoder.apply_rope_2d(k, p_k, config)
    )
    shifted = np.einsum(
        "ij,ij->i",
        encoder.apply_rope_2d(q, p_q + t, config),
        encoder.apply_rope_2d(k, p_k + t, config),
    )
    if fault:
        shifted = shifted + 1e-6
    worst_shift = float(np.abs(dots - shifted).max())

    norms_in = np.linalg.norm(q, axis=1)
    norms_out = np.linalg.norm(encoder.apply_rope_2d(q, p_q, config), axis=1)
    worst_norm = float(np.abs(norms_in - norms_out).max())

    identity_ok = np.array_equal(
        encoder.apply_rope_2d(q, np.zeros((draws, 2), dtype=int), config), q
    )
    passed = worst_shift < 1e-9 and worst_norm < 1e-12 and identity_ok
    return CheckResult(
        name="rope-relative",
        passed=passed,
        detail=(
            f"translation dev {worst_shift:.3e} (tol 1e-09), "
            f"norm dev {worst_norm:.3e} (tol 1e-12), "
            f"zero-position identity {'exact' if identity_ok else 'BROKEN'}, "
            f"{draws} draws"
        ),
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
    if x.shape[1] != weights.d_model:
        raise ShapeMismatch(
            f"embeddings have d_model {x.shape[1]}, weights expect {weights.d_model}"
        )
    q = x @ weights.wq
    k = x @ weights.wk
    v = x @ weights.wv
    if rope.enabled:
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


def check_pack_equiv(seed: int, fault: bool = False, trials: int = 26) -> CheckResult:
    rng = np.random.default_rng([seed, 4])
    tol = 1e-6
    d_model, d_head = 8, 8
    worst = 0.0
    for trial in range(trials):
        rope = encoder.RopeConfig(d_head=d_head, enabled=bool(trial % 2))
        weights = encoder.AttentionParams.random(d_model, d_head, rng)
        if trial == trials - 1:
            lengths = [_LONG_BLOCK]
        else:
            lengths = [int(rng.integers(1, 25)) for _ in range(int(rng.integers(1, 9)))]
        n = sum(lengths)
        x = rng.normal(0.0, 1.0, (n, d_model))
        positions = rng.integers(0, 32, (n, 2))
        boundaries = [0]
        for length in lengths:
            boundaries.append(boundaries[-1] + length)
        packed = encoder.PatchSequence(
            embeddings=x, positions=positions, sample_boundaries=tuple(boundaries)
        )
        out = encoder.block_diag_forward(packed, weights, rope)
        if fault:
            out = out + 1e-4
        reference = _dense_block_attention(packed, weights, rope)
        worst = max(worst, float(np.abs(out - reference).max()))
    return CheckResult(
        name="pack-equiv",
        passed=worst < tol,
        detail=f"max abs dev {worst:.3e} from dense masked attention over "
        f"{trials} packings (tol {tol:.0e})",
    )


def check_ffd_opt(seed: int, fault: bool = False, manifests: int = 40) -> CheckResult:
    rng = np.random.default_rng([seed, 5])
    capacity = 12
    worst_margin = -math.inf
    for _ in range(manifests):
        lengths = [int(rng.integers(1, capacity + 1)) for _ in range(int(rng.integers(1, 11)))]
        samples = [
            packing.SampleRecord(f"s{i:02d}", length)
            for i, length in enumerate(lengths)
        ]
        sequences = packing.pack_ffd(samples, capacity)
        placed = sorted(sid for seq in sequences for sid, _, _ in seq.segments)
        if placed != sorted(s.id for s in samples):
            return CheckResult("ffd-opt", False, "packing lost or duplicated a sample")
        opt = optimal_bin_count(lengths, capacity)
        bound = math.ceil(11.0 / 9.0 * opt) + 1
        count = len(sequences) if not fault else bound + 1
        worst_margin = max(worst_margin, count - bound)
        if count > bound:
            return CheckResult(
                "ffd-opt",
                False,
                f"{count} sequences exceeds bound {bound} (opt {opt})",
            )
    return CheckResult(
        name="ffd-opt",
        passed=True,
        detail=f"within ceil(11/9 opt)+1 on {manifests} manifests "
        f"(worst slack {-worst_margin})",
    )


_CHECKS: dict[str, Callable[..., CheckResult]] = {
    "vet-grad": check_vet_grad,
    "dpo-grad": check_dpo_grad,
    "rope-relative": check_rope_relative,
    "pack-equiv": check_pack_equiv,
    "ffd-opt": check_ffd_opt,
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks(
    seed: int, fault: str | None = None, only: tuple[str, ...] | None = None
) -> list[CheckResult]:
    """Run the named checks (all by default) with deterministic seeding."""
    if fault is not None and fault not in _CHECKS:
        raise ValueError(f"unknown fault target {fault!r}; choose from {CHECK_NAMES}")
    names = only if only is not None else CHECK_NAMES
    results = []
    for name in names:
        results.append(_CHECKS[name](seed, fault=(fault == name)))
    return results
