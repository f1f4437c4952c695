"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import math
from contextlib import contextmanager

import numpy as np

from conftest import finite_difference, rel_err, vet_loss
from navit_pack.chat import THINK_CLOSE, THINK_OPEN, parse_thinking
from navit_pack.encoder import (
    AttentionParams,
    PatchSequence,
    RopeConfig,
    apply_rope_2d,
    block_diag_forward,
)
from navit_pack.geometry import (
    BudgetInfeasible,
    ImageSize,
    Phase,
    phase_budget,
    plan_resize,
)
from navit_pack.objectives import DpoConfig, dpo_loss, grpo_advantages
from navit_pack.packing import SampleRecord, pack_ffd, packing_report
from navit_pack.selfcheck import _dense_block_attention, optimal_bin_count
from navit_pack.vet import (
    ProbVisualToken,
    VisualEmbeddingTable,
    VisualHead,
    vet_embed,
    vet_embed_grad,
)
from mutants import MUTANTS, alarm, run_verify
from test_cli import run_cli
from test_encoder import plain_attention
from test_geometry import SMALL, oracle_plan, oracle_plan_fast
from test_vet import loop_expectation


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:02d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


def synthetic_manifest(n, seed, capacity=8192):
    """The documented synthetic manifest for waste measurements.

    Text lengths are log-normal (mu 5.5, sigma 1.0, median ~245 tokens)
    clipped to [1, 4000]; 30% of samples carry one image with sides
    uniform in [64, 1024] pixels, planned under the phase-P2 budget, so
    every sample fits the default 8192 capacity.
    """
    rng = np.random.default_rng(seed)
    budget = phase_budget(Phase.P2)
    samples = []
    for i in range(n):
        text = int(np.clip(round(rng.lognormal(5.5, 1.0)), 1, 4000))
        plans = ()
        if rng.random() < 0.3:
            size = ImageSize(int(rng.integers(64, 1025)), int(rng.integers(64, 1025)))
            plans = (plan_resize(size, budget),)
        samples.append(SampleRecord(f"s{i:05d}", text, plans))
    assert all(s.total_tokens <= capacity for s in samples)
    return samples


def test_c01_budget_constants():
    with criterion(1, "budget constants"):
        p1 = phase_budget(Phase.P1)
        assert (p1.min_pixels, p1.max_pixels) == (200704, 802816)
        for phase in (Phase.P2, Phase.P3):
            b = phase_budget(phase)
            assert (b.min_pixels, b.max_pixels) == (200704, 3211264)
        assert p1.patch_size == 16


def test_c02_geometry_oracle():
    with criterion(2, "geometry vs brute-force grid search"):
        rng = np.random.default_rng(2024)
        checked = 0
        # dumb full enumeration on a small budget
        for _ in range(300):
            w, h = int(rng.integers(1, 2500)), int(rng.integers(1, 2500))
            try:
                plan = plan_resize(ImageSize(w, h), SMALL)
            except BudgetInfeasible:
                continue
            assert (plan.grid_rows, plan.grid_cols) == oracle_plan(w, h, SMALL)
            checked += 1
        # row-scan enumeration on the real phase budgets
        for phase in (Phase.P1, Phase.P2):
            budget = phase_budget(phase)
            for _ in range(150):
                w, h = int(rng.integers(16, 5000)), int(rng.integers(16, 5000))
                try:
                    plan = plan_resize(ImageSize(w, h), budget)
                except BudgetInfeasible:
                    continue
                assert (plan.grid_rows, plan.grid_cols) == oracle_plan_fast(w, h, budget)
                pixels = plan.target.pixels
                assert budget.min_pixels <= pixels <= budget.max_pixels
                assert plan.target.width % budget.patch_size == 0
                assert plan.target.height % budget.patch_size == 0
                aspect = plan.target.aspect / (w / h)
                assert max(aspect, 1 / aspect) <= 2.0 + 1e-9
                checked += 1
        assert checked >= 500, f"only {checked} sizes were feasible"


def test_c03_vet_expectation():
    with criterion(3, "VET expectation vs loop oracle"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            vocab = int(rng.integers(2, 16))
            d_embed = int(rng.integers(1, 8))
            table = VisualEmbeddingTable(table=rng.normal(size=(vocab, d_embed)))
            raw = rng.uniform(0.0, 1.0, vocab) + 1e-9
            probs = raw / raw.sum()
            out = vet_embed(ProbVisualToken(probs=probs), table)
            assert np.abs(out - loop_expectation(probs, table.table)).max() <= 1e-12
        # one-hot and uniform are exact
        table = VisualEmbeddingTable(table=rng.normal(size=(6, 3)))
        onehot = np.zeros(6)
        onehot[4] = 1.0
        assert np.array_equal(vet_embed(ProbVisualToken(probs=onehot), table), table.table[4])
        uniform = vet_embed(ProbVisualToken(probs=np.full(6, 1 / 6)), table)
        assert np.abs(uniform - table.table.mean(axis=0)).max() <= 1e-12


def test_c04_gradient_checks():
    with criterion(4, "analytic gradients vs central differences"):
        rng = np.random.default_rng(4)
        worst_vet = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            d_model = int(rng.integers(2, 5))
            vocab = int(rng.integers(3, 7))
            d_embed = int(rng.integers(2, 5))
            features = rng.uniform(-1, 1, (n, d_model))
            projection = rng.uniform(-1, 1, (d_model, vocab))
            table = rng.uniform(-1, 1, (vocab, d_embed))
            upstream = rng.uniform(-1, 1, d_embed)
            head = VisualHead(projection=projection)
            grads = vet_embed_grad(features, head, VisualEmbeddingTable(table=table), upstream)
            for analytic, numeric in (
                (
                    grads.d_features,
                    finite_difference(
                        lambda f: vet_loss(f, projection, table, upstream),
                        features,
                    ),
                ),
                (
                    grads.d_projection,
                    finite_difference(
                        lambda p: vet_loss(features, p, table, upstream),
                        projection,
                    ),
                ),
                (
                    grads.d_table,
                    finite_difference(
                        lambda t: vet_loss(features, projection, t, upstream),
                        table,
                    ),
                ),
            ):
                worst_vet = max(worst_vet, rel_err(analytic, numeric))
        assert worst_vet < 1e-5, f"vet gradient rel err {worst_vet:.3e}"

        worst_dpo = 0.0
        for _ in range(100):
            lps = rng.uniform(-5.0, 5.0, 4)
            cfg = DpoConfig(
                beta=float(rng.uniform(0.05, 2.0)), nll_weight=float(rng.uniform(0, 1))
            )

            # x is (policy chosen, policy rejected, reference chosen,
            # reference rejected): the order of the four partials.
            def loss_of(x):
                return float(dpo_loss(x[0], x[2], x[1], x[3], cfg)[0])

            analytic = dpo_loss(lps[0], lps[2], lps[1], lps[3], cfg)[1:]
            worst_dpo = max(worst_dpo, rel_err(analytic, finite_difference(loss_of, lps)))
        assert worst_dpo < 1e-6, f"dpo gradient rel err {worst_dpo:.3e}"


def test_c05_rope_properties():
    with criterion(5, "rope norm preservation and relative position"):
        rng = np.random.default_rng(5)
        config = RopeConfig(d_head=8)
        draws = 1200
        q = rng.normal(size=(draws, 8))
        k = rng.normal(size=(draws, 8))
        p_q = rng.integers(0, 64, (draws, 2))
        p_k = rng.integers(0, 64, (draws, 2))
        t = rng.integers(0, 64, (draws, 2))
        dots = np.einsum(
            "ij,ij->i", apply_rope_2d(q, p_q, config), apply_rope_2d(k, p_k, config)
        )
        shifted = np.einsum(
            "ij,ij->i",
            apply_rope_2d(q, p_q + t, config),
            apply_rope_2d(k, p_k + t, config),
        )
        assert np.abs(dots - shifted).max() < 1e-9
        norms = np.linalg.norm(apply_rope_2d(q, p_q, config), axis=1)
        assert np.abs(norms - np.linalg.norm(q, axis=1)).max() < 1e-12
        assert np.array_equal(
            apply_rope_2d(q, np.zeros((draws, 2), dtype=int), config), q
        )


def test_c06_packed_attention_equivalence():
    with criterion(6, "block-diagonal forward vs isolated forwards"):
        rng = np.random.default_rng(6)
        d_model, d_head = 8, 8
        rope = RopeConfig(d_head=d_head)
        worst = 0.0
        for trial in range(200):
            params = AttentionParams.random(d_model, d_head, rng)
            lengths = [int(rng.integers(1, 25)) for _ in range(int(rng.integers(1, 9)))]
            boundaries = [0]
            for length in lengths:
                boundaries.append(boundaries[-1] + length)
            n = boundaries[-1]
            x = rng.normal(size=(n, d_model))
            rotated = bool(trial % 2)  # zero positions leave q and k unrotated
            positions = rng.integers(0, 32, (n, 2)) * rotated
            packed = PatchSequence(
                embeddings=x, positions=positions, sample_boundaries=tuple(boundaries)
            )
            out = block_diag_forward(packed, params, rope)
            for i in range(len(lengths)):
                lo, hi = boundaries[i], boundaries[i + 1]
                if rotated:
                    alone = _dense_block_attention(
                        PatchSequence(
                            embeddings=x[lo:hi],
                            positions=positions[lo:hi],
                            sample_boundaries=(0, hi - lo),
                        ),
                        params,
                        rope,
                    )
                else:
                    alone = plain_attention(x[lo:hi], params)
                worst = max(worst, float(np.abs(out[lo:hi] - alone).max()))
        assert worst < 1e-6, f"max abs deviation {worst:.3e}"


def test_c07_packing_soundness():
    with criterion(7, "packing invariants and FFD bound vs exhaustive OPT"):
        capacity = 8192
        samples = synthetic_manifest(10000, seed=20250301, capacity=capacity)
        first = pack_ffd(samples, capacity)
        second = pack_ffd(samples, capacity)
        assert first == second  # byte-for-byte determinism of the value objects
        placed = [seg for seq in first for seg in seq.segments]
        assert sorted(sid for sid, _, _ in placed) == sorted(s.id for s in samples)
        by_id = {s.id: s.total_tokens for s in samples}
        assert all(length == by_id[sid] for sid, _, length in placed)  # unsplit
        assert sum(length for _, _, length in placed) == sum(by_id.values())
        for seq in first:
            assert sum(seg[2] for seg in seq.segments) + seq.pad_tokens == capacity

        rng = np.random.default_rng(7)
        small_cap = 12
        for _ in range(200):
            lengths = [
                int(rng.integers(1, small_cap + 1))
                for _ in range(int(rng.integers(1, 11)))
            ]
            seqs = pack_ffd(
                [SampleRecord(f"s{i}", n) for i, n in enumerate(lengths)], small_cap
            )
            opt = optimal_bin_count(lengths, small_cap)
            assert len(seqs) <= math.ceil(11.0 / 9.0 * opt) + 1


def test_c08_waste_reduction():
    with criterion(8, "packing beats naive padding on the documented manifest"):
        samples = synthetic_manifest(4000, seed=20250302)
        report = packing_report(
            samples, pack_ffd(samples, 8192), capacity=8192, batch_size=8
        )
        assert report.packed_pad_fraction < report.naive_pad_fraction
        assert report.useful_token_speedup_proxy > 1.0

        fixture = [SampleRecord("a", 10), SampleRecord("b", 1)]
        fixture_report = packing_report(
            fixture, pack_ffd(fixture, 11), capacity=11, batch_size=2
        )
        assert abs(fixture_report.useful_token_speedup_proxy - 20.0 / 11.0) <= 1e-9


def test_c09_dpo_anchors():
    with criterion(9, "DPO anchor values"):
        equal, *_ = dpo_loss(-1.0, -1.0, -1.0, -1.0, DpoConfig(beta=0.25, nll_weight=0.0))
        assert abs(equal - math.log(2.0)) <= 1e-12
        saturated, *_ = dpo_loss(50.0, 0.0, 0.0, 0.0, DpoConfig(beta=1.0, nll_weight=0.0))
        assert 0.0 <= saturated < 1e-9


def test_c10_grpo_anchors():
    with criterion(10, "GRPO anchor values"):
        np.testing.assert_allclose(
            grpo_advantages([1.0, 0.0, 1.0, 0.0]), [1.0, -1.0, 1.0, -1.0], atol=1e-7
        )
        assert grpo_advantages([3.0, 3.0, 3.0]) == [0.0, 0.0, 0.0]
        rng = np.random.default_rng(10)
        rewards = rng.normal(size=9)
        np.testing.assert_allclose(
            grpo_advantages(rewards.tolist()), grpo_advantages((rewards + 250.0).tolist()),
            atol=1e-6,
        )


def test_c11_chat_roundtrip():
    with criterion(11, "render/parse roundtrip on delimiter-free pairs"):
        rng = np.random.default_rng(11)
        alphabet = np.array(list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789 .,!?-"))
        for _ in range(1000):
            t = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
            a = "".join(rng.choice(alphabet, size=rng.integers(0, 40))).strip()
            out = parse_thinking(f"{THINK_OPEN}{t}{THINK_CLOSE}{a}")
            assert out.thinking == t
            assert out.answer == a
            assert THINK_OPEN not in out.answer
            assert THINK_CLOSE not in out.answer


def test_c12_end_to_end_determinism_and_faults(monkeypatch):
    with criterion(12, "verify determinism and mutant detection"):
        first = run_cli("verify", "--seed", "0")
        second = run_cli("verify", "--seed", "0")
        assert first.returncode == 0, first.stdout + first.stderr
        assert first.stdout == second.stdout and first.stderr == second.stderr

        for label, mutant in MUTANTS.items():
            if mutant.check is None:
                continue
            with monkeypatch.context() as m:
                m.setattr(mutant.module, mutant.attr, mutant.replacement())
                for seed in ("0", "1", "2"):
                    with alarm(f"{label}, seed {seed}"):
                        code, statuses, err = run_verify("verify", "--seed", seed)
                    failed = [name for name, status in statuses.items() if status == "FAIL"]
                    assert failed == [mutant.check], f"{label}, seed {seed}: {failed} failed"
                    assert code == 1
                    assert err == f"failed checks: {mutant.check}\n"
