"""Preference pairs, DPO loss and gradients, GRPO advantages, scoring."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import finite_difference, rel_err
from mutants import grpo_row_agrees, numpy_dpo_losses
from navit_pack import cli
from navit_pack.chat import ThinkingOutput
from navit_pack.errors import NonFiniteInput
from navit_pack.objectives import (
    GRPO_EPSILON,
    AnswerKind,
    DpoConfig,
    GroupTooSmall,
    PreferenceGroup,
    UnknownAnswerLetter,
    UnparseableNumeric,
    dpo_loss,
    grpo_advantages,
    mcq_to_fill_in_blank,
    pair_indices,
    parse_group_line,
    verify_answer,
)


def group_of(scores, query_id="q"):
    k = len(scores)
    return PreferenceGroup(
        query_id,
        tuple(f"resp{i}" for i in range(k)),
        tuple(-1.0 - i for i in range(k)),
        tuple(-1.5 - i for i in range(k)),
        tuple(map(float, scores)),
    )


class TestPairIndices:
    def test_two_candidates_strict_order(self):
        assert pair_indices([1.0, 0.0], margin=0.0) == [(0, 1)]

    def test_equal_scores_empty(self):
        assert pair_indices([2.0, 2.0, 2.0], margin=0.0) == []

    def test_three_scores_ordering(self):
        assert pair_indices([2.0, 1.0, 0.0], margin=0.0) == [(0, 2), (0, 1), (1, 2)]

    def test_margin_filters_small_gaps(self):
        assert pair_indices([2.0, 1.0, 0.0], margin=1.0) == [(0, 2)]

    @given(
        scores=st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=2, max_size=6
        ),
        margin=st.floats(min_value=0, max_value=2, allow_nan=False),
    )
    def test_exhaustive_double_loop_oracle(self, scores, margin):
        got = set(pair_indices(group_of(scores).scores, margin))
        expected = {
            (i, j)
            for i in range(len(scores))
            for j in range(len(scores))
            if scores[i] - scores[j] > margin
        }
        assert got == expected

    def test_group_needs_two(self):
        with pytest.raises(GroupTooSmall):
            group_of([1.0])

    def test_duplicate_responses_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PreferenceGroup("q", ("same", "same"), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))

    def test_difficulty_filter_uses_score_variance(self, tmp_path, capsys):
        assert group_of([1.0, 0.0]).score_variance() == 0.25
        assert group_of([1.0, 1.0]).score_variance() == 0.0
        groups = tmp_path / "g.jsonl"
        groups.write_text(
            "".join(
                json.dumps(
                    {
                        "query_id": query_id,
                        "candidates": [
                            {"response": f"r{k}", "logprob_policy": -1.0,
                             "logprob_reference": -1.0, "score": s}
                            for k, s in enumerate(scores)
                        ],
                    }
                )
                + "\n"
                for query_id, scores in (("spread", [1.0, 0.0]), ("flat", [1.0, 1.0]))
            ),
            encoding="utf-8",
        )
        kept = {}
        for threshold in ("0.1", "0.0"):
            argv = ["prefs", "grpo", "--groups", str(groups), "--min-score-variance", threshold]
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            kept[threshold] = [json.loads(line)["query_id"] for line in out.splitlines()]
        assert kept == {"0.1": ["spread"], "0.0": ["spread", "flat"]}


class TestDpoLoss:
    def test_equal_logprobs_is_ln_two(self):
        loss, *_ = dpo_loss(-2.0, -2.0, -2.0, -2.0, DpoConfig(beta=0.7))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturation_at_large_margin(self):
        loss, *_ = dpo_loss(50.0, 0.0, 0.0, 0.0, DpoConfig(beta=1.0, nll_weight=0.0))
        assert 0.0 <= loss < 1e-9

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(60):
            lps = rng.uniform(-5.0, 5.0, 4)
            cfg = DpoConfig(beta=float(rng.uniform(0.05, 2.0)), nll_weight=float(rng.uniform(0, 1)))

            # x is (policy chosen, policy rejected, reference chosen,
            # reference rejected): the order of the four partials.
            def loss_of(x):
                return float(dpo_loss(x[0], x[2], x[1], x[3], cfg)[0])

            analytic = dpo_loss(lps[0], lps[2], lps[1], lps[3], cfg)[1:]
            worst = max(worst, rel_err(analytic, finite_difference(loss_of, lps)))
        assert worst < 1e-6

    def test_example_config_gradcheck(self):
        cfg = DpoConfig(beta=0.1, nll_weight=0.3)
        lps = np.array([-1.2, -0.4, -1.0, -0.6])

        def loss_of(x):
            return float(dpo_loss(x[0], x[2], x[1], x[3], cfg)[0])

        analytic = dpo_loss(lps[0], lps[2], lps[1], lps[3], cfg)[1:]
        assert rel_err(analytic, finite_difference(loss_of, lps)) < 1e-6

    def test_shift_invariance_without_nll(self):
        cfg = DpoConfig(beta=0.3, nll_weight=0.0)
        base, *_ = dpo_loss(-1.0, -2.0, -3.0, -1.5, cfg)
        shifted, *_ = dpo_loss(-1.0 + 7.5, -2.0 + 7.5, -3.0 + 7.5, -1.5 + 7.5, cfg)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_nll_term_is_absolute(self):
        cfg = DpoConfig(beta=0.3, nll_weight=0.5)
        base, *_ = dpo_loss(-1.0, -2.0, -3.0, -1.5, cfg)
        shifted, *_ = dpo_loss(-2.0, -3.0, -4.0, -2.5, cfg)
        assert shifted == pytest.approx(base + 0.5, abs=1e-12)

    def test_swap_antisymmetry(self):
        cfg = DpoConfig(beta=0.4, nll_weight=0.0)
        chosen, rejected = (-1.0, -2.0), (-3.0, -1.5)
        forward, *_ = dpo_loss(*chosen, *rejected, cfg)
        backward, *_ = dpo_loss(*rejected, *chosen, cfg)
        m = cfg.beta * ((-1.0 + 2.0) - (-3.0 + 1.5))
        assert forward == pytest.approx(float(np.logaddexp(0.0, -m)), abs=1e-12)
        assert backward == pytest.approx(float(np.logaddexp(0.0, m)), abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            PreferenceGroup("q", ("a", "b"), (float("nan"), 0.0), (0.0, 0.0), (1.0, 0.0))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DpoConfig(beta=0.0)
        with pytest.raises(ValueError):
            DpoConfig(beta=1.0, nll_weight=-0.1)


def math_dpo(lp_c, lr_c, lp_r, lr_r, beta, nll):
    """Loss and partials from the pinned form with plain `math`: softplus
    and sigmoid in their overflow-free forms, no shared code."""
    z = beta * ((lp_c - lr_c) - (lp_r - lr_r))
    softplus = max(-z, 0.0) + math.log1p(math.exp(-abs(z)))  # log(1 + e^-z)
    if z >= 0:
        sigmoid_neg = math.exp(-z) / (1.0 + math.exp(-z))
    else:
        sigmoid_neg = 1.0 / (1.0 + math.exp(z))
    g = -beta * sigmoid_neg
    return softplus + nll * (-lp_c), g - nll, -g, -g, g


class TestDpoLosses:
    @pytest.mark.parametrize("nll", [0.0, 0.25])
    def test_matches_math_reference_on_both_sides_of_z_40(self, nll):
        rng = np.random.default_rng(11)
        n = 4000
        lp_c, lr_c, lp_r, lr_r = rng.uniform(-60.0, 0.0, (4, n))
        beta = 2.0
        cfg = DpoConfig(beta=beta, nll_weight=nll)
        z = beta * ((lp_c - lr_c) - (lp_r - lr_r))
        assert (z < 40).sum() > 100 and (z >= 40).sum() > 100
        for k, row in enumerate(zip(lp_c.tolist(), lr_c.tolist(), lp_r.tolist(), lr_r.tolist())):
            want = math_dpo(*row, beta, cfg.nll_weight)
            for got, expected in zip(dpo_loss(*row, cfg), want):
                assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0), (k, got, expected)

    def test_one_pair_call_equals_its_row(self):
        """A call on numpy scalars equals its row of the calls that `verify`
        maps over a stack's `tolist()` rows, bit for bit."""
        rng = np.random.default_rng(12)
        cfg = DpoConfig(beta=3.0, nll_weight=0.1)
        lps = rng.uniform(-30.0, 0.0, (4, 50))
        rows = [dpo_loss(*row, cfg) for row in lps.T.tolist()]
        for k in range(50):
            assert dpo_loss(*lps[:, k], cfg) == rows[k]

    def test_overflow_is_non_finite_without_warning(self):
        with np.errstate(all="raise"):
            loss, *grads = dpo_loss(-1e308, 1e308, 0.0, 0.0, DpoConfig())
        assert loss == math.inf
        assert all(np.isfinite(g) for g in grads)


class TestGrpoAdvantages:
    @given(
        arrays(
            np.float64,
            st.integers(2, 40),
            elements=st.floats(-1e308, 1e308, allow_nan=False),
        )
    )
    def test_finite_and_bounded_exactly_when_variance_is(self, rewards):
        """Advantages are finite, with |a| <= sqrt(n), exactly when the score
        variance that `--min-score-variance` reads is finite; else all nan."""
        rewards = rewards.tolist()
        advantages = grpo_advantages(rewards)
        again = grpo_advantages(tuple(rewards))
        assert np.array(advantages).tobytes() == np.array(again).tobytes()
        if math.isfinite(group_of(rewards).score_variance()):
            bound = math.sqrt(len(rewards)) * (1.0 + 1e-9)
            assert all(abs(a) <= bound for a in advantages)
        else:
            assert all(map(math.isnan, advantages))

    def test_sum_of_squares_of_a_group_of_nine(self):
        rewards = [3.0, 1.0, 2.0, 0.5, 7.25, 1.0, 1.0, 4.0, 2.0]
        advantages = grpo_advantages(rewards)
        std = math.sqrt(group_of(rewards).score_variance())
        assert abs(sum(advantages)) < 1e-12 * len(rewards)
        squares = sum(a * a for a in advantages) / len(rewards)
        assert squares == pytest.approx((std / (std + GRPO_EPSILON)) ** 2, rel=1e-12)

    def test_overflowing_variance_gives_nan_without_warning(self):
        with np.errstate(all="raise"):
            advantages = grpo_advantages([1e308, -1e308])
        assert np.isnan(advantages).all()
        assert grpo_advantages([1.0, 0.0]) == [0.5 / (0.5 + GRPO_EPSILON), -0.5 / (0.5 + GRPO_EPSILON)]

    def test_one_group_of_two_or_more_rewards(self):
        with pytest.raises(GroupTooSmall):
            grpo_advantages([1.0])
        with pytest.raises(TypeError):
            grpo_advantages([[1.0, 0.0], [2.0, 3.0]])

    def test_symmetric_binary_rewards(self):
        advantages = grpo_advantages([1.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(advantages, [1.0, -1.0, 1.0, -1.0], atol=1e-7)

    def test_constant_rewards_all_zero(self):
        assert grpo_advantages([2.5, 2.5, 2.5]) == [0.0, 0.0, 0.0]

    def test_hand_computed_example(self):
        advantages = grpo_advantages([3.0, 1.0, 2.0])
        np.testing.assert_allclose(advantages, [1.2247, -1.2247, 0.0], atol=1e-4)

    def test_mean_is_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            rewards = rng.normal(size=int(rng.integers(2, 12))).tolist()
            assert abs(np.mean(grpo_advantages(rewards))) < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        rewards = rng.normal(size=8)
        base = grpo_advantages(rewards.tolist())
        shifted = grpo_advantages((rewards + 500.0).tolist())
        np.testing.assert_allclose(base, shifted, atol=1e-6)

    def test_scale_equivariance_up_to_eps(self):
        # With std well above eps, positive scaling cancels out.
        rng = np.random.default_rng(3)
        for c in (0.5, 2.0, 4.0):
            rewards = rng.normal(0.0, 1.0, 10)
            rewards = rewards / rewards.std() * 0.5  # std 0.5 >> eps
            base = grpo_advantages(rewards.tolist())
            scaled = grpo_advantages((rewards * c).tolist())
            np.testing.assert_allclose(base, scaled, atol=1e-6)

    def test_group_too_small(self):
        with pytest.raises(GroupTooSmall):
            grpo_advantages([1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            grpo_advantages([1.0, float("inf")])


def dpo_edge_rows():
    """Pairs at the edges of `dpo_loss`: z = 0, z either side of 40 at
    beta 1, and every mix of -1e308, 0 and 1e308 logprobs (z = ±inf or nan)."""
    rows = [(-2.0, -2.0, -2.0, -2.0), (-1.0, -3.0, -4.0, -6.0)]
    for z in (np.nextafter(40.0, 0.0), 40.0, np.nextafter(40.0, 100.0)):
        rows.append((float(z), 0.0, 0.0, 0.0))
    edges = (-1e308, 0.0, 1e308)
    rows += [(a, b, c, d) for a in edges for b in edges for c in edges for d in edges]
    return rows


class TestNumpyForms:
    """The library against the numpy forms it replaced, `mutants.numpy_dpo_losses`
    and `mutants.numpy_grpo_rows`, on random inputs and at the edges."""

    @pytest.mark.parametrize("beta, nll", [(0.1, 0.0), (1.0, 0.0), (2.0, 0.25), (0.05, -0.0)])
    def test_dpo_matches_numpy_form(self, beta, nll):
        rng = np.random.default_rng(31)
        random = rng.uniform(-60.0, 0.0, (4, 2000)) * 10.0 ** rng.integers(-3, 4, (4, 2000))
        cfg = DpoConfig(beta=beta, nll_weight=nll)
        for rows in (random.T.tolist(), dpo_edge_rows()):
            got = [dpo_loss(*row, cfg) for row in rows]
            with np.errstate(all="ignore"):
                want = [c.tolist() for c in numpy_dpo_losses(*zip(*rows), cfg)]
            assert [repr(pair[0]) for pair in got] == list(map(repr, want[0]))
            for k, theirs in enumerate(want[1:], start=1):
                for pair, b in zip(got, theirs, strict=True):
                    a = pair[k]
                    assert math.isfinite(a) == math.isfinite(b), (a, b)
                    # numpy's vectorized `exp` may differ from libm's by an
                    # ulp. Once exp(z) >= 2**53, 1 + exp(z) rounds, and the
                    # two sums can land two ulps apart; an ulp of g can be
                    # half the relative size of an ulp of the sum, so g
                    # may differ by up to four ulps.
                    if math.isfinite(a):
                        assert abs(a - b) <= 4 * np.spacing(abs(b)), (a, b)

    def test_grpo_matches_numpy_form(self):
        rng = np.random.default_rng(32)
        rows = [[1e308, -1e308], [1e308, 1e308, -1e308], [-0.0, 0.0], [-0.0, -0.0, -0.0]]
        rows += [[0.5] * k for k in (2, 7, 9)]
        for n in range(400):
            k = int(rng.integers(2, 8)) if n % 4 else int(rng.integers(8, 41))
            if n % 3 == 0:
                rows.append((rng.integers(0, 5, k) / 4.0).tolist())
            else:
                rows.append((rng.normal(size=k) * 10.0 ** rng.integers(-6, 7, k)).tolist())
        got = [grpo_advantages(rewards) for rewards in rows]
        for row, rewards in zip(got, rows, strict=True):
            assert grpo_row_agrees(row, rewards), rewards
            if len(rewards) < 8:
                with np.errstate(over="ignore", invalid="ignore"):
                    want = float(np.var(rewards))
                assert repr(group_of(rewards).score_variance()) == repr(want)
        assert all(math.isnan(a) for a in got[0] + got[1])


def answer(text, thinking=None):
    return ThinkingOutput(thinking=thinking, answer=text)


class TestVerifyAnswer:
    def test_numeric_whitespace(self):
        assert verify_answer(answer("  42 "), "42", AnswerKind.NUMERIC) == 1

    def test_choice_letter_punctuation_case(self):
        assert verify_answer(answer("B."), "b", AnswerKind.CHOICE_LETTER) == 1

    def test_exact_ignores_thinking(self):
        out = answer("124", thinking="counting toothpicks at length")
        assert verify_answer(out, "124", AnswerKind.EXACT) == 1

    def test_exact_normalization(self):
        assert verify_answer(answer("  The   Answer "), "the answer", AnswerKind.EXACT) == 1
        assert verify_answer(answer("other"), "answer", AnswerKind.EXACT) == 0

    def test_numeric_relative_tolerance(self):
        assert verify_answer(answer("1000000.2"), "1000000.1", AnswerKind.NUMERIC) == 1
        assert verify_answer(answer("1.2"), "1.1", AnswerKind.NUMERIC) == 0
        assert verify_answer(answer("0"), "0.0", AnswerKind.NUMERIC) == 1

    def test_numeric_unparseable_raises(self):
        with pytest.raises(UnparseableNumeric):
            verify_answer(answer("about 3"), "3", AnswerKind.NUMERIC)
        with pytest.raises(UnparseableNumeric):
            verify_answer(answer("3"), "three", AnswerKind.NUMERIC)

    def test_choice_letter_rejects_words(self):
        assert verify_answer(answer("maybe"), "b", AnswerKind.CHOICE_LETTER) == 0

    def test_idempotent_under_normalization(self):
        for text in ("  A ", "Senegal", " 42 "):
            normalized = " ".join(text.split()).casefold()
            assert verify_answer(answer(normalized), normalized, AnswerKind.EXACT) == 1

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            verify_answer(answer("x"), "", AnswerKind.EXACT)


class TestMcqConversion:
    def test_numeric_options(self):
        question, gold = mcq_to_fill_in_blank("How many?", [("A", "18"), ("B", "20")], "A")
        assert question == "How many?"
        assert gold == "18"

    def test_missing_letter_raises(self):
        with pytest.raises(UnknownAnswerLetter):
            mcq_to_fill_in_blank("Q", [("A", "18"), ("B", "20")], "C")

    def test_country_options(self):
        _, gold = mcq_to_fill_in_blank(
            "Which country?",
            [("A", "Senegal"), ("B", "Ghana"), ("C", "Mali")],
            "A",
        )
        assert gold == "Senegal"
        assert verify_answer(answer("senegal"), gold, AnswerKind.EXACT) == 1

    def test_letter_case_insensitive(self):
        _, gold = mcq_to_fill_in_blank("Q", [("A", "x"), ("B", "y")], "b")
        assert gold == "y"


class TestGroupParsing:
    GOOD = (
        '{"query_id": "q1", "candidates": ['
        '{"response": "a", "logprob_policy": -1.0, "logprob_reference": -1.1, "score": 1},'
        '{"response": "b", "logprob_policy": -2.0, "logprob_reference": -1.9, "score": 0}]}'
    )

    def test_good_line(self):
        group = parse_group_line(self.GOOD)
        assert group.query_id == "q1"
        assert group.responses == ("a", "b")
        assert group.scores == (1.0, 0.0)

    @pytest.mark.parametrize(
        "line,needle",
        [
            ('{"query_id": "q", "candidates": [], "extra": 1}', "extra"),
            ('{"query_id": "q", "candidates": [{"response": "a", "logprob_policy": 0, "logprob_reference": 0, "score": 0, "rank": 1}, {"response": "b", "logprob_policy": 0, "logprob_reference": 0, "score": 0}]}', "rank"),
            ('{"candidates": []}', "query_id"),
            ('{"query_id": "q", "candidates": [{"response": "a", "logprob_policy": 0, "score": 0}, {"response": "b", "logprob_policy": 0, "logprob_reference": 0, "score": 0}]}', "logprob_reference"),
            ("junk", "JSON"),
        ],
    )
    def test_malformed_lines(self, line, needle):
        with pytest.raises(ValueError, match=needle):
            parse_group_line(line)


def cand(response="a", lp=-1.0, lr=-1.5, score=1.0, **extra):
    return {"response": response, "logprob_policy": lp, "logprob_reference": lr, "score": score,
            **extra}


def group_line(*candidates):
    return json.dumps({"query_id": "q", "candidates": list(candidates)})


NAN, INF = float("nan"), float("inf")
B = cand("b", score=0.0)


class TestGroupDiagnostics:
    """Each malformed line gets one diagnostic text and class, whatever
    else is wrong with it: every candidate's fields and types, candidate i
    before candidate i + 1, then the values as `PreferenceGroup` checks
    them: finiteness column by column, then the group's size and duplicate
    responses."""

    @pytest.mark.parametrize(
        "line, diagnostic",
        [
            (group_line(1, B), "ManifestError: candidate 0 must be an object"),
            (group_line(cand(rank=1), B), "ManifestError: candidate 0: unknown field 'rank'"),
            (group_line({"response": "a", "logprob_policy": 0, "score": 0}, B),
             "ManifestError: candidate 0: missing field 'logprob_reference'"),
            (group_line({"response": "a", "logprob_policy": 0, "score": 0, "x": 1}, B),
             "ManifestError: candidate 0: unknown field 'x'"),
            (group_line(cand(response=3), B), "ManifestError: candidate 0: 'response' must be a string"),
            (group_line(cand(response=None)), "ManifestError: candidate 0: 'response' must be a string"),
            (group_line(cand(lp="x"), B), "ManifestError: candidate 0: 'logprob_policy' must be a number"),
            (group_line(cand(lr=None), B),
             "ManifestError: candidate 0: 'logprob_reference' must be a number"),
            (group_line(cand(score=True), B), "ManifestError: candidate 0: 'score' must be a number"),
            (group_line(cand(score=[1]), B), "ManifestError: candidate 0: 'score' must be a number"),
            (group_line(cand(lp=10**400), B), "ManifestError: candidate 0: 'logprob_policy' is too large"),
            (group_line(cand(score=-10**400), B), "ManifestError: candidate 0: 'score' is too large"),
            (group_line(cand(lp=NAN), B), "NonFiniteInput: candidate 0: logprob_policy must be finite"),
            (group_line(cand(lr=NAN), B),
             "NonFiniteInput: candidate 0: logprob_reference must be finite"),
            (group_line(cand(score=NAN), B), "NonFiniteInput: candidate 0: score must be finite"),
            (group_line(cand(lp=INF), B), "NonFiniteInput: candidate 0: logprob_policy must be finite"),
            (group_line(cand(lr=-INF), B),
             "NonFiniteInput: candidate 0: logprob_reference must be finite"),
            (group_line(cand(score=INF), B), "NonFiniteInput: candidate 0: score must be finite"),
            (group_line(cand(), cand("b", lp=1e999)),
             "NonFiniteInput: candidate 1: logprob_policy must be finite"),
            # Values column by column, after every type.
            (group_line(cand(score=NAN, lp=NAN), B),
             "NonFiniteInput: candidate 0: logprob_policy must be finite"),
            (group_line(cand(score=NAN), cand("b", lp=NAN)),
             "NonFiniteInput: candidate 1: logprob_policy must be finite"),
            (group_line(cand(lp=NAN, score="x"), B), "ManifestError: candidate 0: 'score' must be a number"),
            # Every candidate's types before any value.
            (group_line(cand(lp=NAN), cand("b", score=True)),
             "ManifestError: candidate 1: 'score' must be a number"),
            (group_line(cand(lp=NAN), 1), "ManifestError: candidate 1 must be an object"),
            (group_line(cand(lp=True), cand("b", lp=NAN)),
             "ManifestError: candidate 0: 'logprob_policy' must be a number"),
            # Size and duplicates last.
            (group_line(cand(score=NAN)), "NonFiniteInput: candidate 0: score must be finite"),
            (group_line(cand()), "GroupTooSmall: group 'q' has 1 candidates, need >= 2"),
            (group_line(), "GroupTooSmall: group 'q' has 0 candidates, need >= 2"),
            (group_line(cand(), cand()), "ValueError: group 'q' has duplicate responses"),
            (group_line(cand(), cand(), cand("b", score="x")),
             "ManifestError: candidate 2: 'score' must be a number"),
            (group_line(cand(), cand(), cand("b", score=NAN)),
             "NonFiniteInput: candidate 2: score must be finite"),
            # The record itself.
            ('{"query_id": "q", "candidates": {}}', "ManifestError: 'candidates' must be a list"),
            ('{"query_id": "q"}', "ManifestError: 'candidates' must be a list"),
            (json.dumps({"candidates": [cand(), B]}),
             "ManifestError: missing or invalid 'query_id' (non-empty string required)"),
            (json.dumps({"query_id": "", "candidates": [cand(), B]}),
             "ManifestError: missing or invalid 'query_id' (non-empty string required)"),
            (json.dumps({"query_id": 7, "candidates": [cand(), B]}),
             "ManifestError: missing or invalid 'query_id' (non-empty string required)"),
            (json.dumps({"query_id": "q", "candidates": [cand(), B], "extra": 1}),
             "ManifestError: unknown field 'extra'"),
            ("[1]", "ManifestError: record must be a JSON object, got list"),
            ("junk", "ManifestError: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
    )
    def test_diagnostic_text(self, line, diagnostic):
        with pytest.raises(ValueError) as info:
            parse_group_line(line)
        assert f"{type(info.value).__name__}: {info.value}" == diagnostic

    def test_long_query_id_is_cut(self):
        line = json.dumps({"query_id": "Q" * 5000, "candidates": [cand()]})
        with pytest.raises(GroupTooSmall) as info:
            parse_group_line(line)
        assert str(info.value) == f"group '{'Q' * 60}... has 1 candidates, need >= 2"


class TestGroupColumns:
    def test_columns_of_a_parsed_line(self):
        group = parse_group_line(group_line(cand(lp=-2, score=1), cand("b", lr=-3.25, score=0.5)))
        assert group.responses == ("a", "b")
        assert group.logprob_policy == (-2.0, -1.0)
        assert group.logprob_reference == (-1.5, -3.25)
        assert group.scores == (1.0, 0.5)
        assert all(type(x) is float for x in group.logprob_policy + group.scores)

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_columns_hold_the_candidates_in_order(self, rows):
        group = parse_group_line(
            group_line(*(cand(f"r{k}", lp, lr, s) for k, (lp, lr, s) in enumerate(rows)))
        )
        columns = (tuple(f"r{k}" for k in range(len(rows))), *zip(*rows))
        assert (group.responses, group.logprob_policy, group.logprob_reference, group.scores) == (
            columns
        )
        assert PreferenceGroup("q", *columns) == group

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="unequal length"):
            PreferenceGroup("q", ("a", "b"), (0.0, 0.0), (0.0,), (1.0, 0.0))

    @pytest.mark.parametrize("field", [1, 2, 3])
    def test_non_finite_column_rejected(self, field):
        columns = [("a", "b"), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
        columns[field] = (0.0, NAN)
        with pytest.raises(NonFiniteInput, match="must be finite"):
            PreferenceGroup("q", *columns)
