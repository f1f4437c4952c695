"""Post-training objectives at desk scale.

Preference pairs from scored candidate groups, the DPO logistic loss
with an optional negative log-likelihood term and analytic gradients,
group-standardized advantages, verifiable answer scoring, and
multiple-choice to fill-in-the-blank conversion. Sequence log
probabilities arrive as scalars per candidate; there is no token-level
machinery here.

A group is one form throughout: `parse_group_line` builds each line's
`PreferenceGroup` (responses, policy and reference logprobs, scores)
through its constructor, which checks every value. `pair_indices` orders a
group's pairs by its score column, `dpo_loss` computes one pair and
`grpo_advantages` one group. All of it is arithmetic on Python floats, so
`prefs` loads no array library.

Functional forms and defaults are pinned in docs/objectives.md.
"""

from __future__ import annotations

import enum
import string
from collections import namedtuple
from math import exp, isfinite, log1p, nan, sqrt
from typing import TYPE_CHECKING, Sequence

from .errors import LengthMismatch, NonFiniteInput, _quoted
from .records import ManifestError, _Value, _entry, _json_record, _list, _name, _number

if TYPE_CHECKING:
    from .chat import ThinkingOutput

__all__ = [
    "AnswerKind",
    "DpoConfig",
    "GroupTooSmall",
    "PreferenceGroup",
    "UnknownAnswerLetter",
    "UnparseableNumeric",
    "GRPO_EPSILON",
    "dpo_loss",
    "grpo_advantages",
    "mcq_to_fill_in_blank",
    "pair_indices",
    "parse_group_line",
    "verify_answer",
]

GRPO_EPSILON = 1e-8


class GroupTooSmall(ValueError):
    """Group-relative statistics need at least two members."""


class UnparseableNumeric(ValueError):
    """A value required to be numeric could not be parsed."""


class UnknownAnswerLetter(KeyError):
    """The answer letter does not appear among the options."""


class PreferenceGroup(
    namedtuple(
        "PreferenceGroup", "query_id responses logprob_policy logprob_reference scores"
    ),
    _Value,
):
    """Scored candidate responses for one query, held as columns.

    Entry k of `responses`, `logprob_policy`, `logprob_reference` and
    `scores` belongs to candidate k: the objectives read the three float
    columns as they are. The constructor checks, in order, equal column
    lengths, finite columns, at least two candidates and distinct responses.
    """

    __slots__ = ()

    def __new__(
        cls,
        query_id: str,
        responses: tuple[str, ...],
        logprob_policy: tuple[float, ...],
        logprob_reference: tuple[float, ...],
        scores: tuple[float, ...],
    ) -> PreferenceGroup:
        n = len(responses)
        if not n == len(logprob_policy) == len(logprob_reference) == len(scores):
            raise LengthMismatch(f"group {_quoted(query_id)} has columns of unequal length")
        columns = (logprob_policy, logprob_reference, scores)
        for name, column in zip(_NUMBER_KEYS, columns):
            if not all(map(isfinite, column)):
                k = next(k for k, v in enumerate(column) if not isfinite(v))
                raise NonFiniteInput(f"candidate {k}: {name} must be finite")
        if n < 2:
            raise GroupTooSmall(f"group {_quoted(query_id)} has {n} candidates, need >= 2")
        if len(set(responses)) != n:
            raise ValueError(f"group {_quoted(query_id)} has duplicate responses")
        return tuple.__new__(cls, (query_id, responses) + columns)

    def score_variance(self) -> float:
        """Population variance of the scores; inf or nan when it overflows."""
        return _mean_variance(self.scores)[1]


class DpoConfig(namedtuple("DpoConfig", "beta nll_weight"), _Value):
    __slots__ = ()

    def __new__(cls, beta: float = 0.1, nll_weight: float = 0.0) -> DpoConfig:
        if not beta > 0.0:
            raise ValueError(f"beta must be positive, got {beta}")
        if nll_weight < 0.0:
            raise ValueError(f"nll_weight must be non-negative, got {nll_weight}")
        for name, value in (("beta", beta), ("nll_weight", nll_weight)):
            if not isfinite(value):
                raise NonFiniteInput(f"{name} must be finite, got {value}")
        return tuple.__new__(cls, (beta, nll_weight))


def pair_indices(scores: Sequence[float], margin: float = 0.0) -> list[tuple[int, int]]:
    """Every ordered index pair `(i, j)` with `scores[i] - scores[j] > margin`,
    for finite scores and a finite margin >= 0.

    Pairs come out sorted by descending gap, ties by `(i, j)`, so output
    order is deterministic.
    """
    if margin < 0.0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    if not isfinite(margin):
        raise NonFiniteInput(f"margin must be finite, got {margin}")
    for k, score in enumerate(scores):
        if not isfinite(score):
            raise NonFiniteInput(f"score {k} must be finite, got {score}")
    # `sj - si` is exactly the negated gap, so an ascending sort puts the
    # largest gap first.
    ranked = sorted(
        (sj - si, i, j)
        for i, si in enumerate(scores)
        for j, sj in enumerate(scores)
        if si - sj > margin
    )
    return [(i, j) for _, i, j in ranked]


def _mean_variance(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population variance, each sum left to right (`sum` is compensated from 3.12)."""
    total = squares = 0.0
    for v in values:
        total += v
    mean = total / len(values)
    for v in values:
        squares += (v - mean) * (v - mean)
    return mean, squares / len(values)


def dpo_loss(
    lp_c: float, lr_c: float, lp_r: float, lr_r: float, cfg: DpoConfig
) -> tuple[float, float, float, float, float]:
    """Preference loss -log sigmoid(beta * margin) + nll_weight * (-lp_c) of
    one pair, and its partials in `lp_c`, `lp_r`, `lr_c` and `lr_r`, in that
    order.

    Takes the policy (`lp_*`) and reference (`lr_*`) logprobs of the chosen
    (`*_c`) and rejected (`*_r`) candidates. The margin is the
    policy-minus-reference logprob gap between chosen and rejected.
    Gradients are the true partials of the loss in all four logprobs (the
    reference enters the margin as given data; nothing is re-estimated).
    Inputs that overflow give inf or nan values, with no warning or exception.
    """
    beta, nll = cfg
    z = beta * ((lp_c - lr_c) - (lp_r - lr_r))
    # -log sigmoid(z) = log(1 + exp(-z)) = logaddexp(0, -z), by branches in
    # which no `exp` overflows: z = 0 gives log1p(1) = ln 2, and nan stays nan.
    softplus = log1p(exp(-z)) if z > 0 else -z + log1p(exp(z))
    # d(-log sigmoid(z))/dz = -sigmoid(-z), split where exp(z) is large.
    g = -beta / (1.0 + exp(z)) if z < 40 else -beta * exp(-z)
    loss = softplus + nll * (-lp_c)
    return loss, g - nll, -g, -g, g


def grpo_advantages(rewards: Sequence[float]) -> list[float]:
    """Group-standardized advantages (r - mean) / (population std + eps) of
    one group's rewards.

    A group whose variance overflows has no usable standardization; its
    advantages are nan, without an exception.
    """
    if len(rewards) < 2:
        raise GroupTooSmall(f"need >= 2 rewards, got {len(rewards)}")
    if not all(map(isfinite, rewards)):
        raise NonFiniteInput("rewards contain non-finite entries")
    mean, variance = _mean_variance(rewards)
    std = sqrt(variance) if isfinite(variance) else nan
    return [(r - mean) / (std + GRPO_EPSILON) for r in rewards]


class AnswerKind(enum.Enum):
    EXACT = "exact"
    NUMERIC = "numeric"
    CHOICE_LETTER = "choice_letter"


def _normalize_text(s: str) -> str:
    return " ".join(s.split()).casefold()


def _parse_decimal(s: str) -> float:
    try:
        return float(s.strip())
    except ValueError as e:
        raise UnparseableNumeric(f"cannot parse {s!r} as a decimal") from e


def _single_letter(s: str) -> str | None:
    stripped = s.strip().strip(string.punctuation + string.whitespace)
    if len(stripped) == 1 and stripped.isalpha():
        return stripped.casefold()
    return None


def verify_answer(prediction: ThinkingOutput, gold: str, kind: AnswerKind) -> int:
    """Score a prediction's answer against the gold answer: 1 or 0.

    Only the answer field is scored; the thinking section is ignored.
    `exact` compares after trimming, whitespace collapsing, and case
    folding; `numeric` parses both sides as decimals and compares within
    relative 1e-6 (raising UnparseableNumeric when either side fails);
    `choice_letter` compares single letters after stripping punctuation.
    """
    if not gold:
        raise ValueError("gold answer must be non-empty")
    answer = prediction.answer
    if kind is AnswerKind.EXACT:
        return int(_normalize_text(answer) == _normalize_text(gold))
    if kind is AnswerKind.NUMERIC:
        a, b = _parse_decimal(answer), _parse_decimal(gold)
        if a == b:
            return 1
        return int(abs(a - b) <= 1e-6 * max(abs(a), abs(b)))
    if kind is AnswerKind.CHOICE_LETTER:
        a, b = _single_letter(answer), _single_letter(gold)
        return int(a is not None and a == b)
    raise ValueError(f"unknown answer kind: {kind!r}")


def mcq_to_fill_in_blank(
    question: str,
    options: Sequence[tuple[str, str]],
    answer_letter: str,
) -> tuple[str, str]:
    """Convert a multiple-choice item to fill-in-the-blank.

    Options are supplied structurally, so dropping them is exact: the
    question text is returned unchanged and the gold answer becomes the
    text of the answer letter's option. Raises UnknownAnswerLetter when
    the letter has no option.
    """
    wanted = answer_letter.strip().casefold()
    for letter, text in options:
        if letter.strip().casefold() == wanted:
            return question, text
    raise UnknownAnswerLetter(
        f"answer letter {answer_letter!r} not among options "
        f"{[letter for letter, _ in options]}"
    )


_GROUP_KEYS = {"query_id", "candidates"}
_NUMBER_KEYS = ("logprob_policy", "logprob_reference", "score")
_CANDIDATE_KEYS = {"response", *_NUMBER_KEYS}


def parse_group_line(line: str) -> PreferenceGroup:
    """Parse one scored-group JSONL record, rejecting unknown fields by name.

    Every candidate's fields and types are checked, in order, before
    `PreferenceGroup` checks the values in its own order, so a line with
    several faults reports the first of them.
    """
    obj = _json_record(line, _GROUP_KEYS)
    query_id = _name(obj, "query_id")
    responses, policy, reference, scores = [], [], [], []
    for i, cand in enumerate(_list(obj, "candidates", required=True)):
        if type(cand) is not dict or cand.keys() != _CANDIDATE_KEYS:
            _entry(cand, _CANDIDATE_KEYS, "candidate", i)
            missing = min(_CANDIDATE_KEYS - cand.keys())
            raise ManifestError(f"candidate {i}: missing field {missing!r}")
        response = cand["response"]
        if type(response) is not str:
            raise ManifestError(f"candidate {i}: 'response' must be a string")
        lp, lr, score = cand["logprob_policy"], cand["logprob_reference"], cand["score"]
        if type(lp) is not float or type(lr) is not float or type(score) is not float:
            lp, lr, score = [_number(cand, key, "candidate", i) for key in _NUMBER_KEYS]
        responses.append(response)
        policy.append(lp)
        reference.append(lr)
        scores.append(score)
    return PreferenceGroup(query_id, tuple(responses), tuple(policy), tuple(reference), tuple(scores))
