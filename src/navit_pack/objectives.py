"""Post-training objectives at desk scale.

Preference-pair construction from scored candidate groups, the DPO
logistic loss with an optional negative log-likelihood term and analytic
gradients, group-standardized advantages, verifiable answer scoring, and
multiple-choice to fill-in-the-blank conversion. Sequence log
probabilities arrive as scalars per candidate; there is no token-level
machinery here.

The objectives are computed over arrays: `dpo_losses` takes one column
per logprob input and `grpo_advantages_rows` one row per group. The
scalar forms `dpo_loss` (one pair) and `grpo_advantages` (one group) are
one-row views of them, so both run the same arithmetic. `pair_indices`
holds the pair-order rule that `build_pairs` applies to a group.

A `PreferenceGroup` holds its candidates as columns (responses, policy
and reference logprobs, scores), which `parse_group_line` fills straight
from each decoded line, since DPO and GRPO read only the three float
columns. Its `candidates` are a view that builds one `ScoredCandidate`
per candidate, for `build_pairs` and callers that want objects.

Functional forms and defaults are pinned in docs/objectives.md.
"""

from __future__ import annotations

import enum
import string
from dataclasses import dataclass
from math import isfinite
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .chat import ThinkingOutput
from .errors import LengthMismatch, NonFiniteInput
from .packing import ManifestError, _entry, _json_record, _list, _name, _number, _quoted

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "AnswerKind",
    "DpoConfig",
    "DpoResult",
    "GroupTooSmall",
    "PreferenceGroup",
    "PreferencePair",
    "ScoredCandidate",
    "UnknownAnswerLetter",
    "UnparseableNumeric",
    "GRPO_EPSILON",
    "build_pairs",
    "dpo_loss",
    "dpo_losses",
    "grpo_advantages",
    "grpo_advantages_rows",
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


@dataclass(frozen=True)
class ScoredCandidate:
    """One candidate response with its logprobs and verifiable score."""

    response: str
    logprob_policy: float
    logprob_reference: float
    score: float

    def __post_init__(self) -> None:
        for name in ("logprob_policy", "logprob_reference", "score"):
            if not isfinite(getattr(self, name)):
                raise NonFiniteInput(f"{name} must be finite")


@dataclass(frozen=True)
class PreferenceGroup:
    """Scored candidate responses for one query, held as columns.

    Entry k of `responses`, `logprob_policy`, `logprob_reference` and
    `scores` belongs to candidate k: the objectives read the three float
    columns as they are. The constructor checks equal column lengths,
    finite floats, at least two candidates and distinct responses.
    `candidates` is a view that builds one `ScoredCandidate` per
    candidate from the columns on demand.
    """

    query_id: str
    responses: tuple[str, ...]
    logprob_policy: tuple[float, ...]
    logprob_reference: tuple[float, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.responses)
        if not n == len(self.logprob_policy) == len(self.logprob_reference) == len(self.scores):
            raise LengthMismatch(f"group {_quoted(self.query_id)} has columns of unequal length")
        columns = (self.logprob_policy, self.logprob_reference, self.scores)
        for name, column in zip(_NUMBER_KEYS, columns):
            if not all(map(isfinite, column)):
                raise NonFiniteInput(f"{name} must be finite")
        if n < 2:
            raise GroupTooSmall(f"group {_quoted(self.query_id)} has {n} candidates, need >= 2")
        if len(set(self.responses)) != n:
            raise ValueError(f"group {_quoted(self.query_id)} has duplicate responses")

    @classmethod
    def from_candidates(
        cls, query_id: str, candidates: Sequence[ScoredCandidate]
    ) -> PreferenceGroup:
        """The group of `candidates`, split into columns."""
        return cls(
            query_id,
            tuple(c.response for c in candidates),
            tuple(c.logprob_policy for c in candidates),
            tuple(c.logprob_reference for c in candidates),
            tuple(c.score for c in candidates),
        )

    @property
    def candidates(self) -> tuple[ScoredCandidate, ...]:
        """One `ScoredCandidate` per candidate, built from the columns."""
        columns = (self.responses, self.logprob_policy, self.logprob_reference, self.scores)
        return tuple(map(ScoredCandidate, *columns))

    def score_variance(self) -> float:
        """Population variance of the scores; inf or nan when it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.var(self.scores))

    def passes_difficulty_filter(self, min_score_variance: float) -> bool:
        """Offline difficulty filter: keep groups whose scores actually
        disagree. Zero threshold keeps everything."""
        return self.score_variance() >= min_score_variance


@dataclass(frozen=True)
class PreferencePair:
    chosen_index: int
    rejected_index: int
    chosen: ScoredCandidate
    rejected: ScoredCandidate
    score_gap: float


@dataclass(frozen=True)
class DpoConfig:
    beta: float = 0.1
    nll_weight: float = 0.0

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.nll_weight < 0.0:
            raise ValueError(f"nll_weight must be non-negative, got {self.nll_weight}")


@dataclass(frozen=True)
class DpoResult:
    """Loss plus its partial derivatives w.r.t. the four logprob inputs."""

    loss: float
    d_logprob_policy_chosen: float
    d_logprob_policy_rejected: float
    d_logprob_reference_chosen: float
    d_logprob_reference_rejected: float


def pair_indices(scores: Sequence[float], margin: float = 0.0) -> list[tuple[int, int]]:
    """Every ordered index pair `(i, j)` with `scores[i] - scores[j] > margin`.

    Pairs come out sorted by descending gap, ties by `(i, j)`, so output
    order is deterministic.
    """
    if margin < 0.0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    # `sj - si` is exactly the negated gap, so an ascending sort puts the
    # largest gap first.
    ranked = sorted(
        (sj - si, i, j)
        for i, si in enumerate(scores)
        for j, sj in enumerate(scores)
        if si - sj > margin
    )
    return [(i, j) for _, i, j in ranked]


def build_pairs(group: PreferenceGroup, margin: float = 0.0) -> list[PreferencePair]:
    """The preference pairs of `group` in `pair_indices` order."""
    candidates = group.candidates
    pairs = []
    for i, j in pair_indices(group.scores, margin):
        chosen, rejected = candidates[i], candidates[j]
        pairs.append(PreferencePair(i, j, chosen, rejected, chosen.score - rejected.score))
    return pairs


def dpo_losses(
    lp_c: ArrayLike, lr_c: ArrayLike, lp_r: ArrayLike, lr_r: ArrayLike, cfg: DpoConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Preference loss -log sigmoid(beta * margin) + nll_weight * (-lp_chosen),
    one entry per pair.

    Takes the policy (`lp_*`) and reference (`lr_*`) logprobs of the chosen
    (`*_c`) and rejected (`*_r`) candidates, and returns the loss and its
    partials in the field order of `DpoResult`. The margin is the
    policy-minus-reference logprob gap between chosen and rejected.
    Gradients are the true partials of the loss in all four logprobs (the
    reference enters the margin as given data; nothing is re-estimated).
    Entries whose inputs overflow come out inf or nan, without a warning.
    """
    lp_c, lr_c, lp_r, lr_r = (np.asarray(x, dtype=np.float64) for x in (lp_c, lr_c, lp_r, lr_r))
    beta, nll = cfg.beta, cfg.nll_weight
    with np.errstate(over="ignore", invalid="ignore"):
        z = beta * ((lp_c - lr_c) - (lp_r - lr_r))
        # -log sigmoid(z) = log(1 + exp(-z)), stable for large |z|
        loss = np.logaddexp(0.0, -z) + nll * (-lp_c)
        # d(-log sigmoid(z))/dz = -sigmoid(-z); each branch is computed for
        # every entry, and the one not taken may overflow.
        g = np.where(z < 40, -beta / (1.0 + np.exp(z)), -beta * np.exp(-z))
        return loss, g - nll, -g, -g, g


def dpo_loss(chosen: ScoredCandidate, rejected: ScoredCandidate, cfg: DpoConfig) -> DpoResult:
    """`dpo_losses` for one chosen/rejected pair."""
    columns = dpo_losses(
        chosen.logprob_policy,
        chosen.logprob_reference,
        rejected.logprob_policy,
        rejected.logprob_reference,
        cfg,
    )
    return DpoResult(*(float(c) for c in columns))


def grpo_advantages_rows(rewards: ArrayLike) -> np.ndarray:
    """Group-standardized advantages (r - mean) / (population std + eps) of
    each row of a `(groups, k)` reward array.

    A row whose variance overflows has no usable standardization; its
    advantages are nan, without a warning.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] < 2:
        raise GroupTooSmall(f"need rows of >= 2 rewards, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise NonFiniteInput("rewards contain non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        std = r.std(axis=1)
        advantages = (r - r.mean(axis=1, keepdims=True)) / (std + GRPO_EPSILON)[:, None]
    advantages[~np.isfinite(std)] = np.nan
    return advantages


def grpo_advantages(rewards: Sequence[float]) -> list[float]:
    """`grpo_advantages_rows` for one group of rewards."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or r.shape[0] < 2:
        raise GroupTooSmall(f"need >= 2 rewards, got shape {r.shape}")
    return grpo_advantages_rows(r[None, :])[0].tolist()


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

    Each candidate is checked in full, types then finiteness, before the
    next one, and the group's size and distinct responses last, so a line
    with several faults reports the first of them in that order. A float
    from the decoder needs only its finiteness checked; any other value
    goes through `_number`.
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
        if not (isfinite(lp) and isfinite(lr) and isfinite(score)):
            key = next(k for k, v in zip(_NUMBER_KEYS, (lp, lr, score)) if not isfinite(v))
            raise NonFiniteInput(f"{key} must be finite")
        responses.append(response)
        policy.append(lp)
        reference.append(lr)
        scores.append(score)
    return PreferenceGroup(
        query_id, tuple(responses), tuple(policy), tuple(reference), tuple(scores)
    )
