"""`prefs` and `verify`, which `cli.main` imports when it dispatches them."""

from __future__ import annotations

import argparse
import math
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator

from . import cli
from .errors import _quoted
from .objectives import (
    DpoConfig,
    PreferenceGroup,
    dpo_loss,
    grpo_advantages,
    pair_indices,
    parse_group_line,
)


def cmd_verify(args: argparse.Namespace) -> None:
    """`verify`: run every check with `args.seed`, one line each."""
    from .selfcheck import run_checks

    results = run_checks(args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        cli._write(f"{r.name:<{width}}  {status}  {r.detail}\n")
    failed = [r.name for r in results if not r.passed]
    if failed:
        cli._diag(f"failed checks: {', '.join(failed)}")


def _negated(text: str) -> str:
    """`repr(-x)` from `repr(x)` for a finite float `x`: the sign flipped."""
    return text[1:] if text[0] == "-" else "-" + text


def _pairs_renderer(margin: float) -> Callable[[PreferenceGroup], str | None]:
    """`prefs pairs`: one f-string per pair, or None if a score gap is not
    finite. Each line is byte-identical to `json.dumps` of its record:
    `encode_basestring_ascii` is what `json.dumps` writes for a `str`, and
    for a finite float `repr` is the text `json.dumps` writes."""

    def render(group: PreferenceGroup) -> str | None:
        scores = group.scores
        pairs = [(i, j, scores[i] - scores[j]) for i, j in pair_indices(scores, margin)]
        if not all(math.isfinite(gap) for _, _, gap in pairs):
            return None
        head = f'{{"query_id":{encode_basestring_ascii(group.query_id)},"chosen_index":'
        responses = [encode_basestring_ascii(response) for response in group.responses]
        return "".join(
            f'{head}{i},"rejected_index":{j},"chosen_response":{responses[i]},'
            f'"rejected_response":{responses[j]},"score_gap":{gap!r}}}\n'
            for i, j, gap in pairs
        )

    return render


def _dpo_renderer(margin: float, cfg: DpoConfig) -> Callable[[PreferenceGroup], str | None]:
    """`prefs dpo`: one `dpo_loss` call and one f-string per pair, or None
    if a value is not finite. Lines are rendered as in `_pairs_renderer`.

    Of the five numbers on a line only the loss, `g - nll_weight` and `g`
    (the last partial) go through `repr`. The two partials that are `-g`
    are written as the text of `g` with its sign flipped (`_negated`),
    which is `repr(-g)` for every finite float, ±0.0 included. With
    `nll_weight` +0.0, `g - nll_weight` is `g` bit for bit and shares its
    text too.
    """
    # g - (-0.0) turns g = -0.0 into 0.0, so only +0.0 leaves g as it is.
    same = cfg.nll_weight == 0.0 and math.copysign(1.0, cfg.nll_weight) > 0.0

    def render(group: PreferenceGroup) -> str | None:
        lp, lr = group.logprob_policy, group.logprob_reference
        head = f'{{"query_id":{encode_basestring_ascii(group.query_id)},"chosen_index":'
        lines = []
        for i, j in pair_indices(group.scores, margin):
            loss, d_chosen, _, _, g = dpo_loss(lp[i], lr[i], lp[j], lr[j], cfg)
            # `-g` is finite exactly when `g` is.
            if not (math.isfinite(loss) and math.isfinite(d_chosen) and math.isfinite(g)):
                return None
            g_str = repr(g)
            neg = _negated(g_str)
            pc_str = g_str if same else repr(d_chosen)
            lines.append(
                f'{head}{i},"rejected_index":{j},"loss":{loss!r},'
                f'"d_logprob_policy_chosen":{pc_str},"d_logprob_policy_rejected":{neg},'
                f'"d_logprob_reference_chosen":{neg},"d_logprob_reference_rejected":{g_str}}}\n'
            )
        return "".join(lines)

    return render


def _grpo_line(group: PreferenceGroup) -> str | None:
    """`prefs grpo`: the group's one line, or None if an advantage is not
    finite. Lines are rendered as in `_pairs_renderer`."""
    row = grpo_advantages(group.scores)
    if not all(map(math.isfinite, row)):
        return None
    values = ",".join(map(repr, row))
    return f'{{"query_id":{encode_basestring_ascii(group.query_id)},"advantages":[{values}]}}\n'


def cmd_prefs(args: argparse.Namespace) -> None:
    """`prefs`: every group parsed before any line is written, then one
    group at a time through the difficulty filter and the command's
    renderer: its diagnostic is written at once, its lines go to
    `cli._write_blocks`."""
    groups = list(cli._records(args.groups, parse_group_line))
    if cli._diagnostics:
        return
    if args.prefs_command == "pairs":
        render, what = _pairs_renderer(args.margin), "score gap"
    elif args.prefs_command == "dpo":
        cfg = DpoConfig(beta=args.beta, nll_weight=args.nll_weight)
        render, what = _dpo_renderer(args.margin, cfg), "loss or gradient"
    else:
        render, what = _grpo_line, "advantage"
    path = cli._shown(args.groups)

    def not_finite(lineno: int, group: PreferenceGroup, fault: str) -> None:
        cli._diag(f"{path}:{lineno}: query {_quoted(group.query_id)}: {fault} is not finite")

    def texts() -> Iterator[str]:
        for lineno, group in groups:
            if args.min_score_variance > 0.0:
                variance = group.score_variance()
                if variance < args.min_score_variance:
                    continue
                if not math.isfinite(variance):
                    not_finite(lineno, group, "score variance")
                    continue
            text = render(group)
            if text is None:
                not_finite(lineno, group, what)
            else:
                yield text

    cli._write_blocks(texts())
