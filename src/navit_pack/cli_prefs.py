"""`prefs` and `verify`, which `cli.main` imports when it dispatches them."""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

from . import cli
from .errors import _quoted
from .objectives import (
    DpoConfig,
    PreferenceGroup,
    dpo_losses,
    grpo_advantages_rows,
    pair_indices,
    parse_group_line,
)

# Groups per chunk in `prefs`, and per `dpo_losses` or `grpo_advantages_rows`
# call. A bounded chunk holds the columns and rendered lines of only a few
# hundred pairs at a time: on a 5k-group file, one chunk for the whole file
# more than doubled the `dpo` job's peak RSS (37 -> 82 MB), while chunks of
# 64 groups add about 2 MB and run as fast.
_PREFS_CHUNK = 64


def cmd_verify(args: argparse.Namespace) -> None:
    """`verify`: run every check with `args.seed`, one line each."""
    from .selfcheck import run_checks

    results = run_checks(args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        cli._diag(f"failed checks: {', '.join(failed)}")


def _negated(text: str) -> str:
    """`repr(-x)` from `repr(x)` for a finite float `x`: the sign flipped."""
    return text[1:] if text[0] == "-" else "-" + text


# `(lineno, group, what)` of a group that `prefs` leaves out: its `what` is not finite.
Fault = tuple[int, PreferenceGroup, str]


def _pairs_text(
    chunk: list[tuple[int, PreferenceGroup]], margin: float
) -> tuple[str, list[Fault]]:
    """The `prefs pairs` lines of `chunk`, one `json.dumps` per pair. A
    group with a score gap that is not finite is left out as a fault."""
    lines, faults = [], []
    for lineno, group in chunk:
        responses, scores = group.responses, group.scores
        pairs = [(i, j, scores[i] - scores[j]) for i, j in pair_indices(scores, margin)]
        if not all(math.isfinite(gap) for _, _, gap in pairs):
            faults.append((lineno, group, "score gap"))
            continue
        for i, j, gap in pairs:
            record = {
                "query_id": group.query_id,
                "chosen_index": i,
                "rejected_index": j,
                "chosen_response": responses[i],
                "rejected_response": responses[j],
                "score_gap": gap,
            }
            lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines), faults


def _dpo_text(
    chunk: list[tuple[int, PreferenceGroup]], margin: float, cfg: DpoConfig
) -> tuple[str, list[Fault]]:
    """The `prefs dpo` lines of `chunk` from one `dpo_losses` call on the
    chosen and rejected columns of all its pairs. A group with a value
    that is not finite is left out as a fault.

    Each line is byte-identical to `json.dumps` of its record: for a
    finite float, `repr` is the text `json.dumps` writes. Of the five
    numbers on a line only the loss, `g - nll_weight` and `g` (the last
    partial) go through `repr`. The two partials that are `-g` are written
    as the text of `g` with its sign flipped (`_negated`), which is
    `repr(-g)` for every finite float, ±0.0 included. With `nll_weight`
    +0.0, `g - nll_weight` is `g` bit for bit and shares its text too.
    """
    lp_c, lr_c, lp_r, lr_r = [], [], [], []
    spans = []
    for _, group in chunk:
        pairs = pair_indices(group.scores, margin)
        lp, lr = group.logprob_policy, group.logprob_reference
        lp_c += [lp[i] for i, _ in pairs]
        lr_c += [lr[i] for i, _ in pairs]
        lp_r += [lp[j] for _, j in pairs]
        lr_r += [lr[j] for _, j in pairs]
        spans.append(pairs)
    loss, d_policy_chosen, _, _, g = dpo_losses(lp_c, lr_c, lp_r, lr_r, cfg)
    # g - (-0.0) turns g = -0.0 into 0.0, so only +0.0 leaves g as it is.
    same = cfg.nll_weight == 0.0 and math.copysign(1.0, cfg.nll_weight) > 0.0
    lines, faults = [], []
    start = 0
    for (lineno, group), pairs in zip(chunk, spans):
        end = start + len(pairs)
        values, d_chosen, d_rejected = loss[start:end], d_policy_chosen[start:end], g[start:end]
        # `-g` is finite exactly when `g` is.
        if not all(map(math.isfinite, values + d_chosen + d_rejected)):
            faults.append((lineno, group, "loss or gradient"))
        else:
            head = f'{{"query_id":{json.dumps(group.query_id)},"chosen_index":'
            for (i, j), value, pc, pr in zip(pairs, values, d_chosen, d_rejected):
                g_str = repr(pr)
                neg = _negated(g_str)
                pc_str = g_str if same else repr(pc)
                lines.append(
                    f'{head}{i},"rejected_index":{j},"loss":{value!r},'
                    f'"d_logprob_policy_chosen":{pc_str},"d_logprob_policy_rejected":{neg},'
                    f'"d_logprob_reference_chosen":{neg},"d_logprob_reference_rejected":{g_str}}}\n'
                )
        start = end
    return "".join(lines), faults


def _grpo_text(chunk: list[tuple[int, PreferenceGroup]]) -> tuple[str, list[Fault]]:
    """The `prefs grpo` lines of `chunk` from one `grpo_advantages_rows`
    call. A group with an advantage that is not finite is left out as a
    fault. Lines are rendered with `repr` as in `_dpo_text`."""
    advantages = grpo_advantages_rows([group.scores for _, group in chunk])
    lines, faults = [], []
    for (lineno, group), row in zip(chunk, advantages):
        if not all(map(math.isfinite, row)):
            faults.append((lineno, group, "advantage"))
            continue
        values = ",".join(map(repr, row))
        lines.append(f'{{"query_id":{json.dumps(group.query_id)},"advantages":[{values}]}}\n')
    return "".join(lines), faults


def cmd_prefs(args: argparse.Namespace) -> None:
    groups = list(cli._records(args.groups, parse_group_line))
    if cli._diagnostics:
        return
    if args.prefs_command == "pairs":
        chunk_text = partial(_pairs_text, margin=args.margin)
    elif args.prefs_command == "dpo":
        cfg = DpoConfig(beta=args.beta, nll_weight=args.nll_weight)
        chunk_text = partial(_dpo_text, margin=args.margin, cfg=cfg)
    else:
        chunk_text = _grpo_text
    # Faults are written in line order: those of one chunk sorted together,
    # the chunks in file order.
    path = cli._shown(args.groups)
    for start in range(0, len(groups), _PREFS_CHUNK):
        chunk = groups[start : start + _PREFS_CHUNK]
        faults = []
        if args.min_score_variance > 0.0:
            kept = []
            for lineno, group in chunk:
                variance = group.score_variance()
                if not math.isfinite(variance):
                    faults.append((lineno, group, "score variance"))
                elif variance >= args.min_score_variance:
                    kept.append((lineno, group))
            chunk = kept
        text, rendered = chunk_text(chunk)
        sys.stdout.write(text)
        for lineno, group, what in sorted(faults + rendered, key=lambda f: f[0]):
            quoted = _quoted(group.query_id)
            cli._diag(f"{path}:{lineno}: query {quoted}: {what} is not finite")
