"""File-based command line interface.

Data goes to stdout, diagnostics to stderr; exit status is 0 exactly
when no diagnostic was emitted. All subcommands are deterministic given
their inputs and --seed, so repeated runs are byte-identical. Set
NAVIT_PACK_LOG=debug|info|warning|error to adjust log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from functools import lru_cache, partial
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable

from . import __version__
from .geometry import BudgetInfeasible, ImageSize, Phase, ResizePlan, phase_budget, plan_resize
from .packing import (
    PAD_POSITION,
    ManifestError,
    PackedSequence,
    SampleTooLong,
    _entry,
    _json_record,
    _list,
    _quoted,
    pack_ffd,
    packing_report,
    parse_image_size,
    parse_manifest_line,
    sample_from_record,
)

if TYPE_CHECKING:
    from .chat import ChatMessage
    from .objectives import DpoConfig, PreferenceGroup

# `chat`, `objectives` and `selfcheck` are imported by the subcommands that
# use them, so `plan` and `pack` start without numpy.

log = logging.getLogger("navit_pack")

_CONVERSATION_KEYS = {"messages", "images"}
_MESSAGE_KEYS = {"role", "parts"}

# The largest `pack --capacity`: a sequence line holds `capacity` position
# ids, and `_position_runs` renders all of them up front.
_MAX_CAPACITY = 2**20

# At most this many ids are named when samples exceed the capacity.
_TOO_LONG_SHOWN = 10

# `selfcheck.CHECK_NAMES`, spelled out so that building the parser does
# not import `selfcheck` (and numpy).
_CHECK_NAMES = ("vet-grad", "dpo-grad", "rope-relative", "pack-equiv", "ffd-opt")
_GRAD_CHECKS = ("vet-grad", "dpo-grad")


# Groups per array call in `prefs dpo` and `prefs grpo`. A bounded chunk
# holds the columns and rendered lines of only a few hundred pairs at a
# time: on a 5k-group file, one chunk for the whole file more than doubled
# the `dpo` job's peak RSS (37 -> 82 MB), while chunks of 64 groups add
# about 2 MB and run as fast.
_PREFS_CHUNK = 64


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, separators=(",", ":"), sort_keys=False))


@lru_cache(maxsize=8)
def _position_runs(capacity: int) -> tuple[str, list[int], str]:
    """JSON text of the ids 0..capacity-1 and of capacity pad ids, unbracketed.

    `ends[n]` is the length of the prefix of the id text that holds the
    first n ids, so every segment's position ids are one slice of it.
    """
    ids = json.dumps(list(range(capacity)), separators=(",", ":"))[1:-1]
    ends = list(accumulate((len(str(i)) + (i > 0) for i in range(capacity)), initial=0))
    pads = json.dumps([PAD_POSITION] * capacity, separators=(",", ":"))[1:-1]
    return ids, ends, pads


def _sequence_line(seq: PackedSequence) -> str:
    """The `pack` output line for `seq`, with its per-token position ids.

    Byte-identical to `json.dumps` of `seq.to_json_dict()` plus the
    `position_ids` of `build_attention_metadata(seq)`, but the ids are
    sliced from pre-rendered text instead of built and encoded per token.
    """
    ids, ends, pads = _position_runs(seq.capacity)
    parts = [ids[: ends[length]] for _, _, length in seq.segments]
    if seq.pad_tokens:
        width = len(str(PAD_POSITION)) + 1
        parts.append(pads[: width * seq.pad_tokens - 1])
    head = json.dumps(seq.to_json_dict(), separators=(",", ":"))
    return f'{head[:-1]},"position_ids":[{",".join(parts)}]}}'


def _plan_json(plan: ResizePlan) -> dict:
    return {
        "source": {"width": plan.source.width, "height": plan.source.height},
        "target": {"width": plan.target.width, "height": plan.target.height},
        "grid_rows": plan.grid_rows,
        "grid_cols": plan.grid_cols,
        "token_count": plan.token_count,
    }


def _read_lines(path: str) -> Iterable[tuple[int, str]]:
    """The non-blank lines of `path` with their line numbers."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                yield lineno, line


def cmd_plan(args: argparse.Namespace) -> int:
    budget = phase_budget(args.phase)
    failures = 0
    for lineno, line in _read_lines(args.manifest):
        try:
            record = parse_manifest_line(line)
        except ManifestError as e:
            _diag(f"{args.manifest}:{lineno}: {e}")
            failures += 1
            continue
        for index, size in enumerate(record.images):
            try:
                plan = plan_resize(size, budget)
            except BudgetInfeasible as e:
                _diag(f"{args.manifest}:{lineno}: image {index}: {e}")
                failures += 1
                continue
            _emit({"id": record.id, "image_index": index, **_plan_json(plan)})
    return 1 if failures else 0


def cmd_pack(args: argparse.Namespace) -> int:
    budget = phase_budget(args.phase)
    samples = []
    seen_ids: set[str] = set()
    failures = 0
    for lineno, line in _read_lines(args.manifest):
        try:
            record = parse_manifest_line(line)
            if record.id in seen_ids:
                raise ManifestError(f"duplicate sample id {_quoted(record.id)}")
            seen_ids.add(record.id)
            samples.append(sample_from_record(record, budget))
        except ValueError as e:
            _diag(f"{args.manifest}:{lineno}: {e}")
            failures += 1
    if failures:
        return 1
    try:
        sequences = pack_ffd(samples, args.capacity)
    except SampleTooLong as e:
        shown = ", ".join(map(_quoted, e.ids[:_TOO_LONG_SHOWN]))
        more = len(e.ids) - _TOO_LONG_SHOWN
        if more > 0:
            shown += f", ... ({more} more)"
        _diag(f"{args.manifest}: {len(e.ids)} samples exceed capacity {e.capacity}: {shown}")
        return 1
    report = packing_report(samples, sequences, args.capacity, args.batch_size)
    log.info(
        "packed %d samples into %d sequences (pad fraction %.4f)",
        report.n_samples,
        report.n_sequences,
        report.packed_pad_fraction,
    )
    for seq in sequences:
        print(_sequence_line(seq))
    _emit(report.to_json_dict())
    return 0


def _parse_conversation(text: str) -> tuple[list[ChatMessage], dict[str, ImageSize]]:
    from .chat import ChatMessage, ImagePart, Role, TextPart

    obj = _json_record(text, _CONVERSATION_KEYS, "conversation")
    sizes: dict[str, ImageSize] = {}
    for i, img in enumerate(_list(obj, "images")):
        if not isinstance(img, dict) or img.keys() != {"id", "width", "height"}:
            raise ManifestError(f"image {i} must have exactly id/width/height")
        image_id = img["id"]
        if not isinstance(image_id, str) or not image_id:
            raise ManifestError(f"image {i}: 'id' must be a non-empty string")
        if image_id in sizes:
            raise ManifestError(f"duplicate image id {_quoted(image_id)}")
        sizes[image_id] = parse_image_size(img, i)
    messages = []
    for i, msg in enumerate(_list(obj, "messages")):
        _entry(msg, _MESSAGE_KEYS, "message", i)
        try:
            role = Role(msg.get("role"))
        except ValueError:
            raise ManifestError(f"message {i}: invalid role {_quoted(msg.get('role'))}") from None
        parts = []
        for j, part in enumerate(_list(msg, "parts", f"message {i}: ")):
            fields = part.keys() if isinstance(part, dict) else ()
            if fields == {"text"} and isinstance(part["text"], str):
                parts.append(TextPart(part["text"]))
            elif fields == {"image"} and isinstance(part["image"], str):
                parts.append(ImagePart(part["image"]))
            else:
                raise ManifestError(f"message {i} part {j}: need exactly one of text/image")
        messages.append(ChatMessage(role=role, parts=tuple(parts)))
    if not messages:
        raise ManifestError("conversation has no messages")
    return messages, sizes


def cmd_chat(args: argparse.Namespace) -> int:
    from .chat import UnresolvedImageRef, render

    # Read outside the `try`: an unreadable or non-UTF-8 file is reported
    # by `main`, like every other input file.
    with open(args.conversation, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        messages, sizes = _parse_conversation(text)
        budget = phase_budget(args.phase)
        plans = {image_id: plan_resize(size, budget) for image_id, size in sizes.items()}
        prompt = render(messages, args.thinking, plans)
    except (ValueError, UnresolvedImageRef) as e:
        _diag(f"{args.conversation}: {e}")
        return 1
    sys.stdout.write(prompt.flat_text())
    if args.sidecar:
        sidecar = {
            "thinking_enabled": prompt.thinking_enabled,
            "image_token_total": prompt.image_token_total(),
            "placeholders": prompt.placeholder_offsets(),
        }
        with open(args.sidecar, "w", encoding="utf-8") as f:
            json.dump(sidecar, f, separators=(",", ":"))
            f.write("\n")
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    from .chat import MalformedThinkBlock, parse_thinking

    # Strict UTF-8 whatever the locale: under C/POSIX, sys.stdin would pass
    # invalid bytes through as surrogates.
    raw = sys.stdin.buffer.read().decode("utf-8")
    try:
        result = parse_thinking(raw, lenient=not args.strict)
    except MalformedThinkBlock as e:
        _diag(f"malformed think block: {e}")
        return 1
    _emit(result.to_json_dict())
    return 0


def _run_and_report(seed: int, fault: str | None, only: tuple[str, ...] | None) -> int:
    from .selfcheck import run_checks

    results = run_checks(seed, fault=fault, only=only)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        _diag(f"failed checks: {', '.join(failed)}")
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    return _run_and_report(args.seed, args.fault_inject, None)


def cmd_grad_check(args: argparse.Namespace) -> int:
    return _run_and_report(args.seed, args.fault_inject, _GRAD_CHECKS)


def _read_groups(path: str) -> tuple[list[tuple[int, PreferenceGroup]], int]:
    """The groups of `path` with their line numbers, and the count of bad lines."""
    from .objectives import parse_group_line

    failures = 0
    groups = []
    for lineno, line in _read_lines(path):
        try:
            groups.append((lineno, parse_group_line(line)))
        except ValueError as e:
            _diag(f"{path}:{lineno}: {e}")
            failures += 1
    return groups, failures


def _negated(text: str) -> str:
    """`repr(-x)` from `repr(x)` for a finite float `x`: the sign flipped."""
    return text[1:] if text[0] == "-" else "-" + text


def _report_not_finite(path: str, lineno: int, group: PreferenceGroup, what: str) -> None:
    _diag(f"{path}:{lineno}: query {_quoted(group.query_id)}: {what} is not finite")


def _dpo_text(
    path: str, chunk: list[tuple[int, PreferenceGroup]], margin: float, cfg: DpoConfig
) -> tuple[str, int]:
    """The `prefs dpo` lines of `chunk` from one `dpo_losses` call, and the
    number of groups left out because a value is not finite.

    Each line is byte-identical to `json.dumps` of its record: for a
    finite float, `repr` is the text `json.dumps` writes. Of the five
    numbers on a line only the loss, `g - nll_weight` and `g` (the last
    partial) go through `repr`. The two partials that are `-g` are written
    as the text of `g` with its sign flipped (`_negated`), which is
    `repr(-g)` for every finite float, ±0.0 included. With `nll_weight`
    +0.0, `g - nll_weight` is `g` bit for bit and shares its text too.
    """
    import numpy as np

    from .objectives import dpo_losses, pair_indices

    lp, lr, chosen, rejected = [], [], [], []
    spans = []
    for _, group in chunk:
        pairs = pair_indices(group.scores, margin)
        base = len(lp)
        lp.extend(group.logprob_policy)
        lr.extend(group.logprob_reference)
        chosen.extend(base + i for i, _ in pairs)
        rejected.extend(base + j for _, j in pairs)
        spans.append(pairs)
    lp, lr = np.array(lp), np.array(lr)
    c, r = np.array(chosen, dtype=np.intp), np.array(rejected, dtype=np.intp)
    loss, d_policy_chosen, _, _, g = dpo_losses(lp[c], lr[c], lp[r], lr[r], cfg)
    # `-g` is finite exactly when `g` is.
    finite = (np.isfinite(loss) & np.isfinite(d_policy_chosen) & np.isfinite(g)).tolist()
    # g - (-0.0) turns g = -0.0 into 0.0, so only +0.0 leaves g as it is.
    same = cfg.nll_weight == 0.0 and math.copysign(1.0, cfg.nll_weight) > 0.0
    loss, d_policy_chosen, g = loss.tolist(), d_policy_chosen.tolist(), g.tolist()
    lines = []
    failures = start = 0
    for (lineno, group), pairs in zip(chunk, spans):
        end = start + len(pairs)
        if not all(finite[start:end]):
            _report_not_finite(path, lineno, group, "loss or gradient")
            failures += 1
        else:
            head = f'{{"query_id":{json.dumps(group.query_id)},"chosen_index":'
            for (i, j), value, d_chosen, d_rejected in zip(
                pairs, loss[start:end], d_policy_chosen[start:end], g[start:end]
            ):
                g_str = repr(d_rejected)
                neg = _negated(g_str)
                pc_str = g_str if same else repr(d_chosen)
                lines.append(
                    f'{head}{i},"rejected_index":{j},"loss":{value!r},'
                    f'"d_logprob_policy_chosen":{pc_str},"d_logprob_policy_rejected":{neg},'
                    f'"d_logprob_reference_chosen":{neg},"d_logprob_reference_rejected":{g_str}}}\n'
                )
        start = end
    return "".join(lines), failures


def _grpo_text(path: str, chunk: list[tuple[int, PreferenceGroup]]) -> tuple[str, int]:
    """The `prefs grpo` lines of `chunk` from one `grpo_advantages_rows`
    call per group size, and the number of groups left out because an
    advantage is not finite. Lines are rendered with `repr` as in
    `_dpo_text`."""
    from .objectives import grpo_advantages_rows

    by_size: dict[int, list[int]] = {}
    for n, (_, group) in enumerate(chunk):
        by_size.setdefault(len(group.scores), []).append(n)
    advantages: list[list[float]] = [[] for _ in chunk]
    for members in by_size.values():
        scores = [chunk[n][1].scores for n in members]
        for n, row in zip(members, grpo_advantages_rows(scores).tolist()):
            advantages[n] = row
    lines = []
    failures = 0
    for (lineno, group), row in zip(chunk, advantages):
        if not all(map(math.isfinite, row)):
            _report_not_finite(path, lineno, group, "advantage")
            failures += 1
            continue
        values = ",".join(map(repr, row))
        lines.append(f'{{"query_id":{json.dumps(group.query_id)},"advantages":[{values}]}}\n')
    return "".join(lines), failures


def cmd_prefs(args: argparse.Namespace) -> int:
    from .objectives import DpoConfig, build_pairs

    groups, failures = _read_groups(args.groups)
    if failures:
        return 1
    if args.min_score_variance > 0.0:
        kept = []
        for lineno, group in groups:
            variance = group.score_variance()
            if not math.isfinite(variance):
                _report_not_finite(args.groups, lineno, group, "score variance")
                failures += 1
            elif variance >= args.min_score_variance:
                kept.append((lineno, group))
        log.info("difficulty filter kept %d of %d groups", len(kept), len(groups))
        groups = kept
    if args.prefs_command == "pairs":
        for lineno, group in groups:
            pairs = build_pairs(group, args.margin)
            if not all(math.isfinite(pair.score_gap) for pair in pairs):
                _report_not_finite(args.groups, lineno, group, "score gap")
                failures += 1
                continue
            for pair in pairs:
                _emit(
                    {
                        "query_id": group.query_id,
                        "chosen_index": pair.chosen_index,
                        "rejected_index": pair.rejected_index,
                        "chosen_response": pair.chosen.response,
                        "rejected_response": pair.rejected.response,
                        "score_gap": pair.score_gap,
                    }
                )
        return 1 if failures else 0
    if args.prefs_command == "dpo":
        cfg = DpoConfig(beta=args.beta, nll_weight=args.nll_weight)
        chunk_text = partial(_dpo_text, margin=args.margin, cfg=cfg)
    else:
        chunk_text = _grpo_text
    for start in range(0, len(groups), _PREFS_CHUNK):
        text, bad = chunk_text(args.groups, groups[start : start + _PREFS_CHUNK])
        sys.stdout.write(text)
        failures += bad
    return 1 if failures else 0


def _phase(value: str) -> Phase:
    try:
        return Phase(value.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid phase {value!r}; choose from p1, p2, p3"
        ) from None


def _positive_int(value: str) -> int:
    # argparse would name this function in its own "invalid ... value" text.
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _capacity(value: str) -> int:
    parsed = _positive_int(value)
    if parsed > _MAX_CAPACITY:
        raise argparse.ArgumentTypeError(f"must be <= {_MAX_CAPACITY}, got {value}")
    return parsed


def _finite_float(low: float, inclusive: bool = True) -> Callable[[str], float]:
    """Argparse type for a finite float that is >= low (or > low)."""

    def parse(value: str) -> float:
        try:
            parsed = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
        if not math.isfinite(parsed):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if parsed < low or (parsed == low and not inclusive):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low:g}, got {value}"
            )
        return parsed

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navit-pack",
        description="Geometry planning, sequence packing, chat templating, "
        "preference objectives, and self-verification over JSONL files.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="resize plans for each manifest image")
    plan.add_argument("--manifest", required=True, help="sample manifest (JSONL)")
    plan.add_argument("--phase", type=_phase, default=Phase.P2)
    plan.set_defaults(func=cmd_plan)

    pack = sub.add_parser("pack", help="pack a manifest into fixed-capacity sequences")
    pack.add_argument("--manifest", required=True, help="sample manifest (JSONL)")
    pack.add_argument("--phase", type=_phase, default=Phase.P2)
    pack.add_argument("--capacity", type=_capacity, default=8192)
    pack.add_argument("--batch-size", type=_positive_int, default=8)
    pack.set_defaults(func=cmd_pack)

    chat = sub.add_parser("chat", help="render a conversation to its prompt text")
    chat.add_argument("--conversation", required=True, help="conversation JSON file")
    chat.add_argument("--phase", type=_phase, default=Phase.P2)
    chat.add_argument(
        "--thinking", action=argparse.BooleanOptionalAction, default=False,
        help="open the assistant turn inviting a think block",
    )
    chat.add_argument("--sidecar", help="write placeholder offsets JSON here")
    chat.set_defaults(func=cmd_chat)

    parse = sub.add_parser("parse", help="split think-tagged output from stdin")
    strictness = parse.add_mutually_exclusive_group()
    strictness.add_argument(
        "--strict", dest="strict", action="store_true", default=True,
        help="fail on malformed think blocks (default)",
    )
    strictness.add_argument(
        "--lenient", dest="strict", action="store_false",
        help="recover from unterminated think blocks",
    )
    parse.set_defaults(func=cmd_parse)

    verify = sub.add_parser("verify", help="run all built-in correctness checks")
    verify.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    verify.add_argument(
        "--fault-inject", choices=_CHECK_NAMES, default=None,
        help="(test only) make exactly this check fail",
    )
    verify.set_defaults(func=cmd_verify)

    grad = sub.add_parser("grad-check", help="run only the gradient checks")
    grad.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    grad.add_argument(
        "--fault-inject", choices=_GRAD_CHECKS, default=None,
        help="(test only) make exactly this check fail",
    )
    grad.set_defaults(func=cmd_grad_check)

    prefs = sub.add_parser("prefs", help="preference-objective utilities over group JSONL")
    prefs_sub = prefs.add_subparsers(dest="prefs_command", required=True)
    for name, help_text in (
        ("pairs", "emit preference pairs per group"),
        ("dpo", "emit DPO loss and gradients per pair"),
        ("grpo", "emit group-relative advantages per group"),
    ):
        p = prefs_sub.add_parser(name, help=help_text)
        p.add_argument("--groups", required=True, help="scored groups (JSONL)")
        p.add_argument(
            "--min-score-variance", type=_finite_float(0.0), default=0.0,
            help="drop groups whose score variance is below this (difficulty filter)",
        )
        if name in ("pairs", "dpo"):
            p.add_argument("--margin", type=_finite_float(0.0), default=0.0)
        if name == "dpo":
            p.add_argument("--beta", type=_finite_float(0.0, inclusive=False), default=0.1)
            p.add_argument("--nll-weight", type=_finite_float(0.0), default=0.0)
        p.set_defaults(func=cmd_prefs)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("NAVIT_PACK_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(message)s")


def _input_path(args: argparse.Namespace) -> str:
    """The file a subcommand reads its input from."""
    for name in ("manifest", "groups", "conversation"):
        if hasattr(args, name):
            return getattr(args, name)
    return "<stdin>"


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        _diag(f"{e.filename}: {e.strerror}" if e.filename is not None else str(e))
        return 1
    except UnicodeDecodeError as e:
        _diag(f"{_input_path(args)}: not UTF-8 text ({e.reason})")
        return 1


if __name__ == "__main__":
    sys.exit(main())
