"""File-based command line interface.

Data goes to stdout, diagnostics to stderr; exit status is 0 exactly
when no diagnostic was emitted. All subcommands are deterministic given
their inputs and --seed, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

from . import __version__
from .geometry import BudgetInfeasible, ImageSize, Phase, ResizePlan, phase_budget
from .packing import (
    PAD_POSITION,
    ManifestError,
    PackedSequence,
    SampleRecord,
    SampleTooLong,
    _clipped,
    _entry,
    _json_record,
    _list,
    _plan_image,
    _plan_images,
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

T = TypeVar("T")

_CONVERSATION_KEYS = {"messages", "images"}
_CHAT_IMAGE_KEYS = {"id", "width", "height"}
_MESSAGE_KEYS = {"role", "parts"}

# The largest `pack --capacity`: a sequence line holds `capacity` position
# ids, and `_position_runs` renders all of them up front.
_MAX_CAPACITY = 2**20

_GRAD_CHECKS = ("vet-grad", "dpo-grad")


# Groups per chunk in `prefs`, and per array call in `prefs dpo` and
# `prefs grpo`. A bounded chunk holds the columns and rendered lines of
# only a few hundred pairs at a time: on a 5k-group file, one chunk for the
# whole file more than doubled the `dpo` job's peak RSS (37 -> 82 MB),
# while chunks of 64 groups add about 2 MB and run as fast.
_PREFS_CHUNK = 64


# Diagnostics written since `main` started the current command. The exit
# status is derived from it, so no subcommand counts its own failures.
_diagnostics = 0


def _diag(message: str) -> None:
    global _diagnostics
    _diagnostics += 1
    print(message, file=sys.stderr)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, separators=(",", ":"), sort_keys=False))


def _position_runs(capacity: int) -> tuple[str, list[int], str]:
    """JSON text of the ids 0..capacity-1 and of capacity pad ids, unbracketed.

    `ends[n]` is the length of the prefix of the id text that holds the
    first n ids, so every segment's position ids are one slice of it.
    """
    ids = json.dumps(list(range(capacity)), separators=(",", ":"))[1:-1]
    ends = list(accumulate((len(str(i)) + (i > 0) for i in range(capacity)), initial=0))
    pads = json.dumps([PAD_POSITION] * capacity, separators=(",", ":"))[1:-1]
    return ids, ends, pads


def _sequence_line(seq: PackedSequence, runs: tuple[str, list[int], str]) -> str:
    """The `pack` line of `seq` in one f-string, as `_plan_lines` writes a `plan` line.
    Byte-identical to its oracle `tests/mutants.oracle_line`: `json.dumps` of a dict of
    `seq`'s fields and `build_attention_metadata(seq)`'s `position_ids`. The ids are
    slices of `runs`, the `_position_runs` of `seq.capacity`, not encoded per token."""
    ids, ends, pads = runs
    capacity, lengths = seq
    segments, cumulative, positions, start = [], ["0"], [], 0
    for sid, length in lengths:
        segments.append(f"[{json.dumps(sid)},{start},{length}]")
        positions.append(ids[: ends[length]])
        start += length
        cumulative.append(str(start))
    if start < capacity:
        positions.append(pads[: (len(str(PAD_POSITION)) + 1) * (capacity - start) - 1])
    return (
        f'{{"capacity":{capacity},"segments":[{",".join(segments)}],"pad_tokens":'
        f'{capacity - start},"cumulative_lengths":[{",".join(cumulative)}],'
        f'"position_ids":[{",".join(positions)}]}}'
    )


def _plan_lines(record_id: str, plans: list[tuple[int, ResizePlan]]) -> Iterator[str]:
    """Record `record_id`'s `plan` lines, one f-string per `(image index, plan)`. Each equals
    `json.dumps` of its dict plus a newline, byte for byte: the oracle its tests hold it to."""
    id_json = json.dumps(record_id)
    for index, plan in plans:
        source, target = plan.source, plan.target
        yield (
            f'{{"id":{id_json},"image_index":{index},"source":{{"width":{source.width},'
            f'"height":{source.height}}},"target":{{"width":{target.width},"height":'
            f'{target.height}}},"grid_rows":{plan.grid_rows},"grid_cols":{plan.grid_cols},'
            f'"token_count":{plan.token_count}}}\n'
        )


def _records(path: str, parse: Callable[[str], T]) -> Iterator[tuple[int, T]]:
    """`(lineno, parse(line))` for each non-blank line of `path`.

    A line whose `parse` raises `ValueError` is reported as
    `path:lineno: message` and skipped.
    """
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                value = parse(line)
            except ValueError as e:
                _diag(f"{path}:{lineno}: {e}")
                continue
            yield lineno, value


def cmd_plan(args: argparse.Namespace) -> None:
    budget = phase_budget(args.phase)
    for lineno, record in _records(args.manifest, parse_manifest_line):
        plans = []
        for index, size in enumerate(record.images):
            try:
                plans.append((index, _plan_image(index, size, budget)))
            except BudgetInfeasible as e:
                _diag(f"{args.manifest}:{lineno}: {e}")
        sys.stdout.writelines(_plan_lines(record.id, plans))


def cmd_pack(args: argparse.Namespace) -> None:
    budget = phase_budget(args.phase)
    seen_ids: set[str] = set()

    def sample(line: str) -> SampleRecord:
        record = parse_manifest_line(line)
        if record.id in seen_ids:
            raise ManifestError(f"duplicate sample id {_quoted(record.id)}")
        seen_ids.add(record.id)
        return sample_from_record(record, budget)

    samples = [s for _, s in _records(args.manifest, sample)]
    if _diagnostics:
        return
    try:
        sequences = pack_ffd(samples, args.capacity)
    except SampleTooLong as e:
        _diag(f"{args.manifest}: {e}")
        return
    report = packing_report(samples, sequences, args.capacity, args.batch_size)
    runs = _position_runs(args.capacity)
    for seq in sequences:
        print(_sequence_line(seq, runs))
    _emit(report._asdict())


def _parse_conversation(text: str) -> tuple[list[ChatMessage], dict[str, ImageSize]]:
    from .chat import ChatMessage, ImagePart, Role, TextPart

    obj = _json_record(text, _CONVERSATION_KEYS, "conversation")
    sizes: dict[str, ImageSize] = {}
    for i, img in enumerate(_list(obj, "images")):
        _entry(img, _CHAT_IMAGE_KEYS, "image", i)
        image_id = img.get("id")
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


def cmd_chat(args: argparse.Namespace) -> None:
    from .chat import UnresolvedImageRef, render

    # Read outside the `try`: an unreadable or non-UTF-8 file is reported
    # by `main`, like every other input file.
    with open(args.conversation, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        messages, sizes = _parse_conversation(text)
        plans = dict(zip(sizes, _plan_images(sizes.values(), phase_budget(args.phase))))
        prompt = render(messages, args.thinking, plans)
    except (ValueError, UnresolvedImageRef) as e:
        _diag(f"{args.conversation}: {e}")
        return
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


def cmd_parse(args: argparse.Namespace) -> None:
    from .chat import MalformedThinkBlock, parse_thinking

    # Strict UTF-8 whatever the locale: under C/POSIX, sys.stdin would pass
    # invalid bytes through as surrogates.
    raw = sys.stdin.buffer.read().decode("utf-8")
    try:
        result = parse_thinking(raw, lenient=not args.strict)
    except MalformedThinkBlock as e:
        _diag(f"malformed think block: {e}")
        return
    _emit(result._asdict())


def cmd_verify(args: argparse.Namespace) -> None:
    """`verify` and `grad-check`: run the checks in `args.only` (all if None)."""
    from .selfcheck import run_checks

    results = run_checks(args.seed, only=args.only)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        _diag(f"failed checks: {', '.join(failed)}")


def _negated(text: str) -> str:
    """`repr(-x)` from `repr(x)` for a finite float `x`: the sign flipped."""
    return text[1:] if text[0] == "-" else "-" + text


# `(lineno, group, what)` of a group that `prefs` leaves out because its
# `what` is not finite.
Fault = tuple[int, "PreferenceGroup", str]


def _pairs_text(
    chunk: list[tuple[int, PreferenceGroup]], margin: float
) -> tuple[str, list[Fault]]:
    """The `prefs pairs` lines of `chunk`, one `json.dumps` per pair. A
    group with a score gap that is not finite is left out as a fault."""
    from .objectives import pair_indices

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
    """The `prefs dpo` lines of `chunk` from one `dpo_losses` call. A group
    with a value that is not finite is left out as a fault.

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
    lines, faults = [], []
    start = 0
    for (lineno, group), pairs in zip(chunk, spans):
        end = start + len(pairs)
        if not all(finite[start:end]):
            faults.append((lineno, group, "loss or gradient"))
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
    return "".join(lines), faults


def _grpo_text(chunk: list[tuple[int, PreferenceGroup]]) -> tuple[str, list[Fault]]:
    """The `prefs grpo` lines of `chunk` from one `grpo_advantages_rows`
    call per group size. A group with an advantage that is not finite is
    left out as a fault. Lines are rendered with `repr` as in
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
    lines, faults = [], []
    for (lineno, group), row in zip(chunk, advantages):
        if not all(map(math.isfinite, row)):
            faults.append((lineno, group, "advantage"))
            continue
        values = ",".join(map(repr, row))
        lines.append(f'{{"query_id":{json.dumps(group.query_id)},"advantages":[{values}]}}\n')
    return "".join(lines), faults


def cmd_prefs(args: argparse.Namespace) -> None:
    from .objectives import DpoConfig, parse_group_line

    groups = list(_records(args.groups, parse_group_line))
    if _diagnostics:
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
            _diag(f"{args.groups}:{lineno}: query {quoted}: {what} is not finite")


# The argparse types below echo a bad value cut by `_clipped`, so that a
# huge argument gives a one-line usage error.


def _phase(value: str) -> Phase:
    try:
        return Phase(value.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid phase {_clipped(value)!r}; choose from p1, p2, p3"
        ) from None


def _int_at_least(low: int) -> Callable[[str], int]:
    """Argparse type for an integer that is >= low."""

    def parse(value: str) -> int:
        # argparse would name this function in its own "invalid ... value" text.
        try:
            parsed = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {_clipped(value)!r}"
            ) from None
        if parsed < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {_clipped(value)}")
        return parsed

    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)


def _capacity(value: str) -> int:
    parsed = _positive_int(value)
    if parsed > _MAX_CAPACITY:
        raise argparse.ArgumentTypeError(
            f"must be <= {_MAX_CAPACITY}, got {_clipped(value)}"
        )
    return parsed


def _finite_float(low: float, inclusive: bool = True) -> Callable[[str], float]:
    """Argparse type for a finite float that is >= low (or > low)."""

    def parse(value: str) -> float:
        try:
            parsed = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid float value: {_clipped(value)!r}"
            ) from None
        if not math.isfinite(parsed):
            raise argparse.ArgumentTypeError(f"must be finite, got {_clipped(value)}")
        if parsed < low or (parsed == low and not inclusive):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low:g}, got {_clipped(value)}"
            )
        return parsed

    return parse


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors cut each echoed argument with
    `_clipped`, so that a huge argument gives a short usage error.

    Subparsers are built from the same class, so they cut their own
    errors too.
    """

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        for token in self._argv:
            for form in (repr(token), token):
                message = message.replace(form, _clipped(form))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    verify.add_argument("--seed", type=_seed, default=0, help="seed for randomized checks")
    verify.set_defaults(func=cmd_verify, only=None)

    grad = sub.add_parser("grad-check", help="run only the gradient checks")
    grad.add_argument("--seed", type=_seed, default=0, help="seed for randomized checks")
    grad.set_defaults(func=cmd_verify, only=_GRAD_CHECKS)

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


def _input_path(args: argparse.Namespace) -> str:
    """The file a subcommand reads its input from."""
    for name in ("manifest", "groups", "conversation"):
        if hasattr(args, name):
            return getattr(args, name)
    return "<stdin>"


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the exit status is 1 exactly when it wrote a diagnostic."""
    global _diagnostics
    args = build_parser().parse_args(argv)
    _diagnostics = 0
    try:
        args.func(args)
    except OSError as e:
        name = e.filename  # cut like an echoed value; an empty one shows as ''
        _diag(str(e) if name is None else f"{_clipped(name) or repr(name)}: {e.strerror}")
    except UnicodeDecodeError as e:
        _diag(f"{_input_path(args)}: not UTF-8 text ({e.reason})")
    return 1 if _diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
