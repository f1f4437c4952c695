"""File-based command line interface.

Data goes to stdout, diagnostics to stderr; exit status is 0 exactly
when no diagnostic was emitted. `plan`, `pack` and `prefs` write stdout
in blocks (`_write_blocks`); a reader of stdout that goes away is
reported as `<stdout>: Broken pipe`. All subcommands are deterministic given
their inputs and --seed, so repeated runs are byte-identical. `main`
imports a subcommand's `module` (`cli_pack`, `cli_chat` or `cli_prefs`)
only when it dispatches to it, so the parser and a usage error load no other.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from . import __version__
from .errors import _QUOTE_LIMIT, _clipped, _quoted

if TYPE_CHECKING:
    from .geometry import Phase

T = TypeVar("T")

# The largest `pack --capacity`: a sequence line holds `capacity` position
# ids, and `cli_pack._position_runs` renders all of them up front.
_MAX_CAPACITY = 2**20


# `_write_blocks` writes stdout in blocks of at least this many characters
# (the last one shorter), so a run makes one write per block, not per line.
_BLOCK = 1 << 16

# Diagnostics written since `main` started the current command. The exit
# status is derived from it, so no subcommand counts its own failures.
_diagnostics = 0


def _diag(message: str) -> None:
    global _diagnostics
    _diagnostics += 1
    print(message, file=sys.stderr)


def _shown(path: str) -> str:
    """`path` for a one-line diagnostic: bare if printable and non-empty, else `_quoted`."""
    return path if path.isprintable() and path else _quoted(path)


def _records(path: str, parse: Callable[[str], T]) -> Iterator[tuple[int, T]]:
    """`(lineno, parse(line))` for each non-blank line of `path`.

    Lines end at `\n` alone, and a line of only JSON whitespace (space,
    tab, CR, LF) is blank. A line whose `parse` raises `ValueError` is
    reported as `path:lineno: message` and skipped.
    """
    with open(path, "r", encoding="utf-8", newline="\n") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip(" \t\r\n"):
                continue
            try:
                value = parse(line)
            except ValueError as e:
                _diag(f"{_shown(path)}:{lineno}: {e}")
                continue
            yield lineno, value


class _StdoutClosed(Exception):
    """The reader of stdout went away."""


def _write(text: str) -> None:
    """Write `text` to stdout. A reader that went away raises `_StdoutClosed`,
    so that `main` can name stdout, which a `BrokenPipeError` does not."""
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        raise _StdoutClosed from None


def _write_blocks(lines: Iterable[str]) -> None:
    """Write `lines` to stdout joined into blocks of `_BLOCK` characters.

    The pending block is written also when `lines` raises, so a run that
    fails mid-file writes every line made before the fault.
    """
    block: list[str] = []
    size = 0
    try:
        for line in lines:
            block.append(line)
            size += len(line)
            if size >= _BLOCK:
                text, block, size = "".join(block), [], 0
                _write(text)
    finally:
        if block:
            _write("".join(block))


# The argparse types below echo a bad value cut by `_clipped`, so that a
# huge argument gives a one-line usage error.


def _echo(value: str) -> str:
    """`repr(_clipped(value))`, cut by `_clipped` too if its escapes make it longer."""
    text = repr(_clipped(value))
    return text if len(text) <= _QUOTE_LIMIT + 2 else _clipped(text)


def _phase(value: str) -> Phase:
    if value.lower() not in ("p1", "p2", "p3"):  # checked before `geometry` is loaded
        raise argparse.ArgumentTypeError(f"invalid phase {_echo(value)}; choose from p1, p2, p3")
    from .geometry import Phase

    return Phase(value.lower())


def _number(
    convert: type, low: float, above: bool = False, high: float | None = None
) -> Callable[[str], float]:
    """Argparse type for a number read by `convert` (`int` or `float`) that is
    >= low (> low if `above`) and, if `high` is given, <= high. A float must
    also be finite; an int is not checked, as `math.isfinite` overflows on
    huge ones."""

    def parse(value: str) -> float:
        # argparse would name this function in its own "invalid ... value" text.
        try:
            parsed = convert(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {_echo(value)}"
            ) from None
        if convert is float and not math.isfinite(parsed):
            raise argparse.ArgumentTypeError(f"must be finite, got {_clipped(value)}")
        if parsed < low or (above and parsed == low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if above else '>='} {low}, got {_clipped(value)}"
            )
        if high is not None and parsed > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {_clipped(value)}")
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
        # The one echo of part of a token: the `'x...'` that `-h=x...` ends with.
        head, sep, echo = message.partition("ignored explicit argument ")
        super().error(head + sep + _clipped(echo))


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
    plan.add_argument("--phase", type=_phase, default="p2")
    plan.set_defaults(module="cli_pack", func="cmd_plan")

    pack = sub.add_parser("pack", help="pack a manifest into fixed-capacity sequences")
    pack.add_argument("--manifest", required=True, help="sample manifest (JSONL)")
    pack.add_argument("--phase", type=_phase, default="p2")
    pack.add_argument("--capacity", type=_number(int, 1, high=_MAX_CAPACITY), default=8192)
    pack.add_argument("--batch-size", type=_number(int, 1), default=8)
    pack.set_defaults(module="cli_pack", func="cmd_pack")

    chat = sub.add_parser("chat", help="render a conversation to its prompt text")
    chat.add_argument("--conversation", required=True, help="conversation JSON file")
    chat.add_argument("--phase", type=_phase, default="p2")
    chat.add_argument(
        "--thinking", action=argparse.BooleanOptionalAction, default=False,
        help="open the assistant turn inviting a think block",
    )
    chat.add_argument("--sidecar", help="write placeholder offsets JSON here")
    chat.set_defaults(module="cli_chat", func="cmd_chat")

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
    parse.set_defaults(module="cli_chat", func="cmd_parse")

    verify = sub.add_parser("verify", help="run all built-in correctness checks")
    verify.add_argument(
        "--seed", type=_number(int, 0), default=0, help="seed for randomized checks"
    )
    verify.set_defaults(module="cli_prefs", func="cmd_verify")

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
            "--min-score-variance", type=_number(float, 0), default=0.0,
            help="drop groups whose score variance is below this (difficulty filter)",
        )
        if name in ("pairs", "dpo"):
            p.add_argument("--margin", type=_number(float, 0), default=0.0)
        if name == "dpo":
            p.add_argument("--beta", type=_number(float, 0, above=True), default=0.1)
            p.add_argument("--nll-weight", type=_number(float, 0), default=0.0)
        p.set_defaults(module="cli_prefs", func="cmd_prefs")

    return parser


def _input_path(args: argparse.Namespace) -> str:
    """The file a subcommand reads its input from."""
    for name in ("manifest", "groups", "conversation"):
        if hasattr(args, name):
            return getattr(args, name)
    return "<stdin>"


def _stdout_closed() -> None:
    """Report that the reader of stdout went away, and point stdout at the
    null device, so that the flush at exit has nowhere to fail."""
    _diag("<stdout>: Broken pipe")
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    except (OSError, ValueError):  # stdout has no file descriptor
        pass


def main(argv: list[str] | None = None) -> int:
    """Run `args.func` of `args.module`; return 1 exactly if it wrote a diagnostic, else 0."""
    global _diagnostics
    args = build_parser().parse_args(argv)
    command = getattr(import_module(f".{args.module}", __package__), args.func)
    _diagnostics = 0
    try:
        command(args)
    except _StdoutClosed:
        _stdout_closed()
    except OSError as e:
        name = e.filename  # cut like an echoed value
        _diag(str(e) if name is None else f"{_clipped(_shown(name))}: {e.strerror}")
    except UnicodeDecodeError as e:
        _diag(f"{_shown(_input_path(args))}: not UTF-8 text ({e.reason})")
    else:
        try:
            sys.stdout.flush()  # a closed stdout fails here, not at exit
        except BrokenPipeError:
            _stdout_closed()
    return 1 if _diagnostics else 0
