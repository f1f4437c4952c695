"""`chat` and `parse`, which `cli.main` imports when it dispatches them."""

from __future__ import annotations

import argparse
import json
import sys

from . import cli
from .chat import (
    ChatMessage,
    ImagePart,
    MalformedThinkBlock,
    Role,
    TextPart,
    parse_thinking,
    render,
)
from .errors import _quoted
from .geometry import ImageSize, phase_budget
from .packing import _plan_images, parse_image_size
from .records import ManifestError, _entry, _json_record, _list

_CONVERSATION_KEYS = {"messages", "images"}
_CHAT_IMAGE_KEYS = {"id", "width", "height"}
_MESSAGE_KEYS = {"role", "parts"}


def _parse_conversation(text: str) -> tuple[list[ChatMessage], dict[str, ImageSize]]:
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
        for j, part in enumerate(_list(msg, "parts", f"message {i}: ", required=True)):
            fields = part.keys() if isinstance(part, dict) else ()
            if fields == {"text"} and isinstance(part["text"], str):
                parts.append(TextPart(part["text"]))
            elif fields == {"image"} and isinstance(part["image"], str):
                parts.append(ImagePart(part["image"]))
            else:
                raise ManifestError(f"message {i} part {j}: need exactly one of text/image")
        try:
            messages.append(ChatMessage(role=role, parts=tuple(parts)))
        except ValueError as e:
            raise ManifestError(f"message {i}: {e}") from None
    if not messages:
        raise ManifestError("conversation has no messages")
    return messages, sizes


def cmd_chat(args: argparse.Namespace) -> None:
    # Read outside the `try`: an unreadable or non-UTF-8 file is reported
    # by `main`, like every other input file.
    with open(args.conversation, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        messages, sizes = _parse_conversation(text)
        plans = dict(zip(sizes, _plan_images(sizes.values(), phase_budget(args.phase))))
        prompt = render(messages, args.thinking, plans)
    except ValueError as e:
        cli._diag(f"{cli._shown(args.conversation)}: {e}")
        return
    cli._write(prompt.flat_text())
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
    # Strict UTF-8 whatever the locale: under C/POSIX, sys.stdin would pass
    # invalid bytes through as surrogates.
    raw = sys.stdin.buffer.read().decode("utf-8")
    try:
        result = parse_thinking(raw, lenient=not args.strict)
    except MalformedThinkBlock as e:
        cli._diag(f"malformed think block: {e}")
        return
    cli._write(json.dumps(result._asdict(), separators=(",", ":")) + "\n")
