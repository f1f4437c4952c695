"""Conversation rendering and think-tag parsing.

The canonical template (docs/chat_template.md, bit-exact) wraps each
message in role markers and ends by opening an assistant turn whose
control span either invites a `<think>` block or suppresses it with a
pre-closed empty block. Rendering is structural: the prompt is a stream
of text spans and image placeholder spans, each placeholder occupying
exactly its resize plan's token count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Union

from .geometry import ResizePlan
from .packing import _quoted

__all__ = [
    "ChatMessage",
    "ImagePart",
    "ImageSpan",
    "MalformedThinkBlock",
    "RenderedPrompt",
    "Role",
    "TextPart",
    "TextSpan",
    "ThinkingOutput",
    "UnresolvedImageRef",
    "IMAGE_PAD_TOKEN",
    "THINK_CLOSE",
    "THINK_OPEN",
    "THINKING_INVITE",
    "THINKING_SUPPRESS",
    "parse_thinking",
    "render",
]

TURN_START = "<|im_start|>"
TURN_END = "<|im_end|>"
IMAGE_PAD_TOKEN = "<|image_pad|>"
THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"

# Control span opening the assistant turn: an open tag invites the model
# to think first; a pre-closed empty block suppresses the section while
# keeping the toggle observable in the output.
THINKING_INVITE = THINK_OPEN + "\n"
THINKING_SUPPRESS = THINK_OPEN + "\n\n" + THINK_CLOSE + "\n\n"


class UnresolvedImageRef(KeyError):
    """A message references an image id with no resize plan."""

    def __init__(self, image_id: str):
        self.image_id = image_id
        super().__init__(f"no resize plan for image {_quoted(image_id)}")


class MalformedThinkBlock(ValueError):
    """An opening think tag has no closing tag."""


class Role(enum.Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class ImagePart:
    image_id: str


Part = Union[TextPart, ImagePart]


@dataclass(frozen=True)
class ChatMessage:
    role: Role
    parts: tuple[Part, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("message parts must be non-empty")


@dataclass(frozen=True)
class TextSpan:
    text: str


@dataclass(frozen=True)
class ImageSpan:
    image_id: str
    token_count: int


Span = Union[TextSpan, ImageSpan]


@dataclass(frozen=True)
class RenderedPrompt:
    token_stream: tuple[Span, ...]
    thinking_enabled: bool

    def flat_text(self) -> str:
        """Template text with each image expanded to token_count pad markers."""
        pieces = []
        for span in self.token_stream:
            if isinstance(span, TextSpan):
                pieces.append(span.text)
            else:
                pieces.append(IMAGE_PAD_TOKEN * span.token_count)
        return "".join(pieces)

    def image_token_total(self) -> int:
        return sum(
            s.token_count for s in self.token_stream if isinstance(s, ImageSpan)
        )

    def placeholder_offsets(self) -> list[dict]:
        """Character offsets of each image placeholder in flat_text()."""
        offsets = []
        cursor = 0
        for span in self.token_stream:
            if isinstance(span, TextSpan):
                cursor += len(span.text)
            else:
                width = len(IMAGE_PAD_TOKEN) * span.token_count
                offsets.append(
                    {
                        "id": span.image_id,
                        "token_count": span.token_count,
                        "char_start": cursor,
                        "char_end": cursor + width,
                    }
                )
                cursor += width
        return offsets


def render(
    messages: list[ChatMessage],
    thinking: bool,
    plans: Mapping[str, ResizePlan],
) -> RenderedPrompt:
    """Serialize a conversation to its prompt stream.

    Raises UnresolvedImageRef for an image id missing from `plans`. The
    rendered streams for thinking on/off differ only in the control span
    that opens the assistant turn.
    """
    spans: list[Span] = []
    for message in messages:
        spans.append(TextSpan(f"{TURN_START}{message.role.value}\n"))
        for part in message.parts:
            if isinstance(part, TextPart):
                spans.append(TextSpan(part.text))
            else:
                if part.image_id not in plans:
                    raise UnresolvedImageRef(part.image_id)
                spans.append(
                    ImageSpan(part.image_id, plans[part.image_id].token_count)
                )
        spans.append(TextSpan(f"{TURN_END}\n"))
    spans.append(TextSpan(f"{TURN_START}{Role.ASSISTANT.value}\n"))
    spans.append(TextSpan(THINKING_INVITE if thinking else THINKING_SUPPRESS))
    return RenderedPrompt(token_stream=tuple(spans), thinking_enabled=thinking)


@dataclass(frozen=True)
class ThinkingOutput:
    """Split model output: optional thinking section plus the answer."""

    thinking: str | None
    answer: str

    def to_json_dict(self) -> dict:
        return {"thinking": self.thinking, "answer": self.answer}


def parse_thinking(raw: str, lenient: bool = False) -> ThinkingOutput:
    """Split raw model output into its first think block and the answer.

    The first well-formed `<think>`...`</think>` block is extracted
    verbatim; everything else (before and after), whitespace-trimmed, is
    the answer. Later think blocks are payload and flow to the answer
    untouched. An opening tag with no closing tag raises
    MalformedThinkBlock, unless `lenient` is set, in which case the rest
    of the input becomes the thinking section and the answer is empty.
    """
    open_at = raw.find(THINK_OPEN)
    if open_at == -1:
        return ThinkingOutput(thinking=None, answer=raw.strip())
    close_at = raw.find(THINK_CLOSE, open_at + len(THINK_OPEN))
    if close_at == -1:
        if lenient:
            return ThinkingOutput(thinking=raw[open_at + len(THINK_OPEN) :], answer="")
        raise MalformedThinkBlock(
            f"opening tag at offset {open_at} is never closed"
        )
    thinking = raw[open_at + len(THINK_OPEN) : close_at]
    remainder = raw[:open_at] + raw[close_at + len(THINK_CLOSE) :]
    return ThinkingOutput(thinking=thinking, answer=remainder.strip())
