"""Pinned bytes of the pure-Python subcommands.

`write_inputs(directory)` writes small seeded inputs: a manifest, a
manifest with malformed lines, a conversation, two think-tagged outputs
and a file of scored groups. Each case in `golden.json` names an argv
(and, for `parse`, a stdin file) run in that directory through
`mutants.run_in_process`, with the sha256 of its stdout and stderr and its
exit status; a `chat` case also pins its sidecar. Covered: `plan` at p1
and p2, `pack` at two capacities, `chat` with and without `--thinking`,
`parse` strict and lenient, `prefs pairs` with default and non-default
flags, `prefs grpo` with and without `--min-score-variance`, and the
malformed and edge-line manifests under `plan` and `pack`.

`prefs grpo` computes each group's advantages (`objectives.grpo_advantages`)
with `+`, `-`, `*`, `/` and `sqrt` on Python floats in a fixed order, each
correctly rounded on every platform, so its bytes can be pinned. `prefs dpo`
is not pinned here: each pair's loss and gradients (`objectives.dpo_loss`)
come from libm's `exp` and `log1p`, which may round differently on other
platforms. Nor is `verify`, which prints numpy results. They stay on
their oracles (`mutants.prefs_oracle` and the `verify` tests).

A change that moves a pinned byte on purpose rewrites the hashes with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import hashlib
import json
import os
import random
import tempfile
from pathlib import Path

from mutants import EDGE_LINES, run_in_process

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Common camera and screen sizes, so that some images repeat.
_COMMON_SIZES = ((640, 480), (1280, 720), (1024, 1024), (1920, 1080), (800, 600))
_ALPHABET = "ab01 _-é\"\\"


def _text(rng, least=1):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(least, 6)))


def _image(rng):
    draw = rng.random()
    if draw < 0.3:
        width, height = rng.choice(_COMMON_SIZES)
    elif draw < 0.4:
        # A sliver, of aspect 100:1 to 1000:1, that still has a grid within
        # the distortion limit.
        width = rng.randint(2000, 3000)
        height = round(width / rng.uniform(100.0, 1000.0))
    else:
        width, height = rng.randint(16, 2400), rng.randint(16, 2400)
    if rng.random() < 0.5:
        width, height = height, width
    return {"width": width, "height": height}


def _manifest(rng, n):
    records = []
    for i in range(n):
        record = {"id": f"s{i:03d}{_text(rng, 0)}", "text_tokens": rng.randint(1, 400)}
        if rng.random() < 0.7:
            record["images"] = [_image(rng) for _ in range(rng.randint(0, 2))]
        records.append(json.dumps(record, ensure_ascii=rng.random() < 0.5))
    return "\n".join(records) + "\n"


_MALFORMED_LINES = (
    '{"id": "bad-json", "text_tokens": 3',
    '{"id": "extra", "text_tokens": 3, "colour": "red"}',
    '{"id": "negative", "text_tokens": -1}',
    '{"text_tokens": 5}',
    '{"id": "zero-width", "text_tokens": 1, "images": [{"width": 0, "height": 8}]}',
    '{"id": "sliver", "text_tokens": 1, "images": [{"width": 10000, "height": 3}]}',
    "[1, 2, 3]",
    "",
)


def _malformed_manifest(rng):
    lines = _manifest(rng, 12).splitlines()
    for bad in _MALFORMED_LINES:
        lines.insert(rng.randint(0, len(lines)), bad)
    lines.append(lines[0])  # a duplicate id, which only `pack` rejects
    return "\n".join(lines) + "\n"


def _conversation(rng):
    images = [{"id": f"img{i}", **_image(rng)} for i in range(3)]
    messages = [{"role": "system", "parts": [{"text": "You look closely. " + _text(rng)}]}]
    for turn in range(3):
        parts = [{"text": _text(rng)}, {"image": images[turn]["id"]}, {"text": _text(rng)}]
        messages.append({"role": "user", "parts": parts})
        if turn < 2:
            messages.append({"role": "assistant", "parts": [{"text": _text(rng)}]})
    return json.dumps({"messages": messages, "images": images})


def _groups(rng, n):
    lines = []
    for i in range(n):
        candidates = []
        for j in range(rng.randint(2, 6)):
            score = rng.choice((0.0, 0.5, 1.0)) if i % 2 else rng.uniform(-1.0, 1.0)
            candidates.append({
                "response": f"r{j}{_text(rng, 0)}",
                "logprob_policy": rng.uniform(-20.0, -0.1),
                "logprob_reference": rng.uniform(-20.0, -0.1),
                "score": score,
            })
        lines.append(json.dumps({"query_id": f"q{i:03d}{_text(rng, 0)}", "candidates": candidates}))
    return "\n".join(lines) + "\n"


def write_inputs(directory):
    """Write every input file that a case in `golden.json` names."""
    rng = random.Random(20251019)
    files = {
        "manifest.jsonl": _manifest(rng, 150),
        "malformed.jsonl": _malformed_manifest(rng),
        "edge.jsonl": "".join(EDGE_LINES),
        "conversation.json": _conversation(rng),
        "think.txt": "Let me see. <think>two plus two\nis four</think> The answer is 4. ",
        "unclosed.txt": "Answer first <think>then a thought that never ends\n",
        "groups.jsonl": _groups(rng, 150),
    }
    for name, text in files.items():
        (Path(directory) / name).write_text(text, encoding="utf-8")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(case):
    """The pinned record of `case` (its argv and stdin with their output
    hashes and exit status), run in the current directory."""
    stdin = Path(case["stdin"]).read_bytes() if "stdin" in case else b""
    code, out, err = run_in_process(*case["argv"], stdin=stdin)
    record = {k: case[k] for k in ("argv", "stdin") if k in case}
    record.update(stdout=_sha256(out), stderr=_sha256(err), exit=code)
    if "--sidecar" in case["argv"]:
        sidecar = Path(case["argv"][case["argv"].index("--sidecar") + 1])
        record["sidecar"] = _sha256(sidecar.read_text(encoding="utf-8"))
    return record


def test_pinned_bytes(tmp_path, monkeypatch):
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for case in cases:
        assert run_case(case) == case, case["argv"]
    assert {case["exit"] for case in cases} == {0, 1}


if __name__ == "__main__":
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        here = os.getcwd()
        os.chdir(directory)
        try:
            cases = [run_case(case) for case in cases]
        finally:
            os.chdir(here)
    lines = ",\n".join(json.dumps(case, ensure_ascii=False) for case in cases)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
