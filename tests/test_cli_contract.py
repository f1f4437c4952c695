"""The CLI contract under mutated input records.

Valid manifest, group and conversation records are built from a seeded
`random.Random`, then one value in them is mutated: a key dropped, an
unknown key added (its name possibly 5,000 characters long), a value
swapped for another JSON type, a huge integer, a 5,000-character string,
or a JSON `NaN`. `plan`, `pack`, `chat` and `prefs pairs|dpo|grpo` then
run in-process through `cli.main`, and each run must end one of two ways:
exit 0 with schema-valid output and nothing on stderr, or exit 1 with
only `path:` (or `path:line:`) diagnostics. No exception may escape.

`run_case(command, rng, directory)` is deterministic for a seeded `rng`,
so a fixed corpus (`rng = random.Random(seed)`) can be replayed against
two versions of the program and their stderr compared byte for byte.
"""

import contextlib
import copy
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from navit_pack import cli

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"

# More digits than `json.loads` converts to an int (Python's 4300-digit
# limit), so it cannot go through `json.dumps`: written in as raw text.
_MANY_DIGITS = "\x00many-digits\x00"
HUGE_INTS = (2**64, 10**300, 10**400, _MANY_DIGITS)
# Longer than any diagnostic line may be: an echo of it must be cut.
LONG = "L" * 5000
MUTATIONS = ("none", "drop", "add", "swap", "huge", "long", "nan")
_ALPHABET = "ab01 _-é\n\""


def _text(rng, least=1):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(least, 5)))


def _image_size(rng):
    return {"width": rng.randint(1, 4000), "height": rng.randint(1, 4000)}


def manifest_record(rng, i):
    record = {"id": f"s{i}{_text(rng, 0)}", "text_tokens": rng.randint(0, 400)}
    if rng.random() < 0.6:
        record["images"] = [_image_size(rng) for _ in range(rng.randint(0, 2))]
    return record


def group_record(rng, i):
    return {
        "query_id": f"q{i}{_text(rng, 0)}",
        "candidates": [
            {
                "response": f"r{j}{_text(rng, 0)}",
                "logprob_policy": -rng.uniform(0.0, 30.0),
                "logprob_reference": -rng.uniform(0.0, 30.0),
                "score": rng.choice([0, 1, 0.5, rng.uniform(-2.0, 2.0)]),
            }
            for j in range(rng.randint(2, 4))
        ],
    }


def conversation(rng):
    images = [{"id": f"img{k}", **_image_size(rng)} for k in range(rng.randint(0, 2))]
    messages = []
    for _ in range(rng.randint(1, 3)):
        parts = [{"text": _text(rng)} for _ in range(rng.randint(0, 2))]
        if images and rng.random() < 0.5:
            parts.insert(rng.randint(0, len(parts)), {"image": rng.choice(images)["id"]})
        messages.append({"role": rng.choice(["system", "user", "assistant"]), "parts": parts or [{"text": "x"}]})
    conv = {"messages": messages}
    if images or rng.random() < 0.5:
        conv["images"] = images
    return conv


def _json_value(rng):
    """A value of a random JSON type: str, int, bool, float, null, list or dict."""
    return rng.choice([
        _text(rng, 0), rng.randint(-3, 3), rng.random() < 0.5, rng.uniform(-3.0, 3.0),
        None, [rng.randint(0, 3)], {"k": rng.randint(0, 3)},
    ])


def _slots(value, parent=None, key=None):
    """(container, key, value) for every value in `value`, the root first."""
    yield parent, key, value
    if isinstance(value, dict):
        for k, v in list(value.items()):
            yield from _slots(v, value, k)
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _slots(v, value, k)


def mutate(record, rng):
    """A copy of `record` with at most one value mutated."""
    record = copy.deepcopy(record)
    kind = rng.choice(MUTATIONS)
    if kind == "none":
        return record
    parent, key, value = rng.choice(list(_slots(record)))
    if kind == "drop" and parent is not None:
        del parent[key]
        return record
    if kind == "add" and isinstance(value, dict):
        value[rng.choice(["bogus", "", "Id", "images2", LONG])] = _json_value(rng)
        return record
    if kind == "add" and isinstance(value, list):
        value.append(_json_value(rng))
        return record
    if kind == "huge":
        replacement = rng.choice(HUGE_INTS)
    elif kind == "long":
        replacement = LONG
    elif kind == "nan":
        replacement = float("nan")
    else:
        replacement = _json_value(rng)
    if parent is None:
        return replacement
    parent[key] = replacement
    return record


def _dumps(value):
    return json.dumps(value).replace(json.dumps(_MANY_DIGITS), "9" * 5000)


def _records_file(path, make, rng):
    """1-3 records, each mutated with probability 1/2 (and at least one)."""
    count = rng.randint(1, 3)
    chosen = rng.randrange(count)
    lines = []
    for i in range(count):
        record = make(rng, i)
        if i == chosen or rng.random() < 0.5:
            record = mutate(record, rng)
        lines.append(_dumps(record) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


# Subcommand -> (input kind, extra arguments, schema of each stdout line).
COMMANDS = {
    "plan": ("manifest", ["plan"], "resize_plan_line"),
    "pack": ("manifest", ["pack", "--capacity", "16384"], "packed_sequence_line"),
    "chat": ("conversation", ["chat"], None),
    "prefs pairs": ("groups", ["prefs", "pairs"], "pair_line"),
    "prefs dpo": ("groups", ["prefs", "dpo"], "dpo_line"),
    "prefs grpo": ("groups", ["prefs", "grpo"], "grpo_line"),
}


def run_case(command, rng, directory):
    """Write mutated input for `command` into `directory`, run `cli.main` on
    it, and return (input path, exit code, stdout, stderr, sidecar text)."""
    kind, argv, _ = COMMANDS[command]
    directory = Path(directory)
    path = directory / f"{kind}.json"
    sidecar = directory / "sidecar.json"
    if sidecar.exists():
        sidecar.unlink()
    if kind == "manifest":
        _records_file(path, manifest_record, rng)
        argv = [*argv, "--manifest", str(path)]
    elif kind == "groups":
        _records_file(path, group_record, rng)
        argv = [*argv, "--groups", str(path)]
    else:
        path.write_text(_dumps(mutate(conversation(rng), rng)), encoding="utf-8")
        argv = [*argv, "--conversation", str(path), "--sidecar", str(sidecar)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    side = sidecar.read_text(encoding="utf-8") if sidecar.exists() else None
    return str(path), code, out.getvalue(), err.getvalue(), side


_VALIDATORS = {}


def _validate(schema, obj):
    if "position_ids" in obj:
        # The schema checks each id on its own, so its distinct values (by
        # type and value) validate the same, at a fraction of the cost.
        distinct = {(type(v), v): v for v in obj["position_ids"]}
        obj = {**obj, "position_ids": list(distinct.values())}
    if schema not in _VALIDATORS:
        with open(SCHEMAS / f"{schema}.schema.json", encoding="utf-8") as f:
            _VALIDATORS[schema] = Draft202012Validator(json.load(f))
    _VALIDATORS[schema].validate(obj)


def _strict_loads(line):
    def reject(constant):
        raise ValueError(f"non-finite JSON number {constant}")

    return json.loads(line, parse_constant=reject)


@settings(max_examples=50, deadline=None)
@given(rng=st.randoms(use_true_random=False))
@pytest.mark.parametrize("command", COMMANDS)
def test_mutated_records_keep_the_contract(command, rng):
    with tempfile.TemporaryDirectory() as directory:
        path, code, out, err, sidecar = run_case(command, rng, directory)
    schema = COMMANDS[command][2]
    lines = out.splitlines()
    if code == 0:
        assert err == ""
        if command == "pack":
            _validate("packing_report", _strict_loads(lines.pop()))
        if schema is None:
            _validate("chat_sidecar", _strict_loads(sidecar))
    else:
        assert code == 1
        assert err
        for line in err.splitlines():
            assert line.startswith(f"{path}:"), line
            assert len(line) < 1000, line
    if schema is not None:
        for line in lines:
            _validate(schema, _strict_loads(line))


@pytest.mark.parametrize("command", COMMANDS)
def test_deeply_nested_line_is_a_diagnostic(command, tmp_path):
    # Deeper than the JSON decoder can recurse: a RecursionError inside it.
    kind, argv, _ = COMMANDS[command]
    path = tmp_path / f"{kind}.json"
    path.write_text("[" * 100_000 + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, f"--{kind}", str(path)])
    where = f"{path}:" if kind == "conversation" else f"{path}:1:"
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith(f"{where} invalid JSON: ")
    assert err.getvalue().count("\n") == 1


def test_corpus_reaches_both_outcomes():
    # The generator must produce runs that succeed as well as runs that
    # fail, for every subcommand, or the contract test checks only half.
    with tempfile.TemporaryDirectory() as directory:
        for command in COMMANDS:
            codes = {run_case(command, random.Random(seed), directory)[1] for seed in range(20)}
            assert codes == {0, 1}, command
