"""The CLI contract under mutated input records.

Valid manifest, group and conversation records are built from a seeded
`random.Random`, then one value in them is mutated: a key dropped, an
unknown key added (its name possibly 5,000 characters long), a value
swapped for another JSON type, a huge integer, a 5,000-character string,
or a JSON `NaN`. `plan`, `pack`, `chat` and `prefs pairs|dpo|grpo` then
run in-process through `cli.main`, and each run must end one of two ways:
exit 0 with schema-valid output and nothing on stderr, or exit 1 with
only `path:` (or `path:line:`) diagnostics. No exception may escape.

The same contract holds under any argv (`test_any_argv_keeps_the_contract`),
with a third way to end: exit 2 with a usage error under 600 characters.

`run_case(command, rng, directory)` is deterministic for a seeded `rng`,
so a fixed corpus (`rng = random.Random(seed)`) can be replayed against
two versions of the program and their stderr compared byte for byte.
"""

import argparse
import copy
import json
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from mutants import run_in_process
from navit_pack import cli, selfcheck
from navit_pack.errors import _clipped

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"

# More digits than `json.loads` converts to an int (Python's 4300-digit
# limit), so it cannot go through `json.dumps`: written in as raw text.
_MANY_DIGITS = "\x00many-digits\x00"
HUGE_INTS = (2**64, 10**300, 10**308, 10**400, _MANY_DIGITS)
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
    code, out, err = run_in_process(*argv)
    side = sidecar.read_text(encoding="utf-8") if sidecar.exists() else None
    return str(path), code, out, err, side


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
    code, out, err = run_in_process(*argv, f"--{kind}", str(path))
    where = f"{path}:" if kind == "conversation" else f"{path}:1:"
    assert (code, out) == (1, "")
    assert err.startswith(f"{where} invalid JSON: ")
    assert err.count("\n") == 1


def test_corpus_reaches_both_outcomes():
    # The generator must produce runs that succeed as well as runs that
    # fail, for every subcommand, or the contract test checks only half.
    with tempfile.TemporaryDirectory() as directory:
        for command in COMMANDS:
            codes = {run_case(command, random.Random(seed), directory)[1] for seed in range(20)}
            assert codes == {0, 1}, command


# Input files for the argv property, by name, written into the working
# directory before each run: a run may overwrite one with a sidecar.
ARGV_FILES = {
    "manifest.jsonl": json.dumps(manifest_record(random.Random(1), 0)).encode() + b"\n",
    "malformed.jsonl": b'{"id": "a", "text_tokens": -1}\n',
    "groups.jsonl": json.dumps(group_record(random.Random(2), 0)).encode() + b"\n",
    "conversation.json": json.dumps(conversation(random.Random(3))).encode(),
    "latin1.jsonl": b'{"id": "\xe9", "text_tokens": 1}\n',
}
# The options a subcommand needs to run, each naming a valid input.
NEEDS = {
    "plan": ["--manifest", "manifest.jsonl"],
    "pack": ["--manifest", "manifest.jsonl"],
    "chat": ["--conversation", "conversation.json"],
    "prefs": ["--groups", "groups.jsonl"],
}
OPTION_VALUES = [
    *ARGV_FILES, "missing.jsonl", "adir", "sidecar.json", ".", "p1", "p2", "P3", "p4",
    "0", "1", "-1", "8", "1048576", "1048577", "0.5", "-0.0", "1e-9", "inf", "nan", "1e400", "x",
]


def _parsers(parser, prefix=()):
    """`(argv prefix, parser)` of `parser` and of every subcommand under it."""
    yield list(prefix), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, (*prefix, name))


PARSERS = {" ".join(prefix) or "navit-pack": (prefix, p) for prefix, p in _parsers(cli.build_parser())}


def test_readme_shows_each_subcommand():
    """The README's CLI block runs each subcommand and `prefs` mode that the
    parser defines, and no other, so that adding or removing one shows there."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    shown = set()
    for line in block.splitlines():
        words = line.split()
        if "navit-pack" in words and not line.startswith("#"):
            names = []
            for word in words[words.index("navit-pack") + 1 :]:
                if word.startswith("-"):
                    break
                names.append(word)
                shown.add(" ".join(names))
    assert shown == set(PARSERS) - {"navit-pack"}


def _words(parser):
    """The option strings and subcommand names that `parser` knows."""
    words = []
    for action in parser._actions:
        words += action.option_strings or list(action.choices or ())
    return words


# Any argv token a process can get: bytes without NUL, decoded as Python
# decodes its argv, so each byte that is not UTF-8 becomes a surrogate
# escape; text; the empty string; and tokens 3,000 characters long.
_JUNK = st.one_of(
    st.binary(max_size=10).map(lambda b: os.fsdecode(b.replace(b"\0", b""))),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=10),
    st.just(""),
    st.sampled_from(["x", "1", "-", "--x", "é", "\udcff", "'", "\n"]).map(lambda t: t * 3000),
)


def _argv(command):
    """Argv of `command`: its prefix, perhaps the options it needs, then up
    to four tokens that are option strings, subcommand names, option values
    (alone or as `--option=value`) and junk."""
    prefix, parser = PARSERS[command]
    words = st.sampled_from(_words(parser))
    values = st.one_of(st.sampled_from(OPTION_VALUES), st.integers(-10, 5000).map(str), _JUNK)
    token = st.one_of(words, values, st.tuples(words, values).map("=".join))
    needs = NEEDS.get(prefix[0] if prefix else "", [])
    return st.tuples(st.sampled_from([[], needs]), st.lists(token, max_size=4)).map(
        lambda parts: [*prefix, *parts[0], *parts[1]]
    )


def _shown(argv):
    """Each way a diagnostic may name a file given in `argv`, as `path:`:
    cut, or quoted and cut."""
    tokens = [*argv, *(t.partition("=")[2] for t in argv)]
    return ("<stdin>:", *(f"{_clipped(form)}:" for t in tokens for form in (t, repr(t))))


@pytest.fixture(scope="module")
def argv_directory(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("command", PARSERS)
def test_any_argv_keeps_the_contract(command, data, argv_directory):
    """Every argv ends one of three ways: exit 0 with nothing on stderr,
    exit 1 with only `path:` diagnostics naming a file in argv, or exit 2
    with a usage error under 600 characters. Each echoed token is cut to
    64 characters; in bytes, one character may take up to six as stderr
    writes it (`\\udcff`), so the byte bound is held for one long token in
    `test_cli.TestArgparseEchoes`. The `verify` checks are swapped for ones
    that pass at once: here only the argv matters, and their own outcomes
    are tested with `verify`."""
    argv = data.draw(_argv(command))
    for name, content in ARGV_FILES.items():
        (argv_directory / name).write_bytes(content)
    (argv_directory / "adir").mkdir(exist_ok=True)
    passing = {name: (lambda seed: (True, f"seed {seed}")) for name in selfcheck.CHECK_NAMES}
    here = os.getcwd()
    os.chdir(argv_directory)
    try:
        with mock.patch.dict(selfcheck._CHECKS, passing):
            code, out, err = run_in_process(*argv)
    finally:
        os.chdir(here)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif code == 1:
        assert err and all(line.startswith(_shown(argv)) for line in err.splitlines()), err
    else:
        assert code == 2
        assert out == "" and err.startswith("usage: navit-pack")
        assert len(err) < 600
