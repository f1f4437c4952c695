"""End-to-end CLI behaviour over temp files, with schema validation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from navit_pack import cli
from navit_pack.objectives import (
    DpoConfig,
    build_pairs,
    dpo_loss,
    grpo_advantages,
    parse_group_line,
)
from navit_pack.packing import (
    PackedSequence,
    SampleRecord,
    build_attention_metadata,
    pack_ffd,
    packing_report,
)

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"


def validator(name):
    with open(SCHEMAS / f"{name}.schema.json", "r", encoding="utf-8") as f:
        return Draft202012Validator(json.load(f))


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "navit_pack", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


MANIFEST = """\
{"id": "a", "text_tokens": 10, "images": [{"width": 100, "height": 100}]}
{"id": "b", "text_tokens": 1}
"""

CONVERSATION = {
    "messages": [
        {"role": "user", "parts": [{"text": "what is this? "}, {"image": "img0"}]}
    ],
    "images": [{"id": "img0", "width": 100, "height": 100}],
}


class TestPlan:
    def test_plans_validate_against_schema(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(MANIFEST)
        result = run_cli("plan", "--manifest", str(manifest), "--phase", "p2")
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 1  # sample b has no images
        plan_validator = validator("resize_plan_line")
        record = json.loads(lines[0])
        plan_validator.validate(record)
        assert record["token_count"] == 784

    def test_empty_manifest_ok(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("")
        result = run_cli("plan", "--manifest", str(manifest))
        assert result.returncode == 0
        assert result.stdout == ""

    def test_bad_record_names_line_number(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            '{"id": "a", "text_tokens": 1}\n'
            '{"id": "bad", "text_tokens": 1, "images": [{"width": 0, "height": 5}]}\n'
        )
        result = run_cli("plan", "--manifest", str(manifest))
        assert result.returncode == 1
        assert ":2:" in result.stderr
        assert "width" in result.stderr

    @pytest.mark.parametrize("command", ["plan", "pack"])
    def test_side_beyond_float_range(self, tmp_path, command):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            '{"id": "a", "text_tokens": 1}\n'
            f'{{"id": "wide", "text_tokens": 1, "images": [{{"width": {10**330}, "height": 5}}]}}\n'
        )
        result = run_cli(command, "--manifest", str(manifest))
        assert result.returncode == 1
        assert result.stderr == f"{manifest}:2: image 0: 'width' is too large\n"

    def test_distortion_diagnostic_stays_short(self, tmp_path):
        # Sides and factors above 1e15 are written in exponent form; the
        # 10**300-wide image used to give a 684-character line.
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            '{"id": "a", "text_tokens": 1, "images": [{"width": 10000, "height": 3}]}\n'
            f'{{"id": "b", "text_tokens": 1, "images": [{{"width": {10**300}, "height": 3}}]}}\n'
        )
        result = run_cli("plan", "--manifest", str(manifest))
        assert result.returncode == 1
        where = f"{manifest}"
        assert result.stderr.splitlines() == [
            f"{where}:1: image 0: best grid 1x1617 distorts aspect by 2.061x (> 2.0) "
            "for source 10000x3",
            f"{where}:2: image 0: best grid 1x12544 distorts aspect by 2.66e+295x (> 2.0) "
            "for source 1e+300x3",
        ]
        assert all(len(line) - len(where) < 200 for line in result.stderr.splitlines())

    def test_missing_file(self):
        result = run_cli("plan", "--manifest", "/nonexistent/m.jsonl")
        assert result.returncode == 1
        assert result.stderr


class TestPack:
    def test_fixture_report(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            '{"id": "a", "text_tokens": 10}\n{"id": "b", "text_tokens": 1}\n'
        )
        result = run_cli(
            "pack", "--manifest", str(manifest), "--capacity", "11", "--batch-size", "2"
        )
        assert result.returncode == 0, result.stderr
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        seq_validator = validator("packed_sequence_line")
        report_validator = validator("packing_report")
        for seq in lines[:-1]:
            seq_validator.validate(seq)
        report = lines[-1]
        report_validator.validate(report)
        assert report["useful_token_speedup_proxy"] == pytest.approx(20 / 11, abs=1e-9)
        assert lines[0]["segments"] == [["a", 0, 10], ["b", 10, 1]]
        assert lines[0]["position_ids"][-1] == 0  # b restarts at zero

    def test_capacity_too_small_names_sample(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "huge", "text_tokens": 50}\n')
        result = run_cli("pack", "--manifest", str(manifest), "--capacity", "10")
        assert result.returncode == 1
        assert "huge" in result.stderr

    def test_zero_token_record_names_line(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "text_tokens": 2}\n{"id": "z", "text_tokens": 0}\n')
        result = run_cli("pack", "--manifest", str(manifest))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"{manifest}:2: sample 'z' has zero tokens\n"

    def test_capacity_maximum_accepted(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "text_tokens": 3}\n')
        assert cli.main(["pack", "--manifest", str(manifest), "--capacity", str(2**20)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        sequence, report = (json.loads(line) for line in out.splitlines())
        assert sequence["pad_tokens"] == 2**20 - 3
        assert len(sequence["position_ids"]) == 2**20
        validator("packed_sequence_line").validate({**sequence, "position_ids": []})
        validator("packing_report").validate(report)

    @pytest.mark.parametrize("capacity", [2**20 + 1, 99999999999])
    def test_capacity_above_maximum_is_usage_error(self, capsys, capacity):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["pack", "--manifest", "unused.jsonl", "--capacity", str(capacity)])
        assert exit_info.value.code == 2
        assert (
            f"argument --capacity: must be <= 1048576, got {capacity}" in capsys.readouterr().err
        )

    @pytest.mark.parametrize("option", ["--capacity", "--batch-size"])
    def test_non_integer_is_usage_error(self, capsys, option):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["pack", "--manifest", "unused.jsonl", option, "x"])
        assert exit_info.value.code == 2
        assert f"argument {option}: invalid int value: 'x'" in capsys.readouterr().err

    def test_duplicate_id_rejected(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            '{"id": "x", "text_tokens": 5}\n{"id": "x", "text_tokens": 6}\n'
        )
        result = run_cli("pack", "--manifest", str(manifest), "--capacity", "10")
        assert result.returncode == 1
        assert "duplicate" in result.stderr

    def test_unknown_field_rejected_before_output(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "x", "text_tokens": 5, "wat": 1}\n')
        result = run_cli("pack", "--manifest", str(manifest), "--capacity", "10")
        assert result.returncode == 1
        assert "wat" in result.stderr
        assert result.stdout == ""

    def test_repeated_runs_byte_identical(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(MANIFEST)
        first = run_cli("pack", "--manifest", str(manifest), "--capacity", "900")
        second = run_cli("pack", "--manifest", str(manifest), "--capacity", "900")
        assert first.returncode == 0
        assert first.stdout == second.stdout


class TestPackTooLong:
    def test_diagnostic_names_count_and_first_ten(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            "".join(f'{{"id": "big{i:02d}", "text_tokens": 50}}\n' for i in range(13))
            + '{"id": "ok", "text_tokens": 5}\n'
        )
        result = run_cli("pack", "--manifest", str(manifest), "--capacity", "10")
        assert result.returncode == 1
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"{manifest}: 13 samples exceed capacity 10: 'big00', 'big01',")
        assert all(f"'big{i:02d}'" in line for i in range(10))
        assert "big10" not in line and "big12" not in line
        assert line.endswith("(3 more)")


def oracle_line(seq):
    """The sequence line as `pack` wrote it with per-token lists."""
    _, positions = build_attention_metadata(seq)
    return json.dumps({**seq.to_json_dict(), "position_ids": positions}, separators=(",", ":"))


def sequence_of(capacity, lengths, sample_id="s"):
    segments, offset = [], 0
    for i, length in enumerate(lengths):
        segments.append((f"{sample_id}{i}", offset, length))
        offset += length
    return PackedSequence(capacity=capacity, segments=tuple(segments))


# Capacities on both sides of each change in digit count.
DIGIT_CAPACITIES = [1, 9, 10, 11, 99, 100, 101, 1000, 10001]


class TestSequenceLine:
    @pytest.mark.parametrize("capacity", DIGIT_CAPACITIES)
    def test_one_segment_fills_capacity(self, capacity):
        seq = sequence_of(capacity, [capacity])
        assert seq.pad_tokens == 0
        assert cli._sequence_line(seq) == oracle_line(seq)

    @pytest.mark.parametrize("capacity", DIGIT_CAPACITIES)
    def test_all_pads(self, capacity):
        seq = sequence_of(capacity, [])
        assert cli._sequence_line(seq) == oracle_line(seq)

    @pytest.mark.parametrize("capacity", DIGIT_CAPACITIES)
    def test_one_token_segments(self, capacity):
        full = sequence_of(capacity, [1] * capacity)
        assert cli._sequence_line(full) == oracle_line(full)
        half = sequence_of(capacity, [1] * (capacity // 2))
        assert cli._sequence_line(half) == oracle_line(half)

    @pytest.mark.parametrize("capacity", DIGIT_CAPACITIES)
    def test_segments_ending_at_digit_boundaries(self, capacity):
        # Segment lengths that end just before, at and after 10, 100, 1000.
        lengths, used = [], 0
        for n in (9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1):
            if used + n <= capacity:
                lengths.append(n)
                used += n
        seq = sequence_of(capacity, lengths)
        assert cli._sequence_line(seq) == oracle_line(seq)

    def test_escaped_sample_ids(self):
        seq = sequence_of(12, [5, 4], sample_id='q"\\\u00e9\n')
        assert cli._sequence_line(seq) == oracle_line(seq)

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_oracle_property(self, data):
        capacity = data.draw(st.integers(min_value=1, max_value=2500))
        lengths, used = [], 0
        for n in data.draw(st.lists(st.integers(min_value=1, max_value=capacity), max_size=30)):
            if used + n <= capacity:
                lengths.append(n)
                used += n
        seq = sequence_of(capacity, lengths)
        assert cli._sequence_line(seq) == oracle_line(seq)

    def test_pack_stdout_matches_oracle(self, tmp_path):
        lengths = [1, 9, 10, 11, 99, 100, 101, 500, 1000, 1001, 3, 3, 3]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            "".join(f'{{"id": "s{i:02d}", "text_tokens": {n}}}\n' for i, n in enumerate(lengths))
        )
        result = run_cli("pack", "--manifest", str(manifest), "--capacity", "1101")
        assert result.returncode == 0, result.stderr
        samples = [SampleRecord(f"s{i:02d}", n) for i, n in enumerate(lengths)]
        sequences = pack_ffd(samples, 1101)
        report = packing_report(samples, sequences, 1101, 8)
        expected = [oracle_line(seq) for seq in sequences]
        expected.append(json.dumps(report.to_json_dict(), separators=(",", ":")))
        assert result.stdout == "".join(line + "\n" for line in expected)


class TestUnreadableInput:
    def test_directory_as_manifest(self, tmp_path):
        result = run_cli("pack", "--manifest", str(tmp_path))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"{tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", ["plan", "pack"])
    def test_non_utf8_manifest(self, tmp_path, command):
        manifest = tmp_path / "m.jsonl"
        manifest.write_bytes(b'{"id": "a", "text_tokens": 5}\n{"id": "\xff"}\n')
        result = run_cli(command, "--manifest", str(manifest))
        assert result.returncode == 1
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"{manifest}: not UTF-8 text")

    def test_non_utf8_groups(self, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_bytes(b"\xfe\xff\n")
        result = run_cli("prefs", "grpo", "--groups", str(groups))
        assert result.returncode == 1
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"{groups}: not UTF-8 text")


class TestFloatOptions:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dpo", "--beta", "0"], "--beta: must be > 0"),
            (["dpo", "--beta", "-0.5"], "--beta: must be > 0"),
            (["dpo", "--beta", "inf"], "--beta: must be finite"),
            (["dpo", "--beta", "x"], "--beta: invalid float value"),
            (["pairs", "--margin", "-1"], "--margin: must be >= 0"),
            (["dpo", "--margin", "nan"], "--margin: must be finite"),
            (["grpo", "--min-score-variance", "nan"], "--min-score-variance: must be finite"),
            (["pairs", "--min-score-variance", "-0.1"], "--min-score-variance: must be >= 0"),
            (["dpo", "--nll-weight", "-0.3"], "--nll-weight: must be >= 0"),
            (["dpo", "--nll-weight=-inf"], "--nll-weight: must be finite"),
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["prefs", argv[0], "--groups", "unused.jsonl", *argv[1:]])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {message}" in err

    def test_range_edges_accepted(self, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_text(GROUPS)
        result = run_cli(
            "prefs", "dpo", "--groups", str(groups), "--beta", "1e-9", "--margin", "0",
            "--nll-weight", "0", "--min-score-variance", "0",
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


class TestChat:
    def test_thinking_toggle_isolated(self, tmp_path):
        conv = tmp_path / "c.json"
        conv.write_text(json.dumps(CONVERSATION))
        on = run_cli("chat", "--conversation", str(conv), "--thinking")
        off = run_cli("chat", "--conversation", str(conv), "--no-thinking")
        assert on.returncode == 0 and off.returncode == 0
        assert on.stdout != off.stdout
        # identical up to the control span suffix
        assert on.stdout.endswith("<think>\n")
        assert off.stdout.endswith("<think>\n\n</think>\n\n")
        assert on.stdout.removesuffix("<think>\n") == off.stdout.removesuffix(
            "<think>\n\n</think>\n\n"
        )

    def test_sidecar_schema_and_counts(self, tmp_path):
        conv = tmp_path / "c.json"
        conv.write_text(json.dumps(CONVERSATION))
        sidecar = tmp_path / "side.json"
        result = run_cli(
            "chat", "--conversation", str(conv), "--thinking", "--sidecar", str(sidecar)
        )
        assert result.returncode == 0
        data = json.loads(sidecar.read_text())
        validator("chat_sidecar").validate(data)
        assert data["image_token_total"] == 784
        assert data["placeholders"][0]["token_count"] == 784

    def test_unresolved_ref_fails(self, tmp_path):
        conv = tmp_path / "c.json"
        conv.write_text(
            json.dumps({"messages": [{"role": "user", "parts": [{"image": "nope"}]}]})
        )
        result = run_cli("chat", "--conversation", str(conv))
        assert result.returncode == 1
        assert "nope" in result.stderr

    def test_non_utf8_conversation(self, tmp_path):
        conv = tmp_path / "c.json"
        conv.write_bytes(b'{"messages": [{"role": "user", "parts": [{"text": "\xff"}]}]}')
        result = run_cli("chat", "--conversation", str(conv))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"{conv}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize(
        "image, message",
        [
            ({"id": "img0", "width": "100", "height": 100}, "image 0: 'width' must be a positive integer"),
            ({"id": ["img0"], "width": 100, "height": 100}, "image 0: 'id' must be a non-empty string"),
            ({"id": "", "width": 100, "height": 100}, "image 0: 'id' must be a non-empty string"),
            ({"id": "img0", "width": 100, "height": True}, "image 0: 'height' must be a positive integer"),
            ({"id": "img0", "width": 0, "height": 100}, "image 0: 'width' must be a positive integer"),
            ({"id": "img0", "width": 100, "height": 2.5}, "image 0: 'height' must be a positive integer"),
            ({"id": "img0", "width": 10**330, "height": 100}, "image 0: 'width' is too large"),
        ],
    )
    def test_bad_image_entry(self, tmp_path, image, message):
        conv = tmp_path / "c.json"
        conv.write_text(json.dumps({**CONVERSATION, "images": [image]}))
        result = run_cli("chat", "--conversation", str(conv))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"{conv}: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{bad", "invalid JSON: Expecting property name enclosed in double quotes: "
                     "line 1 column 2 (char 1)"),
            ("[1]", "conversation must be a JSON object, got list"),
        ],
    )
    def test_unreadable_conversation(self, tmp_path, text, message):
        conv = tmp_path / "c.json"
        conv.write_text(text)
        result = run_cli("chat", "--conversation", str(conv))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"{conv}: {message}\n"

    @pytest.mark.parametrize(
        "conversation, message",
        [
            ({**CONVERSATION, "images": 5}, "'images' must be a list"),
            ({"messages": {"role": "user"}}, "'messages' must be a list"),
            ({"messages": [{"role": "user", "parts": None}]}, "message 0: 'parts' must be a list"),
        ],
    )
    def test_non_list_field(self, tmp_path, conversation, message):
        conv = tmp_path / "c.json"
        conv.write_text(json.dumps(conversation))
        result = run_cli("chat", "--conversation", str(conv))
        assert result.returncode == 1
        assert result.stderr == f"{conv}: {message}\n"


class TestParse:
    def test_canonical(self):
        result = run_cli("parse", stdin="<think>a</think>b")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        validator("thinking_output").validate(data)
        assert data == {"thinking": "a", "answer": "b"}

    def test_no_block(self):
        result = run_cli("parse", stdin="plain")
        assert json.loads(result.stdout) == {"thinking": None, "answer": "plain"}

    def test_unterminated_strict_fails(self):
        result = run_cli("parse", stdin="<think>oops")
        assert result.returncode == 1
        assert "malformed" in result.stderr.lower()

    def test_unterminated_lenient_recovers(self):
        result = run_cli("parse", "--lenient", stdin="<think>oops")
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"thinking": "oops", "answer": ""}

    @staticmethod
    def parse_bytes_in_c_locale(data):
        return subprocess.run(
            [sys.executable, "-m", "navit_pack", "parse"],
            input=data,
            capture_output=True,
            env={**os.environ, "LC_ALL": "C"},
        )

    def test_invalid_utf8_stdin_rejected(self):
        result = self.parse_bytes_in_c_locale(b"<think>a</think>\xff")
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr == b"<stdin>: not UTF-8 text (invalid start byte)\n"

    def test_utf8_stdin_in_c_locale(self):
        result = self.parse_bytes_in_c_locale("<think>\u00e9\r\n</think>\u00fc".encode())
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"thinking": "\u00e9\r\n", "answer": "\u00fc"}


GROUPS = (
    '{"query_id": "q1", "candidates": ['
    '{"response": "a", "logprob_policy": -1.0, "logprob_reference": -1.2, "score": 2},'
    '{"response": "b", "logprob_policy": -2.0, "logprob_reference": -1.9, "score": 1},'
    '{"response": "c", "logprob_policy": -3.0, "logprob_reference": -2.8, "score": 0}]}\n'
)


class TestPrefs:
    def test_pairs_schema_and_order(self, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_text(GROUPS)
        result = run_cli("prefs", "pairs", "--groups", str(groups))
        assert result.returncode == 0
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        pair_validator = validator("pair_line")
        for line in lines:
            pair_validator.validate(line)
        assert [(p["chosen_index"], p["rejected_index"]) for p in lines] == [
            (0, 2),
            (0, 1),
            (1, 2),
        ]

    def test_dpo_schema(self, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_text(GROUPS)
        result = run_cli(
            "prefs", "dpo", "--groups", str(groups), "--beta", "0.5", "--nll-weight", "0.1"
        )
        assert result.returncode == 0
        dpo_validator = validator("dpo_line")
        for line in result.stdout.splitlines():
            dpo_validator.validate(json.loads(line))

    def test_grpo_schema_and_values(self, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_text(GROUPS)
        result = run_cli("prefs", "grpo", "--groups", str(groups))
        assert result.returncode == 0
        (line,) = [json.loads(line) for line in result.stdout.splitlines()]
        validator("grpo_line").validate(line)
        assert line["advantages"][0] == pytest.approx(1.2247, abs=1e-4)

    def test_bad_group_line_number(self, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_text(GROUPS + '{"query_id": "q2"}\n')
        result = run_cli("prefs", "grpo", "--groups", str(groups))
        assert result.returncode == 1
        assert ":2:" in result.stderr

    def test_difficulty_filter_drops_flat_groups(self, tmp_path):
        flat = (
            '{"query_id": "flat", "candidates": ['
            '{"response": "a", "logprob_policy": -1, "logprob_reference": -1, "score": 1},'
            '{"response": "b", "logprob_policy": -1, "logprob_reference": -1, "score": 1}]}\n'
        )
        groups = tmp_path / "g.jsonl"
        groups.write_text(GROUPS + flat)
        result = run_cli(
            "prefs", "grpo", "--groups", str(groups), "--min-score-variance", "0.1"
        )
        assert result.returncode == 0
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        assert [line["query_id"] for line in lines] == ["q1"]


def groups_jsonl(sizes, seed, flat=()):
    """Scored groups of the given sizes; groups whose index is in `flat`
    have all-equal scores, so they yield no pairs."""
    rng = np.random.default_rng(seed)
    lines = []
    for g, k in enumerate(sizes):
        scores = np.zeros(k) if g in flat else rng.integers(0, 5, size=k) / 4.0
        reference = rng.uniform(-60.0, -0.5, size=k)
        policy = reference + rng.normal(0.0, rng.choice([0.1, 2.0, 30.0]), size=k)
        candidates = [
            {"response": f"r{j}", "logprob_policy": float(policy[j]),
             "logprob_reference": float(reference[j]), "score": float(scores[j])}
            for j in range(k)
        ]
        lines.append(json.dumps({"query_id": f'q{g}"é', "candidates": candidates}) + "\n")
    return "".join(lines)


def prefs_oracle(text, command, margin=0.0, beta=0.1, nll_weight=0.0, min_score_variance=0.0):
    """Expected `prefs dpo` / `prefs grpo` stdout, one `json.dumps` per line."""
    out = []
    for line in text.splitlines():
        group = parse_group_line(line)
        if min_score_variance > 0.0 and not group.passes_difficulty_filter(min_score_variance):
            continue
        if command == "grpo":
            advantages = grpo_advantages([c.score for c in group.candidates])
            out.append({"query_id": group.query_id, "advantages": advantages})
            continue
        for pair in build_pairs(group, margin):
            result = dpo_loss(pair.chosen, pair.rejected, DpoConfig(beta, nll_weight))
            out.append(
                {
                    "query_id": group.query_id,
                    "chosen_index": pair.chosen_index,
                    "rejected_index": pair.rejected_index,
                    "loss": result.loss,
                    "d_logprob_policy_chosen": result.d_logprob_policy_chosen,
                    "d_logprob_policy_rejected": result.d_logprob_policy_rejected,
                    "d_logprob_reference_chosen": result.d_logprob_reference_chosen,
                    "d_logprob_reference_rejected": result.d_logprob_reference_rejected,
                }
            )
    return "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in out)


_SMALL = [2, 3, 4, 5, 6, 7, 8]


class TestPrefsChunked:
    """`prefs dpo` and `prefs grpo` compute a chunk of groups per array
    call; their stdout must equal the per-pair and per-group oracle."""

    @pytest.mark.parametrize(
        "text",
        [
            "",
            groups_jsonl([_SMALL[g % 7] for g in range(64)], 1),
            groups_jsonl([_SMALL[g % 7] for g in range(65)], 2),
            groups_jsonl([_SMALL[g % 7] for g in range(140)], 3, flat=range(64, 128)),
            groups_jsonl([2 + (g * 17) % 39 for g in range(150)], 4),
        ],
        ids=["empty", "64", "65", "no-pairs-chunk", "sizes-2-40"],
    )
    @pytest.mark.parametrize(
        "command, options",
        [
            ("dpo", {}),
            ("dpo", {"beta": 2.5, "nll_weight": 0.3, "margin": 0.25}),
            ("dpo", {"beta": 300.0}),
            ("grpo", {}),
            ("grpo", {"min_score_variance": 0.05}),
        ],
    )
    def test_matches_oracle(self, tmp_path, capsys, text, command, options):
        groups = tmp_path / "g.jsonl"
        groups.write_text(text, encoding="utf-8")
        argv = ["prefs", command, "--groups", str(groups)]
        for name, value in options.items():
            argv += ["--" + name.replace("_", "-"), repr(value)]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == prefs_oracle(text, command, **options)

    @pytest.mark.parametrize("nll_weight", [0.0, -0.0, 0.5])
    def test_saturated_pair_writes_signed_zeros(self, tmp_path, capsys, nll_weight):
        # z = beta * margin = 1000 > 745: exp(-z) is 0, so g is -0.0 and the
        # two partials that are -g print as 0.0.
        text = candidates_json((0.0, -100.0, 1.0), (0.0, 0.0, 0.0)) + "\n"
        groups = tmp_path / "g.jsonl"
        groups.write_text(text, encoding="utf-8")
        argv = ["prefs", "dpo", "--groups", str(groups), "--beta", "10"]
        assert cli.main([*argv, "--nll-weight", repr(nll_weight)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == prefs_oracle(text, "dpo", beta=10.0, nll_weight=nll_weight)
        assert '"d_logprob_policy_rejected":0.0,"d_logprob_reference_chosen":0.0,' in out
        assert out.endswith('"d_logprob_reference_rejected":-0.0}\n')


class TestNegatedRepr:
    """`prefs dpo` writes -g as the text of g with its sign flipped."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_equals_repr_of_negation(self, x):
        assert cli._negated(repr(x)) == repr(-x)

    @pytest.mark.parametrize(
        "x", [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    )
    def test_edge_values(self, x):
        assert cli._negated(repr(x)) == repr(-x)


class TestLongInputEchoes:
    """A diagnostic quotes an input string through `_quoted`: a repr over
    64 characters is cut to its first 61 and `...`."""

    def test_long_unknown_key(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "a", "text_tokens": 1, "k" * 5000: 0}) + "\n")
        result = run_cli("plan", "--manifest", str(manifest))
        assert result.returncode == 1
        assert result.stderr == f"{manifest}:1: unknown field '{'k' * 60}...\n"

    def test_long_query_id_of_overflowing_group(self, tmp_path):
        line = json.loads(candidates_json((-1e308, 1e308, 1.0), (-1.0, -1.0, 0.0)))
        line["query_id"] = "Q" * 5000
        groups = tmp_path / "g.jsonl"
        groups.write_text(json.dumps(line) + "\n")
        result = run_cli("prefs", "dpo", "--groups", str(groups))
        assert result.returncode == 1
        assert result.stderr == (
            f"{groups}:1: query '{'Q' * 60}...: loss or gradient is not finite\n"
        )

    @pytest.mark.parametrize("length, shown", [(62, "'" + "s" * 62 + "'"), (63, "'" + "s" * 60 + "...")])
    def test_cap_boundary(self, tmp_path, length, shown):
        manifest = tmp_path / "m.jsonl"
        record = json.dumps({"id": "s" * length, "text_tokens": 1})
        manifest.write_text(f"{record}\n{record}\n")
        result = run_cli("pack", "--manifest", str(manifest))
        assert result.returncode == 1
        assert result.stderr == f"{manifest}:2: duplicate sample id {shown}\n"


def candidates_json(*rows):
    return json.dumps(
        {
            "query_id": "q2",
            "candidates": [
                {"response": f"r{j}", "logprob_policy": lp, "logprob_reference": lr, "score": s}
                for j, (lp, lr, s) in enumerate(rows)
            ],
        }
    )


class TestPrefsNonFinite:
    """Finite inputs whose results overflow: the group gets a diagnostic
    and no line, the others are written, and no numpy warning shows."""

    @pytest.mark.parametrize(
        "argv, bad_group, what",
        [
            (["dpo"], candidates_json((-1e308, 1e308, 1.0), (-1.0, -1.0, 0.0)), "loss or gradient"),
            (["dpo", "--nll-weight", "2"], candidates_json((-1e308, -1e308, 1.0), (-1.0, -1.0, 0.0)),
             "loss or gradient"),
            (["pairs"], candidates_json((-1.0, -1.0, 1e308), (-1.0, -1.0, -1e308)), "score gap"),
            (["grpo"], candidates_json((-1.0, -1.0, 1e308), (-1.0, -1.0, -1e308)), "advantage"),
            (["pairs", "--min-score-variance", "0.1"],
             candidates_json((-1.0, -1.0, 1e308), (-1.0, -1.0, -1e308)), "score variance"),
        ],
        ids=["dpo-margin", "dpo-nll", "pairs-gap", "grpo-variance", "filter-variance"],
    )
    def test_group_reported_and_skipped(self, tmp_path, argv, bad_group, what):
        good = GROUPS.strip()
        groups = tmp_path / "g.jsonl"
        groups.write_text(f"{good}\n{bad_group}\n{good.replace('q1', 'q3')}\n")
        result = run_cli("prefs", argv[0], "--groups", str(groups), *argv[1:])
        assert result.returncode == 1
        assert result.stderr == f"{groups}:2: query 'q2': {what} is not finite\n"
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        assert {line["query_id"] for line in lines} == {"q1", "q3"}
        alone = tmp_path / "alone.jsonl"
        alone.write_text(f"{good}\n")
        expected = run_cli("prefs", argv[0], "--groups", str(alone), *argv[1:]).stdout
        assert result.stdout == expected + expected.replace('"q1"', '"q3"')


class TestVerify:
    def test_passes_and_is_deterministic(self):
        first = run_cli("verify", "--seed", "3")
        second = run_cli("verify", "--seed", "3")
        assert first.returncode == 0, first.stdout + first.stderr
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
        for name in ("vet-grad", "dpo-grad", "rope-relative", "pack-equiv", "ffd-opt"):
            assert name in first.stdout

    def test_seed_changes_fixtures_not_outcome(self):
        a = run_cli("verify", "--seed", "1")
        b = run_cli("verify", "--seed", "2")
        assert a.returncode == 0 and b.returncode == 0

    def test_fault_injection_fails_named_check(self):
        result = run_cli("verify", "--fault-inject", "vet-grad")
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        statuses = {line.split()[0]: line.split()[1] for line in lines}
        assert statuses["vet-grad"] == "FAIL"
        assert all(v == "pass" for k, v in statuses.items() if k != "vet-grad")

    def test_grad_check_subset(self):
        result = run_cli("grad-check")
        assert result.returncode == 0
        assert "vet-grad" in result.stdout and "dpo-grad" in result.stdout
        assert "rope-relative" not in result.stdout


class TestStartup:
    def test_data_path_commands_do_not_import_numpy(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(MANIFEST)
        conv = tmp_path / "c.json"
        conv.write_text(json.dumps(CONVERSATION))
        script = (
            "import json, sys\n"
            "from navit_pack import cli\n"
            f"codes = [cli.main(['plan', '--manifest', {str(manifest)!r}]),\n"
            f"         cli.main(['pack', '--manifest', {str(manifest)!r}]),\n"
            f"         cli.main(['chat', '--conversation', {str(conv)!r}]),\n"
            "         cli.main(['parse'])]\n"
            "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('navit_pack'))\n"
            "print(json.dumps({'codes': codes, 'loaded': loaded}), file=sys.stderr)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], input="<think>a</think>b", capture_output=True, text=True
        )
        report = json.loads(result.stderr.splitlines()[-1])
        assert report["codes"] == [0, 0, 0, 0]
        assert report["loaded"] == [
            "navit_pack",
            "navit_pack.chat",
            "navit_pack.cli",
            "navit_pack.geometry",
            "navit_pack.packing",
        ]

    def test_check_names_match_selfcheck(self, capsys):
        from navit_pack.selfcheck import CHECK_NAMES

        assert cli._CHECK_NAMES == CHECK_NAMES
        assert set(cli._GRAD_CHECKS) <= set(CHECK_NAMES)
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        assert "{" + ",".join(CHECK_NAMES) + "}" in capsys.readouterr().out


class TestManifestSchemaItself:
    def test_fixture_lines_validate(self):
        manifest_validator = validator("manifest_record")
        for line in MANIFEST.splitlines():
            manifest_validator.validate(json.loads(line))

    def test_conversation_fixture_validates(self):
        validator("conversation").validate(CONVERSATION)


class TestCliConfig:
    def test_invalid_knobs_rejected(self, capsys):
        for option in ("--capacity", "--batch-size"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["pack", "--manifest", "unused.jsonl", option, "0"])
            assert exit_info.value.code == 2
            assert f"argument {option}: must be >= 1, got 0" in capsys.readouterr().err

    def test_defaults(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(MANIFEST)
        default = run_cli("pack", "--manifest", str(manifest))
        explicit = run_cli(
            "pack", "--manifest", str(manifest), "--phase", "p2", "--capacity", "8192",
            "--batch-size", "8",
        )
        assert default.returncode == 0 and default.stderr == ""
        assert default.stdout == explicit.stdout
        lines = [json.loads(line) for line in default.stdout.splitlines()]
        assert {line["capacity"] for line in lines} == {8192}
        parsed = run_cli("parse", stdin="<think>a")
        assert parsed.returncode == 1
        assert parsed.stderr.startswith("malformed think block")

    def test_log_env_var_enables_info_logging(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "text_tokens": 5}\n')
        result = subprocess.run(
            [sys.executable, "-m", "navit_pack", "pack", "--manifest", str(manifest)],
            capture_output=True,
            text=True,
            env={**os.environ, "NAVIT_PACK_LOG": "info"},
        )
        assert result.returncode == 0
        assert "packed 1 samples into 1 sequences" in result.stderr
