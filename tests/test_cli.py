"""End-to-end CLI behaviour over temp files, with schema validation."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from conftest import finite_difference, rel_err, vet_loss
from mutants import MUTANTS, oracle_line, prefs_oracle, run_in_process, run_verify
from navit_pack import cli, cli_pack, cli_prefs
from navit_pack.packing import (
    PackedSequence,
    SampleRecord,
    pack_ffd,
    packing_report,
)

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"


def validator(name):
    with open(SCHEMAS / f"{name}.schema.json", "r", encoding="utf-8") as f:
        return Draft202012Validator(json.load(f))


def run_cli(*args, stdin=None, cwd=None):
    """The CLI in a child process, run from `cwd` if given; it imports the
    package from this checkout's `src` wherever it runs."""
    return subprocess.run(
        [sys.executable, "-m", "navit_pack", *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
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

# Width of a 3-pixel-high image and the budget fault it gives, by test id.
DISTORTIONS = {
    "10000x3": (10000, "best grid 1x1617 distorts aspect by 2.061x (> 2.0) for source 10000x3"),
    "1e300x3": (
        10**300, "best grid 1x12544 distorts aspect by 2.66e+295x (> 2.0) for source 1e+300x3"
    ),
    # Squared distances from the ideal grid overflow a float.
    "1e308x3": (
        10**308, "best grid 1x12544 distorts aspect by 2.66e+303x (> 2.0) for source 1e+308x3"
    ),
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

    @pytest.mark.parametrize("command", ["plan", "pack"])
    def test_distortion_diagnostic_stays_short(self, tmp_path, command):
        # Sides and factors above 1e15 are written in exponent form; the
        # 10**300-wide image used to give a 684-character line. Every line
        # is reported: a budget fault does not end the run.
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            '{"id": "a", "text_tokens": 1, "images": [{"width": 10000, "height": 3}]}\n'
            '{"id": "b", "text_tokens": 1, "images": [{"width": 100, "height": 100}, '
            f'{{"width": {10**300}, "height": 3}}]}}\n'
            f'{{"id": "c", "text_tokens": 1, "images": [{{"width": {10**308}, "height": 3}}]}}\n'
        )
        result = run_cli(command, "--manifest", str(manifest))
        assert result.returncode == 1
        where = f"{manifest}"
        assert result.stderr.splitlines() == [
            f"{where}:1: image 0: {DISTORTIONS['10000x3'][1]}",
            f"{where}:2: image 1: {DISTORTIONS['1e300x3'][1]}",
            f"{where}:3: image 0: {DISTORTIONS['1e308x3'][1]}",
        ]
        assert all(len(line) - len(where) < 200 for line in result.stderr.splitlines())
        if command == "plan":
            planned = [json.loads(line) for line in result.stdout.splitlines()]
            assert [(p["id"], p["image_index"]) for p in planned] == [("b", 0)]
        else:
            assert result.stdout == ""

    @pytest.mark.parametrize("width, expected", DISTORTIONS.values(), ids=DISTORTIONS.keys())
    def test_chat_distortion_diagnostic_names_image(self, tmp_path, width, expected):
        # The text after the `path: ` prefix is the one `plan` and `pack` write.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "messages": [{"role": "user", "parts": [{"text": "hi"}]}],
            "images": [{"id": "img0", "width": 100, "height": 100},
                       {"id": "img1", "width": width, "height": 3}],
        }))
        result = run_cli("chat", "--conversation", str(path))
        assert result.returncode == 1
        assert result.stderr == f"{path}: image 1: {expected}\n"
        assert result.stdout == ""

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


def sequence_of(capacity, lengths, sample_id="s"):
    return PackedSequence(capacity, tuple((f"{sample_id}{i}", n) for i, n in enumerate(lengths)))


# Capacities on both sides of each change in digit count.
DIGIT_CAPACITIES = [1, 9, 10, 11, 99, 100, 101, 1000, 10001]


class TestSequenceLine:
    @pytest.mark.parametrize("capacity", DIGIT_CAPACITIES)
    def test_one_segment_fills_capacity(self, capacity):
        seq = sequence_of(capacity, [capacity])
        assert seq.pad_tokens == 0
        assert cli_pack._sequence_line(seq, cli_pack._position_runs(seq.capacity)) == oracle_line(seq)

    @pytest.mark.parametrize("capacity", DIGIT_CAPACITIES)
    def test_all_pads(self, capacity):
        seq = sequence_of(capacity, [])
        assert cli_pack._sequence_line(seq, cli_pack._position_runs(seq.capacity)) == oracle_line(seq)

    @pytest.mark.parametrize("capacity", DIGIT_CAPACITIES)
    def test_one_token_segments(self, capacity):
        full = sequence_of(capacity, [1] * capacity)
        assert cli_pack._sequence_line(full, cli_pack._position_runs(full.capacity)) == oracle_line(full)
        half = sequence_of(capacity, [1] * (capacity // 2))
        assert cli_pack._sequence_line(half, cli_pack._position_runs(half.capacity)) == oracle_line(half)

    @pytest.mark.parametrize("capacity", DIGIT_CAPACITIES)
    def test_segments_ending_at_digit_boundaries(self, capacity):
        # Segment lengths that end just before, at and after 10, 100, 1000.
        lengths, used = [], 0
        for n in (9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1):
            if used + n <= capacity:
                lengths.append(n)
                used += n
        seq = sequence_of(capacity, lengths)
        assert cli_pack._sequence_line(seq, cli_pack._position_runs(seq.capacity)) == oracle_line(seq)

    def test_escaped_sample_ids(self):
        seq = sequence_of(12, [5, 4], sample_id='q"\\\u00e9\n')
        assert cli_pack._sequence_line(seq, cli_pack._position_runs(seq.capacity)) == oracle_line(seq)

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
        assert cli_pack._sequence_line(seq, cli_pack._position_runs(seq.capacity)) == oracle_line(seq)

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
        expected.append(json.dumps(report._asdict(), separators=(",", ":")))
        assert result.stdout == "".join(line + "\n" for line in expected)

    def test_pack_keeps_no_position_runs(self, tmp_path):
        # The rendered ids of one capacity 2^18 run take about 12 MB; none of
        # it may outlive the command in a long-lived process.
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "text_tokens": 5}\n')
        argv = ["pack", "--manifest", str(manifest), "--capacity"]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            assert cli.main([*argv, "16"]) == 0  # imports and first-call state
            tracemalloc.start()
            try:
                assert cli.main([*argv, "262144"]) == 0
                kept, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert kept < 2 * 2**20, f"{kept / 2**20:.1f} MiB kept"


class TestUnreadableInput:
    def test_directory_as_manifest(self, tmp_path):
        # A short relative name: `main` cuts a file name over 64 characters,
        # and tmp_path can be longer.
        (tmp_path / "manifests").mkdir()
        result = run_cli("pack", "--manifest", "manifests", cwd=tmp_path)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "manifests: Is a directory\n"

    @pytest.mark.parametrize(
        "name, shown",
        [
            ("x" * 3000, "x" * 61 + "...: File name too long"),
            ("", "'': No such file or directory"),
            # A name that is not printable would break or blur the line.
            ("a\nb", "'a\\nb': No such file or directory"),
            ("\udcff", "'\\udcff': No such file or directory"),
        ],
    )
    def test_file_name_is_cut_or_quoted(self, name, shown):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["plan", "--manifest", name]) == 1
        assert err.getvalue() == shown + "\n"

    def test_undecodable_argv_name_is_quoted(self, tmp_path):
        # Python decodes the byte 0xff of an argv path as the surrogate
        # escape U+DCFF; the diagnostic quotes it, so it stays ASCII.
        result = subprocess.run(
            [sys.executable, "-m", "navit_pack", "plan", "--manifest", b"\xffm.jsonl"],
            capture_output=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == b"'\\udcffm.jsonl': No such file or directory\n"

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


class TestLineEnds:
    """JSONL lines end at `\n` alone. A bare `\r` is JSON whitespace inside
    its record, and a line of only `\x1c`, which `str.strip` empties but
    JSON does not read as whitespace, is not blank."""

    TEXT = '{"id":"a","text_tokens":1}\n\x1c\n{"id":"b",\r"text_tokens":2}\n'
    NOT_JSON = "2: invalid JSON: Expecting value: line 1 column 1 (char 0)"

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["plan", "--manifest"], [NOT_JSON]),
            (["pack", "--manifest"], [NOT_JSON]),
            (
                ["prefs", "pairs", "--groups"],
                ["1: unknown field 'id'", NOT_JSON, "3: unknown field 'id'"],
            ),
        ],
        ids=["plan", "pack", "prefs"],
    )
    def test_each_line_is_reported_once_by_its_number(self, tmp_path, argv, lines):
        path = tmp_path / "m.jsonl"
        path.write_bytes(self.TEXT.encode())
        code, out, err = run_in_process(*argv, str(path))
        assert (code, out) == (1, "")
        assert err == "".join(f"{path}:{line}\n" for line in lines)

    def test_bare_cr_and_crlf_inside_records_parse(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"id":"a","text_tokens":1}\r\n \t\r\n{"id":"b",\r"text_tokens":2}\n')
        code, out, err = run_in_process("pack", "--manifest", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out.splitlines()[0])["segments"] == [["b", 0, 2], ["a", 2, 1]]


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
            # A long value is echoed cut to its first 61 characters and `...`.
            pytest.param(["dpo", "--beta", "1" * 3000],
                         "--beta: must be finite, got " + "1" * 61 + "...\n", id="long-beta"),
            pytest.param(["pairs", "--margin", "-" + "1" * 3000],
                         "--margin: must be finite, got -" + "1" * 60 + "...\n", id="long-margin"),
            pytest.param(["dpo", "--beta", "x" * 3000],
                         "--beta: invalid float value: '" + "x" * 61 + "...'\n", id="long-non-float"),
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["prefs", argv[0], "--groups", "unused.jsonl", *argv[1:]])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {message}" in err
        assert len(err.encode()) < 600

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

    @pytest.mark.parametrize(
        "parts, marker",
        [
            ([{"text": "x<|image_pad|>"}], "<|image_pad|>"),
            ([{"text": "a<|im_"}, {"text": "end|>"}], "<|im_end|>"),
        ],
        ids=["pad-marker", "split-turn-end"],
    )
    def test_text_holding_a_marker_fails(self, tmp_path, parts, marker):
        conv = tmp_path / "c.json"
        sidecar = tmp_path / "side.json"
        messages = [{"role": "user", "parts": [{"text": "hi"}]}, {"role": "user", "parts": parts}]
        conv.write_text(json.dumps({"messages": messages}))
        result = run_cli("chat", "--conversation", str(conv), "--sidecar", str(sidecar))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"{conv}: message 1: text holds the marker '{marker}'\n"
        assert not sidecar.exists()

    def test_unresolved_ref_fails(self, tmp_path):
        conv = tmp_path / "c.json"
        conv.write_text(
            json.dumps({"messages": [{"role": "user", "parts": [{"image": "nope"}]}]})
        )
        result = run_cli("chat", "--conversation", str(conv))
        assert result.returncode == 1
        assert result.stderr == f"{conv}: no resize plan for image 'nope'\n"

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
        "chat_image, plan_image",
        [
            ({"id": "img0", "width": 100, "height": 100, "x": 1},
             {"width": 100, "height": 100, "x": 1}),
            (["img0", 100, 100], [100, 100]),
            ({"id": "img0", "width": 100}, {"width": 100}),
        ],
        ids=["extra-key", "not-an-object", "missing-height"],
    )
    def test_image_faults_read_as_in_plan(self, tmp_path, chat_image, plan_image):
        conv = tmp_path / "c.json"
        conv.write_text(json.dumps({**CONVERSATION, "images": [chat_image]}))
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "a", "text_tokens": 1, "images": [plan_image]}))
        chat = run_cli("chat", "--conversation", str(conv))
        plan = run_cli("plan", "--manifest", str(manifest))
        assert chat.returncode == plan.returncode == 1
        assert chat.stderr.removeprefix(f"{conv}: ") == plan.stderr.removeprefix(
            f"{manifest}:1: "
        )
        assert chat.stderr.startswith(f"{conv}: image 0")

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
            ({"messages": [{"role": "user"}]}, "message 0: 'parts' must be a list"),
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


_SMALL = [2, 3, 4, 5, 6, 7, 8]


def overflowing_groups():
    """100 groups, of which line 11 has a score gap (and variance) beyond
    float range and line 71 a DPO margin beyond it."""
    lines = groups_jsonl([_SMALL[g % 7] for g in range(100)], 5).splitlines(keepends=True)
    lines[10] = candidates_json((-1.0, -2.0, 1e308), (-3.0, -1.0, -1e308), (-2.0, -2.0, 0.5)) + "\n"
    lines[70] = candidates_json((-1e308, 1e308, 1.0), (1e308, -1e308, 0.0)) + "\n"
    return "".join(lines)


# Line 1 has a DPO margin of inf - inf, line 2 a score variance (and gap)
# beyond float range.
MARGIN_THEN_VARIANCE = (
    candidates_json((1e308, -1e308, 1.0), (1e308, -1e308, 0.0)) + "\n"
    + candidates_json((-1.0, -1.0, 1e308), (-1.0, -1.0, -1e308)) + "\n"
)


def late_variance_groups():
    """150 groups: line 10 has a DPO margin of inf - inf and line 140 a
    score variance beyond float range."""
    lines = groups_jsonl([_SMALL[g % 7] for g in range(150)], 6).splitlines(keepends=True)
    lines[9], lines[139] = MARGIN_THEN_VARIANCE.splitlines(keepends=True)
    return "".join(lines)


class TestPrefsMatchesOracle:
    """`prefs` on files of 0 to 150 groups, some of them faulty: stdout,
    stderr and the exit status must equal the per-pair and per-group
    oracle."""

    @pytest.mark.parametrize(
        "text",
        [
            "",
            groups_jsonl([_SMALL[g % 7] for g in range(64)], 1),
            groups_jsonl([_SMALL[g % 7] for g in range(65)], 2),
            groups_jsonl([_SMALL[g % 7] for g in range(140)], 3, flat=range(64, 128)),
            groups_jsonl([2 + (g * 17) % 39 for g in range(150)], 4),
            overflowing_groups(),
            MARGIN_THEN_VARIANCE,
            late_variance_groups(),
        ],
        ids=[
            "empty", "64", "65", "no-pairs-run", "sizes-2-40", "overflow",
            "margin-then-variance", "late-variance",
        ],
    )
    @pytest.mark.parametrize(
        "command, options",
        [
            ("pairs", {}),
            ("pairs", {"margin": 0.25}),
            ("pairs", {"min_score_variance": 0.05}),
            ("dpo", {}),
            ("dpo", {"beta": 2.5, "nll_weight": 0.3, "margin": 0.25}),
            ("dpo", {"beta": 300.0}),
            ("dpo", {"min_score_variance": 0.05}),
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
        expected_out, expected_err = prefs_oracle(text, command, str(groups), **options)
        assert cli.main(argv) == (1 if expected_err else 0)
        assert capsys.readouterr() == (expected_out, expected_err)

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
        assert (out, err) == prefs_oracle(
            text, "dpo", str(groups), beta=10.0, nll_weight=nll_weight
        )
        assert '"d_logprob_policy_rejected":0.0,"d_logprob_reference_chosen":0.0,' in out
        assert out.endswith('"d_logprob_reference_rejected":-0.0}\n')


class TestNegatedRepr:
    """`prefs dpo` writes -g as the text of g with its sign flipped."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_equals_repr_of_negation(self, x):
        assert cli_prefs._negated(repr(x)) == repr(-x)

    @pytest.mark.parametrize(
        "x", [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    )
    def test_edge_values(self, x):
        assert cli_prefs._negated(repr(x)) == repr(-x)


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["plan", "--phase", "p" + "1" * 3000],
             "--phase: invalid phase 'p" + "1" * 60 + "...'; choose from p1, p2, p3"),
            (["pack", "--capacity", "1" * 3000], "--capacity: must be <= 1048576, got " + "1" * 61 + "..."),
            (["pack", "--capacity", "x" * 3000], "--capacity: invalid int value: '" + "x" * 61 + "...'"),
            # Escapes that lengthen the echo are cut too.
            (["pack", "--capacity", "\udcff" * 3000],
             "--capacity: invalid int value: '" + "\\udcff" * 10 + "..."),
        ],
        ids=["phase", "capacity-too-large", "capacity-not-int", "capacity-escaped"],
    )
    def test_long_option_value(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([argv[0], "--manifest", "unused.jsonl", *argv[1:]])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"argument {message}\n")
        assert len(err.encode()) < 600


# Where argparse echoes an argument in its own usage error, by test id.
ARGV_ECHOES = {
    "command": lambda token: [token],
    "prefs-mode": lambda token: ["prefs", token],
    "unknown-option": lambda token: ["plan", "--manifest", "m.jsonl", "--bogus" + token],
    "explicit-argument": lambda token: ["plan", "-h=" + token],
}


def usage_error(argv):
    """The stderr text of `cli.main(argv)`, which must exit with status 2.

    Captured as text, so that a surrogate-escaped argument stays as it is.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    return err.getvalue()


class TestArgparseEchoes:
    """argparse's own usage errors (an invalid choice, an unrecognized
    argument) cut each echoed argument with `_clipped`, in its raw and its
    repr form; a short argument is echoed as argparse writes it."""

    @pytest.mark.parametrize("head", ["", "'", "\\", "\n", "\udcff"],
                             ids=["plain", "quote", "backslash", "newline", "surrogate"])
    @pytest.mark.parametrize("argv_of", ARGV_ECHOES.values(), ids=ARGV_ECHOES)
    def test_long_argument_is_cut(self, argv_of, head):
        err = usage_error(argv_of(head + "x" * 3000))
        assert "x" * 50 + "..." in err
        # sys.stderr writes a surrogate as its backslash escape.
        assert len(err.encode("utf-8", "backslashreplace")) < 600

    @pytest.mark.parametrize("argv_of", ARGV_ECHOES.values(), ids=ARGV_ECHOES)
    def test_short_argument_is_echoed_whole(self, monkeypatch, argv_of):
        token = "b'o\\g\nus\udcff"
        cut = usage_error(argv_of(token))
        monkeypatch.setattr(cli._ArgumentParser, "error", argparse.ArgumentParser.error)
        assert cut == usage_error(argv_of(token))
        assert token in cut or repr(token) in cut


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


class TestUnprintableInputName:
    """An input file whose name holds a newline: every diagnostic that names
    it shows its `repr`, as the `OSError` form does, so that each stays one
    stderr line."""

    NAME = "a\nb.jsonl"
    BAD_TEXT = '{"id": "a", "text_tokens": -1}\n'
    WIDE = '{"id": "b", "text_tokens": 1, "images": [{"width": 10000, "height": 3}]}\n'

    @pytest.mark.parametrize(
        "argv, content, diagnostics",
        [
            (["plan", "--manifest", NAME], BAD_TEXT + WIDE,
             [":1: 'text_tokens' must be non-negative",
              f":2: image 0: {DISTORTIONS['10000x3'][1]}"]),
            (["pack", "--manifest", NAME], BAD_TEXT + WIDE,
             [":1: 'text_tokens' must be non-negative",
              f":2: image 0: {DISTORTIONS['10000x3'][1]}"]),
            (["pack", "--manifest", NAME, "--capacity", "4"], '{"id": "a", "text_tokens": 5}\n',
             [": 1 samples exceed capacity 4: 'a'"]),
            (["plan", "--manifest", NAME], b"\xff\n", [": not UTF-8 text (invalid start byte)"]),
            (["prefs", "dpo", "--groups", NAME], '{"query_id": "q"}\n',
             [":1: 'candidates' must be a list"]),
            (["prefs", "dpo", "--groups", NAME],
             candidates_json((-1e308, 1e308, 1.0), (-1.0, -1.0, 0.0)) + "\n",
             [":1: query 'q2': loss or gradient is not finite"]),
            (["prefs", "grpo", "--groups", NAME], '{"query_id": "q"}\n',
             [":1: 'candidates' must be a list"]),
            (["chat", "--conversation", NAME], '{"messages": []}', [": conversation has no messages"]),
        ],
        ids=["plan", "pack-parse", "pack-too-long", "not-utf8", "dpo-parse", "dpo-fault", "grpo",
             "chat"],
    )
    def test_each_diagnostic_is_one_line(self, tmp_path, argv, content, diagnostics):
        data = content if isinstance(content, bytes) else content.encode("utf-8")
        (tmp_path / self.NAME).write_bytes(data)
        result = run_cli(*argv, cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"'a\\nb.jsonl'{d}" for d in diagnostics]


class TestVerify:
    def test_passes_and_is_deterministic(self):
        first = run_cli("verify", "--seed", "3")
        second = run_cli("verify", "--seed", "3")
        assert first.returncode == 0, first.stdout + first.stderr
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
        for name in ("vet-grad", "dpo-grad", "rope-relative", "pack-equiv", "ffd-opt"):
            assert name in first.stdout

    def test_reports_each_check_once_in_check_order(self):
        """`verify` writes one line per check, named as its result names
        itself, in `CHECK_NAMES` order; `bench/check.py` reads these five."""
        from navit_pack.selfcheck import CHECK_NAMES

        code, out, _ = run_in_process("verify", "--seed", "0")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == list(CHECK_NAMES)
        assert CHECK_NAMES == ("vet-grad", "dpo-grad", "rope-relative", "pack-equiv", "ffd-opt")

    def test_seed_changes_fixtures_not_outcome(self):
        a = run_cli("verify", "--seed", "1")
        b = run_cli("verify", "--seed", "2")
        assert a.returncode == 0 and b.returncode == 0

    # The `dpo-grad` lines that `verify` wrote when it took each central
    # difference with one loss call per perturbed entry.
    DPO_GRAD_LINES = {
        "0": "dpo-grad       pass  max rel err 1.255e-09 over 30 instances (tol 1e-06)",
        "1": "dpo-grad       pass  max rel err 8.445e-10 over 30 instances (tol 1e-06)",
        "2": "dpo-grad       pass  max rel err 9.685e-10 over 30 instances (tol 1e-06)",
    }

    @pytest.mark.parametrize("seed", DPO_GRAD_LINES)
    def test_stacked_dpo_differences_keep_the_line(self, seed):
        code, out, _ = run_in_process("verify", "--seed", seed)
        assert code == 0
        assert self.DPO_GRAD_LINES[seed] in out.splitlines()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_vet_differences_match_per_entry_ones(self, seed):
        """On the `vet-grad` fixtures, the numeric gradient from one stacked
        loss call matches central differences over `head_forward` and
        `vet_embed`, one perturbed entry at a time."""
        from navit_pack import selfcheck

        for features, projection, table, upstream in selfcheck._vet_fixtures(seed):
            args = {"features": features, "projection": projection, "table": table}
            for arg, value in args.items():
                rest = {**args, "upstream": upstream}
                stacked = selfcheck.stacked_central_diff(
                    lambda x: selfcheck._vet_losses(**{**rest, arg: x}), value
                )
                per_entry = finite_difference(lambda x: vet_loss(**{**rest, arg: x}), value)
                assert rel_err(stacked, per_entry) < 1e-9, (seed, arg)

    def test_mutant_fails_named_check(self, monkeypatch):
        mutant = MUTANTS["vet-grad-no-pa-term"]
        monkeypatch.setattr(mutant.module, mutant.attr, mutant.replacement())
        code, statuses, err = run_verify("verify")
        assert code == 1
        assert statuses.pop("vet-grad") == "FAIL"
        assert statuses and set(statuses.values()) == {"pass"}
        assert err == "failed checks: vet-grad\n"

    def test_check_that_raises_fails_and_the_rest_run(self, monkeypatch):
        from navit_pack import selfcheck

        def raising(seed):
            raise ZeroDivisionError("x" * 100)

        monkeypatch.setitem(selfcheck._CHECKS, "vet-grad", raising)
        code, out, err = run_in_process("verify")
        lines = out.splitlines()
        assert lines[0] == "vet-grad       FAIL  raised ZeroDivisionError: " + "x" * 35 + "..."
        assert [line.split()[1] for line in lines[1:]] == ["pass"] * 4
        assert code == 1
        assert err == "failed checks: vet-grad\n"

    def test_table_holds_every_check_function(self):
        """A `check_*` function missing from `_CHECKS` would never run under `verify`."""
        from navit_pack import selfcheck

        functions = {f for name, f in vars(selfcheck).items() if name.startswith("check_")}
        assert len(selfcheck._CHECKS) == len(functions)
        assert set(selfcheck._CHECKS.values()) == functions

    # Returns that are no verdict pair: nothing, a bare verdict, a 1-tuple, and
    # a (name, passed, detail) triple that could name another check.
    @pytest.mark.parametrize("returned", [None, True, (True,), ("ffd-opt", True, "ok")])
    def test_entry_without_a_verdict_pair_fails_under_its_name(self, monkeypatch, returned):
        from navit_pack import selfcheck

        for name in selfcheck.CHECK_NAMES:
            monkeypatch.setitem(selfcheck._CHECKS, name, lambda seed: (True, "ok"))
        monkeypatch.setitem(selfcheck._CHECKS, "dpo-grad", lambda seed: returned)
        results = selfcheck.run_checks(0)
        names = selfcheck.CHECK_NAMES
        assert [(r.name, r.passed) for r in results] == [(n, n != "dpo-grad") for n in names]
        assert re.fullmatch(r"raised (TypeError|ValueError): .*unpack.*", results[1].detail)

    def test_fault_inject_is_usage_error(self):
        result = run_cli("verify", "--fault-inject", "vet-grad")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unrecognized arguments: --fault-inject vet-grad" in result.stderr

    def test_negative_seed_is_usage_error(self):
        # A value of up to 64 characters is echoed whole, a longer one cut.
        for seed, shown in (
            ("-1", "-1\n"),
            ("-" + "1" * 63, "-" + "1" * 63 + "\n"),
            ("-" + "1" * 3000, "-" + "1" * 60 + "...\n"),
        ):
            result = run_cli("verify", "--seed", seed)
            assert result.returncode == 2
            assert result.stdout == ""
            assert "Traceback" not in result.stderr
            assert f"argument --seed: must be >= 0, got {shown}" in result.stderr
            assert len(result.stderr.encode()) < 600


def loaded_modules(script):
    """The `navit_pack` modules that a fresh interpreter holds after it runs
    `script`, which may end in a `SystemExit`."""
    script = (
        "import json, sys\n"
        "try:\n"
        f"    exec({script!r})\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('navit_pack'))),\n"
        "      file=sys.stderr)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    return json.loads(result.stderr.splitlines()[-1])


class TestStartup:
    """What a fresh process loads to run a subcommand. No subcommand loads
    `dataclasses`, and those that start without numpy load no `inspect`
    either (numpy's own import loads `inspect`). Parsing argv loads only
    the parser; a subcommand loads its own command module and no other."""

    @pytest.mark.parametrize(
        "argv",
        [["plan", "--help"], ["pack", "--help"], ["verify", "--help"], ["prefs", "dpo", "--help"],
         ["plan", "--phase", "zz"]],
        ids=" ".join,
    )
    def test_parsing_loads_only_the_parser(self, argv):
        script = f"from navit_pack import cli\ncli.main({argv!r})\n"
        assert loaded_modules(script) == ["navit_pack", "navit_pack.cli", "navit_pack.errors"]

    def test_plan_and_pack_load_no_other_command_module(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(MANIFEST)
        script = (
            "import contextlib, io\n"
            "from navit_pack import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['plan', '--manifest', {str(manifest)!r}]) == 0\n"
            f"    assert cli.main(['pack', '--manifest', {str(manifest)!r}]) == 0\n"
        )
        loaded = loaded_modules(script)
        assert "navit_pack.cli_pack" in loaded
        assert "navit_pack.cli_chat" not in loaded and "navit_pack.cli_prefs" not in loaded

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
            "loaded = sorted(m for m in sys.modules\n"
            "                if m in ('numpy', 'logging', 'dataclasses', 'inspect')\n"
            "                or m.startswith('navit_pack'))\n"
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
            "navit_pack.cli_chat",
            "navit_pack.cli_pack",
            "navit_pack.errors",
            "navit_pack.geometry",
            "navit_pack.packing",
            "navit_pack.records",
        ]

    def test_prefs_imports_no_numpy(self, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_text(groups_jsonl([3, 4, 9], 0), encoding="utf-8")
        script = (
            "import contextlib, io, json, sys\n"
            "from navit_pack import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(['prefs', c, '--groups', {str(groups)!r}])\n"
            "             for c in ('pairs', 'dpo', 'grpo')]\n"
            "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules,\n"
            "                  'inspect': 'inspect' in sys.modules}), file=sys.stderr)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert json.loads(result.stderr.splitlines()[-1]) == {
            "codes": [0, 0, 0], "numpy": False, "inspect": False
        }

    def test_encoder_loads_no_thread_pool(self):
        # What `import navit_pack.encoder` adds to `import numpy`: its own
        # package and the `json` that `records` decodes with. No
        # `concurrent.futures`, `queue` or `multiprocessing`, so the tile
        # workers add nothing to `encode`'s start-up.
        script = (
            "import sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import navit_pack.encoder\n"
            "print(*sorted(set(sys.modules) - before), file=sys.stderr)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.stderr.split() == [
            "__future__", "_json", "json", "json.decoder", "json.encoder", "json.scanner",
            "navit_pack", "navit_pack.encoder", "navit_pack.errors", "navit_pack.records",
        ]

    def test_verify_starts_no_helper_thread(self, monkeypatch):
        # `pack-equiv`'s largest sequence holds 160,000 scores, less than a
        # whole tile for each of 2 workers, so every tile runs inline.
        from navit_pack import encoder
        from test_encoder import refuse_to_start

        monkeypatch.setattr(encoder, "_workers", lambda: 2)
        monkeypatch.setattr(threading.Thread, "start", refuse_to_start)
        for seed in ("0", "1", "2"):
            code, statuses, err = run_verify("verify", "--seed", seed)
            assert (code, err) == (0, "") and set(statuses.values()) == {"pass"}

    def test_prefs_and_verify_do_not_import_chat(self, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_text(groups_jsonl([3, 4], 0), encoding="utf-8")
        script = (
            "import json, sys\n"
            "from navit_pack import cli\n"
            f"codes = [cli.main(['prefs', c, '--groups', {str(groups)!r}])\n"
            "         for c in ('pairs', 'dpo', 'grpo')]\n"
            "codes += [cli.main(['verify'])]\n"
            "print(json.dumps({'codes': codes, 'chat': 'navit_pack.chat' in sys.modules,\n"
            "                  'cli_pack': 'navit_pack.cli_pack' in sys.modules,\n"
            "                  'dataclasses': 'dataclasses' in sys.modules}), file=sys.stderr)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert json.loads(result.stderr.splitlines()[-1]) == {
            "codes": [0, 0, 0, 0], "chat": False, "cli_pack": False, "dataclasses": False
        }

    def test_prefs_loads_no_packing_code(self, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_text(groups_jsonl([3, 4], 0), encoding="utf-8")
        script = (
            "import contextlib, io\n"
            "from navit_pack import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for command in ('pairs', 'dpo', 'grpo'):\n"
            f"        assert cli.main(['prefs', command, '--groups', {str(groups)!r}]) == 0\n"
        )
        loaded = loaded_modules(script)
        assert "navit_pack.objectives" in loaded
        assert "navit_pack.packing" not in loaded and "navit_pack.geometry" not in loaded

    def test_encode_imports_do_not_load_dataclasses(self):
        script = (
            "import sys\n"
            "import navit_pack.encoder, navit_pack.geometry, navit_pack.packing, navit_pack.vet\n"
            "print('dataclasses' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.stdout == "False\n", result.stderr


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

    def test_successful_runs_write_nothing_to_stderr_under_any_environment(self, tmp_path):
        # Stderr carries diagnostics only, so a run that exits 0 writes
        # nothing there, whatever the environment (NAVIT_PACK_LOG=info
        # included) asks for.
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "text_tokens": 5}\n')
        groups = tmp_path / "g.jsonl"
        groups.write_text(GROUPS)
        for argv in (
            ["pack", "--manifest", str(manifest)],
            ["prefs", "dpo", "--groups", str(groups), "--min-score-variance", "0.1"],
        ):
            result = subprocess.run(
                [sys.executable, "-m", "navit_pack", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "NAVIT_PACK_LOG": "info"},
            )
            assert (result.returncode, result.stderr) == (0, ""), argv

    def test_exit_status_counts_only_the_current_command(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a"}\n')
        good = tmp_path / "good.jsonl"
        good.write_text(MANIFEST)
        assert cli.main(["pack", "--manifest", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"{bad}:1: ")
        assert cli.main(["pack", "--manifest", str(good)]) == 0
        assert capsys.readouterr().err == ""
