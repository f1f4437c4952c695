"""How `plan`, `pack` and `prefs` write stdout: in blocks of `cli._BLOCK`
characters, every line made before an input fault still written, and a
closed stdout named in one diagnostic. Also how `plan` keeps the plans of
the sizes it has seen.

A run is counted under a write-through `TextIOWrapper` over a raw stream
that counts its writes: what stdout is when `PYTHONUNBUFFERED` is set,
where each `write` to the text layer is one write of the file.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from mutants import (
    PLAN_MANIFEST, _PREFS_GROUPS, oracle_line, plan_oracle, prefs_oracle, run_in_process,
)
from test_cli import CONVERSATION
from navit_pack import cli, cli_pack, packing
from navit_pack.geometry import Phase, phase_budget
from navit_pack.packing import pack_ffd, packing_report, parse_manifest_line, sample_from_record

REPO = Path(__file__).resolve().parent.parent

# Common sizes, each feasible in P2. `manifest` lengthens their sides by 0 to
# 40 pixels; image j's size depends on j mod 246 alone, so sizes repeat.
_POOL = [(640, 480), (1280, 720), (1024, 768), (300, 200), (1920, 1080), (500, 500)]


def manifest(n, images_per_record=1):
    """`n` records `m00000`.., each of a few text tokens and
    `images_per_record` images drawn from `_POOL`."""
    lines = []
    for i in range(n):
        images = []
        for k in range(images_per_record):
            j = i * images_per_record + k
            width, height = _POOL[j % len(_POOL)]
            images.append({"width": width + j * 7 % 41, "height": height + j * 11 % 41})
        record = {"id": f"m{i:05d}", "text_tokens": 1 + i % 9}
        if images:
            record["images"] = images
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def groups(n):
    """`n` scored groups `q00000`.. of three candidates."""
    return "".join(
        json.dumps({"query_id": f"q{i:05d}", "candidates": [
            {"response": f"r{j}", "logprob_policy": -1.0 - (i + j) % 5 / 4,
             "logprob_reference": -1.5 + j / 8, "score": float((i * j + j) % 4)}
            for j in range(3)
        ]}) + "\n"
        for i in range(n)
    )


class CountingRaw(io.RawIOBase):
    """A raw stream that keeps the bytes written to it and counts the writes."""

    def __init__(self):
        self.data = bytearray()
        self.writes = 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


def run_counted(monkeypatch, capsys, *argv):
    """`(exit status, stdout bytes, writes of stdout, stderr)` of `cli.main(argv)`
    with stdout unbuffered, as `PYTHONUNBUFFERED` makes it."""
    raw = CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    code = cli.main(list(argv))
    return code, bytes(raw.data), raw.writes, capsys.readouterr().err


def pack_oracle(text, capacity):
    """`pack` stdout for the manifest `text`: `oracle_line` per sequence, then the report."""
    samples = [
        sample_from_record(parse_manifest_line(line), phase_budget(Phase.P2))
        for line in text.splitlines()
    ]
    sequences = pack_ffd(samples, capacity)
    report = packing_report(samples, sequences, capacity, 8)
    return "".join(oracle_line(seq) + "\n" for seq in sequences) + json.dumps(
        report._asdict(), separators=(",", ":")
    ) + "\n"


class TestWriteCount:
    """Each run makes at most one write per block, and one for the rest."""

    @staticmethod
    def most_writes(data):
        return math.ceil(len(data) / cli._BLOCK) + 2

    def test_plan(self, tmp_path, monkeypatch, capsys):
        text = manifest(2_500, images_per_record=2)
        path = tmp_path / "m.jsonl"
        path.write_text(text)
        code, out, writes, err = run_counted(monkeypatch, capsys, "plan", "--manifest", str(path))
        assert (code, err) == (0, "")
        assert out.decode() == plan_oracle(text, str(path))[0]
        assert out.count(b"\n") == 5_000
        assert writes <= self.most_writes(out)

    def test_pack(self, tmp_path, monkeypatch, capsys):
        text = manifest(2_000, images_per_record=0)
        path = tmp_path / "m.jsonl"
        path.write_text(text)
        argv = ("pack", "--manifest", str(path), "--capacity", "64")
        code, out, writes, err = run_counted(monkeypatch, capsys, *argv)
        assert (code, err) == (0, "")
        assert out.decode() == pack_oracle(text, 64)
        assert writes <= self.most_writes(out)

    def test_prefs_dpo(self, tmp_path, monkeypatch, capsys):
        text = groups(2_000)
        path = tmp_path / "g.jsonl"
        path.write_text(text)
        code, out, writes, err = run_counted(monkeypatch, capsys, "prefs", "dpo", "--groups", str(path))
        assert (code, err) == (0, "")
        assert out.decode() == prefs_oracle(text, "dpo", str(path))[0]
        assert writes <= self.most_writes(out)


class TestFaultMidFile:
    """A non-UTF-8 byte after 1,000 good lines. `plan` has written the
    lines of every record decoded before the fault, as a writer of one
    record at a time does; `pack` and `prefs` parse all their input before
    they write, so they write nothing. The digests are those of the
    stdout that writing each record's lines at once gives."""

    DIGESTS = {
        "plan": "f934ee32a6cf6daa637c693a16c1c804748ecec15ead14aeb1d565fcca3a6a89",
        "pack": hashlib.sha256(b"").hexdigest(),
        "grpo": hashlib.sha256(b"").hexdigest(),
    }

    @pytest.mark.parametrize("command", ["plan", "pack", "grpo"])
    def test_stdout_is_unchanged(self, tmp_path, monkeypatch, capsys, command):
        good = groups(1_000) if command == "grpo" else manifest(1_000)
        path = tmp_path / "in.jsonl"
        path.write_bytes(good.encode() + b'{"id": "\xff"}\n' + good.encode())
        argv = ["prefs", "grpo", "--groups"] if command == "grpo" else [command, "--manifest"]
        code, out, _, err = run_counted(monkeypatch, capsys, *argv, str(path))
        assert (code, err) == (1, f"{path}: not UTF-8 text (invalid start byte)\n")
        assert hashlib.sha256(out).hexdigest() == self.DIGESTS[command]


def distinct_sizes(n):
    """A manifest of `n` records of one image each, no two of a size."""
    return "".join(
        json.dumps({"id": f"d{i:05d}", "text_tokens": 1,
                    "images": [{"width": 600 + i // 64, "height": 400 + i % 64}]}) + "\n"
        for i in range(n)
    )


def counted_plan_calls(monkeypatch):
    """A list that gets one item per `plan_resize` call `plan` makes."""
    calls = []
    plan_resize = packing.plan_resize

    def counted(size, budget):
        calls.append(size)
        return plan_resize(size, budget)

    monkeypatch.setattr(packing, "plan_resize", counted)
    return calls


class TestRepeatedSizes:
    def test_plan_matches_planning_each_image_alone(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(PLAN_MANIFEST)
        code, out, err = run_in_process("plan", "--manifest", str(path))
        assert (code, out, err) == (1, *plan_oracle(PLAN_MANIFEST, str(path)))
        # The sliver is reported at each of its images, by line and index.
        sliver = "best grid 1x1617 distorts aspect by 2.061x (> 2.0) for source 10000x3"
        assert err == f"{path}:4: image 1: {sliver}\n{path}:5: image 2: {sliver}\n"

    def test_each_feasible_size_is_planned_once(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        path.write_text(PLAN_MANIFEST)
        calls = counted_plan_calls(monkeypatch)
        run_in_process("plan", "--manifest", str(path))
        sizes = [
            (image["width"], image["height"])
            for line in PLAN_MANIFEST.splitlines() for image in json.loads(line)["images"]
        ]
        # 16 images of 12 sizes; the infeasible sliver is planned at each of its two images.
        assert (len(sizes), len(set(sizes))) == (16, 12)
        assert sorted(map(tuple, calls)) == sorted([*set(sizes), (10000, 3)])

    def test_a_full_memo_is_forgotten(self, tmp_path, monkeypatch):
        """At `_PLAN_MEMO` sizes kept, the next new size clears them: a size
        seen before the clear is planned again, and stdout is the same."""
        path = tmp_path / "m.jsonl"
        path.write_text(PLAN_MANIFEST)
        want = run_in_process("plan", "--manifest", str(path))
        monkeypatch.setattr(cli_pack, "_PLAN_MEMO", 2)
        calls = counted_plan_calls(monkeypatch)
        assert run_in_process("plan", "--manifest", str(path)) == want
        assert len(calls) > 13

    @staticmethod
    def plan_peak(path, monkeypatch):
        """Peak bytes `tracemalloc` sees while `plan` runs on `path`, stdout discarded."""
        with open(os.devnull, "w") as null:
            monkeypatch.setattr(sys, "stdout", null)
            tracemalloc.start()
            try:
                assert cli.main(["plan", "--manifest", str(path)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_memory_stays_bounded_on_distinct_sizes(self, tmp_path, monkeypatch):
        """With at most 256 sizes kept, 4,000 distinct sizes take no more
        memory than 1,000 do; kept without bound, the 3,000 more plans
        (about 260 bytes each) show."""
        short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
        short.write_text(distinct_sizes(1_000))
        long.write_text(distinct_sizes(4_000))
        self.plan_peak(short, monkeypatch)  # imports and first-call allocations
        growth = {}
        for limit in (256, 10**9):
            monkeypatch.setattr(cli_pack, "_PLAN_MEMO", limit)
            growth[limit] = self.plan_peak(long, monkeypatch) - self.plan_peak(short, monkeypatch)
        assert growth[256] < 100_000
        assert growth[10**9] > 500_000


class TestClosedStdout:
    """A reader that stops early (`plan ... | head -1`) gets one diagnostic
    naming stdout and exit status 1, buffered or not, with no traceback
    and nothing from the interpreter's exit."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["plan", "pack", "dpo"])
    def test_broken_pipe_is_named(self, tmp_path, command, unbuffered):
        path = tmp_path / "in.jsonl"
        if command == "dpo":
            path.write_text(_PREFS_GROUPS)
            argv = ["prefs", "dpo", "--groups", str(path)]
        else:
            path.write_text(manifest(50, images_per_record=int(command == "plan")))
            argv = [command, "--manifest", str(path)]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "navit_pack", *argv],
                stdout=write, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (1, b"<stdout>: Broken pipe\n")

    def test_broken_sidecar_is_not_stdout(self, tmp_path):
        """A sidecar whose reader is gone is not reported as stdout, and the
        prompt written before it still reaches stdout."""
        conv = tmp_path / "c.json"
        conv.write_text(json.dumps(CONVERSATION))
        argv = [sys.executable, "-m", "navit_pack", "chat", "--conversation", str(conv)]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        prompt = subprocess.run(argv, capture_output=True, env=env, check=True).stdout
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [*argv, "--sidecar", f"/dev/fd/{write}"],
                capture_output=True, env=env, pass_fds=[write],
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (1, b"[Errno 32] Broken pipe\n")
        assert result.stdout == prompt
