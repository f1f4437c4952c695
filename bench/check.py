"""Output checkers, one per job kind, run outside the timed region.

Each raises CheckFailed on the first violation. They compare against the
independent computations in ref.py, or test a property the method must
have; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json

import numpy as np

import ref

CHECK_NAMES = ("vet-grad", "dpo-grad", "rope-relative", "pack-equiv", "ffd-opt")


class CheckFailed(AssertionError):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Schemas:
    """Validators compiled from the repository's schemas/ directory."""

    def __init__(self, schema_dir: str):
        self._dir = schema_dir
        self._cache: dict = {}

    def __getitem__(self, name: str):
        if name not in self._cache:
            self._cache[name] = ref.load_validator(self._dir, name)
        return self._cache[name]

    def validate(self, name: str, obj, where: str) -> None:
        try:
            self[name](obj)
        except ref.SchemaError as e:
            raise CheckFailed(f"{where}: {name}: {e}") from None


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def sample_lengths(records: list[dict], planner: ref.Planner) -> dict[str, int]:
    return {
        r["id"]: r["text_tokens"] + sum(planner.tokens(i["width"], i["height"]) for i in r.get("images", []))
        for r in records
    }


def check_plan(manifest: str, output: str, schemas: Schemas, planner: ref.Planner) -> dict:
    """Every image has one plan line, in manifest order, equal to the reference plan."""
    expected = [
        (r["id"], k, img["width"], img["height"])
        for r in read_jsonl(manifest)
        for k, img in enumerate(r.get("images", []))
    ]
    n = 0
    with open(output, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            where = f"plan output line {lineno}"
            obj = json.loads(line)
            schemas.validate("resize_plan_line", obj, where)
            expect(n < len(expected), f"{where}: more plan lines than images")
            sid, k, w, h = expected[n]
            n += 1
            expect((obj["id"], obj["image_index"]) == (sid, k), f"{where}: expected image {sid}#{k}")
            expect(obj["source"] == {"width": w, "height": h}, f"{where}: wrong source size")
            grid = planner.grid(w, h)
            expect(grid is not None, f"{where}: reference finds no acceptable grid for {w}x{h}")
            rows, cols = grid
            expect(
                (obj["grid_rows"], obj["grid_cols"]) == (rows, cols),
                f"{where}: grid {obj['grid_rows']}x{obj['grid_cols']} != reference {rows}x{cols} for {w}x{h}",
            )
            tw, th = obj["target"]["width"], obj["target"]["height"]
            expect((tw, th) == (cols * ref.PATCH, rows * ref.PATCH), f"{where}: target is not the grid")
            expect(ref.P2_MIN <= tw * th <= ref.P2_MAX, f"{where}: target outside the pixel budget")
            expect(obj["token_count"] == rows * cols, f"{where}: token_count != rows * cols")
    expect(n == len(expected), f"plan output has {n} lines for {len(expected)} images")
    return {"images": n}


def check_pack(manifest: str, output: str, capacity: int, batch_size: int,
               schemas: Schemas, planner: ref.Planner) -> dict:
    """Soundness of every sequence line, the report's arithmetic, and FFD bins."""
    records = read_jsonl(manifest)
    lengths = sample_lengths(records, planner)
    want_bins = ref.ffd_bins(lengths, capacity)
    seen: set[str] = set()
    n_seq = pads = used = 0
    report = None
    with open(output, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            where = f"pack output line {lineno}"
            expect(report is None, f"{where}: line after the report")
            obj = json.loads(line)
            if "position_ids" not in obj:
                schemas.validate("packing_report", obj, where)
                report = obj
                continue
            schemas.validate("packed_sequence_line", obj, where)
            expect(obj["capacity"] == capacity, f"{where}: capacity {obj['capacity']}")
            expect(n_seq < len(want_bins), f"{where}: more sequences than reference FFD")
            ids = [s[0] for s in obj["segments"]]
            expect(ids == want_bins[n_seq], f"{where}: bin differs from reference FFD")
            offset = 0
            cumulative = [0]
            positions: list[int] = []
            for sid, start, length in obj["segments"]:
                expect(sid not in seen, f"{where}: sample {sid} packed twice")
                seen.add(sid)
                expect(start == offset, f"{where}: segment {sid} starts at {start}, not {offset}")
                expect(length == lengths[sid], f"{where}: segment {sid} length {length} != {lengths[sid]}")
                offset += length
                cumulative.append(offset)
                positions.extend(range(length))
            expect(offset + obj["pad_tokens"] == capacity, f"{where}: used + pads != capacity")
            expect(obj["cumulative_lengths"] == cumulative, f"{where}: cumulative_lengths")
            positions.extend([-1] * obj["pad_tokens"])
            expect(obj["position_ids"] == positions, f"{where}: position_ids")
            n_seq += 1
            pads += obj["pad_tokens"]
            used += offset
    expect(report is not None, "pack output has no report line")
    expect(seen == set(lengths), f"{len(set(lengths) - seen)} samples missing from the output")
    expect(n_seq == len(want_bins), f"{n_seq} sequences, reference FFD has {len(want_bins)}")

    naive_slots = naive_useful = 0
    order = [lengths[r["id"]] for r in records]
    for i in range(0, len(order), batch_size):
        batch = order[i : i + batch_size]
        naive_slots += max(batch) * len(batch)
        naive_useful += sum(batch)
    slots = n_seq * capacity
    want = {
        "n_samples": len(records),
        "n_sequences": n_seq,
        "capacity": capacity,
        "packed_pad_fraction": pads / slots,
        "naive_pad_fraction": (naive_slots - naive_useful) / naive_slots,
        "useful_token_speedup_proxy": naive_slots / slots,
    }
    expect(report == want, f"report {report} != recomputed {want}")
    return {"sequences": n_seq, "used": used, "slots": slots}


def _positions(record: dict, planner: ref.Planner) -> tuple[np.ndarray, np.ndarray]:
    rows = [np.zeros(record["text_tokens"], dtype=int)]
    cols = [np.arange(record["text_tokens"])]
    for img in record.get("images", []):
        r, c = planner.grid(img["width"], img["height"])
        rows.append(np.repeat(np.arange(r), c))
        cols.append(np.tile(np.arange(c), r))
    return np.concatenate(rows), np.concatenate(cols)


def check_encode(manifest: str, arrays_path: str, output: str, capacity: int,
                 planner: ref.Planner) -> dict:
    """Each sample's rows equal an isolated attention with 2D RoPE; VET
    probabilities are a softmax that sums to 1 and embeds as probs @ table."""
    records = {r["id"]: r for r in read_jsonl(manifest)}
    lengths = sample_lengths(list(records.values()), planner)
    with np.load(arrays_path) as z:
        a = {k: z[k] for k in z.files}
    index = {sid: i for i, sid in enumerate(a["ids"].tolist())}
    with np.load(output) as z:
        out = {k: z[k] for k in z.files}
    meta = json.loads(str(out["meta"]))
    expect([[s[0] for s in m["segments"]] for m in meta] == ref.ffd_bins(lengths, capacity),
           "encode bins differ from reference FFD")
    worst_attn = worst_vet = 0.0
    used = slots = 0
    for i, m in enumerate(meta):
        rows_out, probs, embedded = out[f"out_{i}"], out[f"probs_{i}"], out[f"embedded_{i}"]
        offset = 0
        for sid, start, length in m["segments"]:
            expect(start == offset and length == lengths[sid], f"encode sequence {i}: segment {sid}")
            lo = a["offsets"][index[sid]]
            x = a["embeddings"][lo : lo + length]
            r, c = _positions(records[sid], planner)
            want = ref.isolated_attention(x, r, c, a["wq"], a["wk"], a["wv"], a["wo"])
            got = rows_out[start : start + length]
            expect(got.shape == want.shape, f"encode sequence {i}: {sid} rows have shape {got.shape}")
            worst_attn = max(worst_attn, float(np.abs(got - want).max()))
            offset += length
        expect(rows_out.shape[0] == offset, f"encode sequence {i}: {rows_out.shape[0]} rows for {offset} tokens")
        worst_vet = max(
            worst_vet,
            float(np.abs(probs.sum(axis=1) - 1.0).max()),
            float(np.abs(probs - ref.vet_probs(rows_out, a["projection"])).max()),
            float(np.abs(embedded - probs @ a["table"]).max()),
        )
        used += offset
        slots += m["capacity"]
    expect(worst_attn <= 1e-9, f"attention rows deviate from isolated reference by {worst_attn:.3e}")
    expect(worst_vet <= 1e-12, f"VET outputs deviate from reference by {worst_vet:.3e}")
    expect(used == sum(lengths.values()), "encode lost tokens")
    return {"sequences": len(meta), "used": used, "slots": slots, "tokens": used}


def check_verify(output: str) -> dict:
    with open(output, encoding="utf-8") as f:
        lines = [line.split() for line in f if line.strip()]
    expect([p[0] for p in lines] == list(CHECK_NAMES), f"verify reported {[p[0] for p in lines]}")
    failed = [p[0] for p in lines if p[1] != "pass"]
    expect(not failed, f"verify checks failed: {failed}")
    return {}


def check_dpo(groups_path: str, output: str, schemas: Schemas) -> dict:
    """Pairs are exactly those with gap > 0 in the pinned order; loss and
    gradients match the pinned DPO form at the CLI defaults (beta 0.1, no
    NLL term)."""
    groups = read_jsonl(groups_path)
    with open(output, encoding="utf-8") as f:
        lines = f.readlines()
    n = 0
    for g in groups:
        cands = g["candidates"]
        for i, j, _ in ref.pairs([c["score"] for c in cands]):
            where = f"dpo output line {n + 1}"
            expect(n < len(lines), f"{where}: missing")
            obj = json.loads(lines[n])
            n += 1
            schemas.validate("dpo_line", obj, where)
            expect((obj["query_id"], obj["chosen_index"], obj["rejected_index"]) == (g["query_id"], i, j),
                   f"{where}: expected pair {g['query_id']} ({i}, {j})")
            c, r = cands[i], cands[j]
            want = ref.dpo(c["logprob_policy"], c["logprob_reference"],
                           r["logprob_policy"], r["logprob_reference"], beta=0.1, nll_weight=0.0)
            got = (obj["loss"], obj["d_logprob_policy_chosen"], obj["d_logprob_policy_rejected"],
                   obj["d_logprob_reference_chosen"], obj["d_logprob_reference_rejected"])
            for name, x, y in zip(("loss", "d_pc", "d_pr", "d_rc", "d_rr"), got, want):
                expect(ref.close(x, y, 1e-12), f"{where}: {name} {x!r} != reference {y!r}")
    expect(n == len(lines), f"dpo output has {len(lines)} lines, reference has {n} pairs")
    return {"pairs": n}


def check_grpo(groups_path: str, output: str, schemas: Schemas) -> dict:
    groups = read_jsonl(groups_path)
    with open(output, encoding="utf-8") as f:
        lines = f.readlines()
    expect(len(lines) == len(groups), f"grpo output has {len(lines)} lines for {len(groups)} groups")
    for k, (g, line) in enumerate(zip(groups, lines), start=1):
        where = f"grpo output line {k}"
        obj = json.loads(line)
        schemas.validate("grpo_line", obj, where)
        expect(obj["query_id"] == g["query_id"], f"{where}: query_id")
        want = ref.grpo([c["score"] for c in g["candidates"]])
        expect(len(obj["advantages"]) == len(want), f"{where}: advantage count")
        for x, y in zip(obj["advantages"], want):
            expect(ref.close(x, y, 1e-9), f"{where}: advantage {x!r} != reference {y!r}")
    return {"groups": len(groups)}
