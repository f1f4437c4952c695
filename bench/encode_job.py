"""The `encode` library job: pack, lay out 2D positions, attend, tokenise.

Run as a child process by run.py (`python3 bench/encode_job.py MANIFEST
ARRAYS OUT`), or in-process by the traced run through `run_job`. The
timed part starts after the inputs are loaded and ends once every
output row exists; writing the outputs for the checker is not timed.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from navit_pack import encoder, geometry, packing, vet

from gen import ENCODE_CAPACITY


def load_inputs(manifest_path: str, arrays_path: str):
    with open(manifest_path, encoding="utf-8") as f:
        lines = [line for line in f if line.strip()]
    with np.load(arrays_path) as z:
        arrays = {k: z[k] for k in z.files}
    return lines, arrays


def _positions(sample: packing.SampleRecord) -> np.ndarray:
    """Text tokens run along the column axis in row 0; each image token
    gets its (row, col) cell in its plan's grid, row-major."""
    parts = [np.stack([np.zeros(sample.text_tokens, dtype=int), np.arange(sample.text_tokens)], axis=1)]
    for plan in sample.image_plans:
        r, c = np.divmod(np.arange(plan.grid_rows * plan.grid_cols), plan.grid_cols)
        parts.append(np.stack([r, c], axis=1))
    return np.concatenate(parts)


def run_job(lines: list[str], arrays: dict) -> list[dict]:
    """Returns one dict per packed sequence with its segments and outputs."""
    budget = geometry.phase_budget(geometry.Phase.P2)
    samples = [packing.sample_from_record(packing.parse_manifest_line(l), budget) for l in lines]
    index = {sid: i for i, sid in enumerate(arrays["ids"].tolist())}
    offsets = arrays["offsets"]
    for s in samples:
        i = index[s.id]
        if offsets[i + 1] - offsets[i] != s.total_tokens:
            raise ValueError(f"{s.id}: program plans {s.total_tokens} tokens, inputs hold {offsets[i + 1] - offsets[i]}")
    by_id = {s.id: s for s in samples}
    weights = encoder.AttentionParams(
        wq=arrays["wq"], wk=arrays["wk"], wv=arrays["wv"], wo=arrays["wo"]
    )
    rope = encoder.RopeConfig(d_head=weights.d_head)
    head = vet.VisualHead(projection=arrays["projection"])
    table = vet.VisualEmbeddingTable(table=arrays["table"])
    results = []
    for seq in packing.pack_ffd(samples, ENCODE_CAPACITY):
        cumulative, _ = packing.build_attention_metadata(seq)
        rows = [arrays["embeddings"][offsets[index[sid]] : offsets[index[sid] + 1]] for sid, _, _ in seq.segments]
        positions = np.concatenate([_positions(by_id[sid]) for sid, _, _ in seq.segments])
        packed = encoder.PatchSequence(
            embeddings=np.concatenate(rows), positions=positions,
            sample_boundaries=tuple(cumulative),
        )
        out = encoder.block_diag_forward(packed, weights, rope)
        tokens = vet.head_forward(out, head)
        embedded = np.stack([vet.vet_embed(t, table) for t in tokens])
        results.append({
            "segments": [list(s) for s in seq.segments],
            "capacity": seq.capacity,
            "out": out,
            "probs": np.stack([t.probs for t in tokens]),
            "embedded": embedded,
        })
    return results


def save(results: list[dict], out_path: str) -> None:
    arrays = {}
    for i, r in enumerate(results):
        for k in ("out", "probs", "embedded"):
            arrays[f"{k}_{i}"] = r[k]
    arrays["meta"] = np.array(json.dumps([{"segments": r["segments"], "capacity": r["capacity"]} for r in results]))
    np.savez(out_path, **arrays)


def main(argv: list[str]) -> int:
    manifest_path, arrays_path, out_path = argv
    lines, arrays = load_inputs(manifest_path, arrays_path)
    t0 = time.perf_counter()
    results = run_job(lines, arrays)
    elapsed = time.perf_counter() - t0
    save(results, out_path)
    tokens = sum(seg[2] for r in results for seg in r["segments"])
    print(json.dumps({"job_s": elapsed, "tokens": tokens}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
