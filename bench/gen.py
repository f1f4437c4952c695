"""Seeded input generators, one per workload.

The same seed always gives byte-identical files. Sizes and distributions
are recorded in README.md; each generator returns a short summary of
what it wrote, which run.py prints to stderr.
"""

from __future__ import annotations

import json

import numpy as np

import ref

# Common camera, phone and screen sizes (width, height); the plan manifest
# draws about half its images from this pool.
SIZE_POOL = [
    (640, 480), (800, 600), (1024, 768), (1280, 720), (1280, 960), (1366, 768),
    (1440, 900), (1600, 1200), (1920, 1080), (1080, 1920), (2048, 1536),
    (2560, 1440), (3024, 4032), (4032, 3024), (750, 1334), (1170, 2532),
    (512, 512), (224, 224), (1080, 1080), (3840, 2160),
]

ENCODE_CAPACITY = 4096
ENCODE_D_MODEL = 32
ENCODE_D_HEAD = 32
ENCODE_VOCAB = 64
ENCODE_D_EMBED = 32
# Images whose P2 plan is exactly 64x64, 32x128 or 128x32 patches: with
# no text, each fills a 4096-token sequence alone (a single block).
FULL_IMAGES = [(1024, 1024), (2048, 512), (512, 2048)]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r, separators=(",", ":")) + "\n")


def _lognormal_ints(rng, n, median, sigma, lo, hi):
    return np.clip(np.rint(rng.lognormal(np.log(median), sigma, n)), lo, hi).astype(int)


def pack_images(path: str, seed: int, n: int = 2_000) -> dict:
    """Mixed samples: log-normal text; 30/40/30% carry 0/1/2 images with sides 128-1280 px."""
    rng = _rng(seed, 1)
    text = _lognormal_ints(rng, n, 200, 1.0, 1, 3000)
    n_images = rng.permutation(np.repeat([0, 1, 2], [n - 7 * n // 10, 4 * n // 10, 3 * n // 10]))
    sides = rng.integers(128, 1281, size=(n, 2, 2))
    records = []
    for i in range(n):
        rec = {"id": f"s{i:06d}", "text_tokens": int(text[i])}
        if n_images[i]:
            rec["images"] = [
                {"width": int(sides[i, k, 0]), "height": int(sides[i, k, 1])}
                for k in range(n_images[i])
            ]
        records.append(rec)
    _write_jsonl(path, records)
    return {"samples": n, "images": int(n_images.sum())}


def pack_text(path: str, seed: int, n: int = 20_000) -> dict:
    """Short samples, mostly text; about 10% carry one small image."""
    rng = _rng(seed, 2)
    text = _lognormal_ints(rng, n, 60, 0.9, 1, 1200)
    has_image = rng.random(n) < 0.10
    sides = rng.integers(64, 449, size=(n, 2))
    records = []
    for i in range(n):
        rec = {"id": f"t{i:06d}", "text_tokens": int(text[i])}
        if has_image[i]:
            rec["images"] = [{"width": int(sides[i, 0]), "height": int(sides[i, 1])}]
        records.append(rec)
    _write_jsonl(path, records)
    return {"samples": n, "images": int(has_image.sum())}


def _random_aspect_size(rng) -> tuple[int, int]:
    aspect = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    area = float(np.exp(rng.uniform(np.log(0.05e6), np.log(12e6))))
    w = max(1, int(round(np.sqrt(area * aspect))))
    h = max(1, int(round(np.sqrt(area / aspect))))
    return w, h


def plan_images(path: str, seed: int, n: int = 2_000) -> dict:
    """Records with 1-4 images; half from SIZE_POOL, half random aspect 1:2-2:1."""
    rng = _rng(seed, 3)
    counts = rng.integers(1, 5, size=n)
    records = []
    images = pooled = 0
    for i in range(n):
        imgs = []
        for _ in range(counts[i]):
            if rng.random() < 0.5:
                w, h = SIZE_POOL[int(rng.integers(len(SIZE_POOL)))]
                pooled += 1
            else:
                w, h = _random_aspect_size(rng)
            imgs.append({"width": w, "height": h})
        images += len(imgs)
        records.append({"id": f"p{i:06d}", "text_tokens": int(rng.integers(0, 512)), "images": imgs})
    _write_jsonl(path, records)
    return {"records": n, "images": images, "pooled_images": pooled}


def encode(manifest_path: str, arrays_path: str, seed: int) -> dict:
    """A manifest that packs into 1 single-block and 2 many-block sequences,
    plus seeded weights and per-sample embeddings.

    The single-block sequence is one image planned to exactly 4096 tokens.
    The rest are text-only samples (16-400 tokens) and samples with one
    small image plus a little text; their total is 2 x 4096 minus a
    seeded slack of 32-255 tokens, so FFD closes two sequences.
    """
    rng = _rng(seed, 4)
    planner = ref.Planner()
    budget = 2 * ENCODE_CAPACITY - int(rng.integers(32, 256))
    samples = []  # (record, tokens)
    w, h = FULL_IMAGES[int(rng.integers(len(FULL_IMAGES)))]
    samples.append(({"id": "e000", "text_tokens": 0, "images": [{"width": w, "height": h}]},
                    planner.tokens(w, h)))
    left = budget
    i = 1
    while left > 0:
        if rng.random() < 0.2 and left > 1000:
            iw, ih = (int(v) for v in rng.integers(96, 449, size=2))
            t = int(rng.integers(1, 64))
            tokens = t + planner.tokens(iw, ih)
            rec = {"id": f"e{i:03d}", "text_tokens": t, "images": [{"width": iw, "height": ih}]}
        else:
            tokens = min(left, int(rng.integers(16, 401)))
            rec = {"id": f"e{i:03d}", "text_tokens": tokens}
        samples.append((rec, tokens))
        left -= tokens
        i += 1
    order = rng.permutation(len(samples))
    samples = [samples[k] for k in order]
    _write_jsonl(manifest_path, [rec for rec, _ in samples])

    tokens = np.array([t for _, t in samples])
    offsets = np.concatenate([[0], np.cumsum(tokens)])
    wrng = _rng(seed, 5)
    s_model = 1.0 / np.sqrt(ENCODE_D_MODEL)
    np.savez(
        arrays_path,
        ids=np.array([rec["id"] for rec, _ in samples]),
        offsets=offsets,
        embeddings=wrng.normal(0.0, 1.0, (int(offsets[-1]), ENCODE_D_MODEL)),
        wq=wrng.normal(0.0, s_model, (ENCODE_D_MODEL, ENCODE_D_HEAD)),
        wk=wrng.normal(0.0, s_model, (ENCODE_D_MODEL, ENCODE_D_HEAD)),
        wv=wrng.normal(0.0, s_model, (ENCODE_D_MODEL, ENCODE_D_HEAD)),
        wo=wrng.normal(0.0, 1.0 / np.sqrt(ENCODE_D_HEAD), (ENCODE_D_HEAD, ENCODE_D_MODEL)),
        projection=wrng.normal(0.0, 1.0, (ENCODE_D_MODEL, ENCODE_VOCAB)),
        table=wrng.uniform(-0.02, 0.02, (ENCODE_VOCAB, ENCODE_D_EMBED)),
    )
    return {"samples": len(samples), "tokens": int(offsets[-1])}


def posttrain(path: str, seed: int, n: int = 5_000) -> dict:
    """Scored groups of 2-8 candidates; half binary scores, half graded in quarters."""
    rng = _rng(seed, 6)
    records = []
    candidates = 0
    for i in range(n):
        k = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            scores = rng.integers(0, 2, size=k).astype(float)
        else:
            scores = rng.integers(0, 5, size=k) / 4.0
        ref_lp = rng.uniform(-60.0, -2.0, size=k)
        pol_lp = ref_lp + rng.normal(0.0, 2.0, size=k)
        records.append({
            "query_id": f"q{i:06d}",
            "candidates": [
                {
                    "response": f"answer {j} to q{i}",
                    "logprob_policy": float(pol_lp[j]),
                    "logprob_reference": float(ref_lp[j]),
                    "score": float(scores[j]),
                }
                for j in range(k)
            ],
        })
        candidates += k
    _write_jsonl(path, records)
    return {"groups": n, "candidates": candidates}
