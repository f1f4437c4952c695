"""Self-tests for the benchmark's checkers and reference computations.

    python3 bench/selftest.py        # from the root of a checkout

Each checker must accept the program's real output and reject a copy
with one deliberate fault: a flipped position id, a moved segment, a
wrong report fraction, a wrong plan, a perturbed attention row, a wrong
VET embedding, a wrong DPO gradient, a wrong GRPO advantage, a failed
verify line and a schema violation. The references are cross-checked
against plainer versions of themselves (full grid enumeration, linear
first-fit scan) and the schema validator against jsonschema, when that
package is installed. Exits 1 on the first test that does not hold.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import numpy as np

import check
import gen
import ref
import run

WORK = os.path.join(run.BENCH_DIR, ".work", f"selftest-{os.getpid()}")


def program(args: list[str], name: str) -> str:
    out = os.path.join(WORK, name)
    _, _, code = run.spawn(run.cli_argv(args), out, out + ".err")
    if code != 0:
        raise SystemExit(f"program failed: {args}")
    return out


def rewrite(path: str, name: str, edit) -> str:
    """Copy a JSONL output with `edit(lines)` applied to its parsed lines."""
    with open(path, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f]
    edit(lines)
    out = os.path.join(WORK, name)
    with open(out, "w", encoding="utf-8") as f:
        for obj in lines:
            f.write(json.dumps(obj, separators=(",", ":")) + "\n")
    return out


def must_reject(label: str, fn) -> None:
    try:
        fn()
    except check.CheckFailed as e:
        print(f"ok   rejects {label}: {str(e)[:100]}")
        return
    raise SystemExit(f"FAIL checker accepted {label}")


def must_accept(label: str, fn) -> None:
    fn()
    print(f"ok   accepts {label}")


def test_pack(schemas, planner) -> None:
    manifest = os.path.join(WORK, "pack.jsonl")
    gen.pack_images(manifest, seed=7, n=300)
    out = program(["pack", "--manifest", manifest, "--capacity", "16384"], "pack.out")

    def checker(path):
        return lambda: check.check_pack(manifest, path, 16384, 8, schemas, planner)

    must_accept("the program's pack output", checker(out))

    def flip(lines):
        lines[0]["position_ids"][5] += 1

    def move(lines):
        moved = lines[0]["segments"].pop()
        lines[1]["segments"].append([moved[0], 16384 - lines[1]["pad_tokens"], moved[2]])
        lines[0]["pad_tokens"] += moved[2]
        lines[1]["pad_tokens"] -= moved[2]

    def swap(lines):
        segs = lines[0]["segments"]
        segs[0], segs[1] = segs[1], segs[0]

    def fraction(lines):
        lines[-1]["packed_pad_fraction"] *= 1.0 + 1e-12

    def extra_key(lines):
        lines[0]["note"] = "x"

    for label, edit in (("a flipped position id", flip), ("a segment moved to another sequence", move),
                        ("two swapped segments", swap), ("a wrong report fraction", fraction),
                        ("an unknown key", extra_key)):
        must_reject(label, checker(rewrite(out, "pack.bad", edit)))


def test_plan(schemas, planner) -> None:
    manifest = os.path.join(WORK, "plan.jsonl")
    gen.plan_images(manifest, seed=7, n=200)
    out = program(["plan", "--manifest", manifest], "plan.out")
    checker = lambda path: lambda: check.check_plan(manifest, path, schemas, planner)  # noqa: E731
    must_accept("the program's plan output", checker(out))

    def wrong_plan(lines):
        # A self-consistent plan one row off: only the search comparison catches it.
        p = lines[3]
        p["grid_rows"] += 1
        p["target"]["height"] = 16 * p["grid_rows"]
        p["token_count"] = p["grid_rows"] * p["grid_cols"]

    def dropped(lines):
        lines.pop()

    must_reject("a wrong plan", checker(rewrite(out, "plan.bad", wrong_plan)))
    must_reject("a missing plan line", checker(rewrite(out, "plan.bad", dropped)))


def test_encode(planner) -> None:
    import encode_job

    manifest, arrays = os.path.join(WORK, "enc.jsonl"), os.path.join(WORK, "enc.npz")
    gen.encode(manifest, arrays, seed=7)
    results = encode_job.run_job(*encode_job.load_inputs(manifest, arrays))
    out = os.path.join(WORK, "enc_out.npz")
    checker = lambda: check.check_encode(manifest, arrays, out, gen.ENCODE_CAPACITY, planner)  # noqa: E731
    encode_job.save(results, out)
    must_accept("the program's encode output", checker)
    for label, key, delta in (("a perturbed attention row", "out", 1e-6),
                              ("a wrong VET embedding", "embedded", 1e-9),
                              ("a VET distribution off by 1e-9", "probs", 1e-9)):
        bad = [dict(r) for r in results]
        bad[-1][key] = bad[-1][key].copy()
        bad[-1][key][7] += delta
        encode_job.save(bad, out)
        must_reject(label, checker)


def test_posttrain(schemas) -> None:
    groups = os.path.join(WORK, "groups.jsonl")
    gen.posttrain(groups, seed=7, n=200)
    dpo = program(["prefs", "dpo", "--groups", groups], "dpo.out")
    grpo = program(["prefs", "grpo", "--groups", groups], "grpo.out")
    verify = program(["verify", "--seed", "7"], "verify.out")
    must_accept("the program's dpo output", lambda: check.check_dpo(groups, dpo, schemas))
    must_accept("the program's grpo output", lambda: check.check_grpo(groups, grpo, schemas))
    must_accept("the program's verify output", lambda: check.check_verify(verify))

    def grad(lines):
        lines[10]["d_logprob_policy_chosen"] *= 1.0 + 1e-9

    def order(lines):
        lines[0], lines[1] = lines[1], lines[0]

    def adv(lines):
        lines[3]["advantages"][0] += 1e-6

    must_reject("a wrong DPO gradient", lambda: check.check_dpo(groups, rewrite(dpo, "dpo.bad", grad), schemas))
    must_reject("pairs out of the pinned order",
                lambda: check.check_dpo(groups, rewrite(dpo, "dpo.bad", order), schemas))
    must_reject("a wrong GRPO advantage", lambda: check.check_grpo(groups, rewrite(grpo, "grpo.bad", adv), schemas))
    failed_verify = os.path.join(WORK, "verify.bad")
    with open(verify, encoding="utf-8") as f, open(failed_verify, "w", encoding="utf-8") as g:
        g.write(re.sub(r"^(pack-equiv +)pass", r"\1FAIL", f.read(), flags=re.M))
    must_reject("a failed verify check", lambda: check.check_verify(failed_verify))


def test_references() -> None:
    rng = np.random.default_rng(7)
    sizes = [(int(w), int(h)) for w, h in rng.integers(1, 5000, size=(40, 2))]
    sizes += [(1, 1), (1, 3000), (3000, 1), (448, 448), (1792, 1792), (5000, 40)]
    for min_px, max_px in ((ref.P2_MIN, ref.P2_MAX), (448 * 448, 896 * 896), (300_000, 301_000)):
        for w, h in sizes:
            a = ref.plan_grid(w, h, min_px, max_px)
            b = ref.plan_grid_exhaustive(w, h, min_px, max_px)
            if a != b:
                raise SystemExit(f"FAIL pruned grid search {a} != enumeration {b} for {w}x{h}")
    print(f"ok   pruned grid search equals full enumeration on {3 * len(sizes)} cases")

    for trial in range(30):
        lengths = {f"x{i}": int(v) for i, v in enumerate(rng.integers(1, 40, size=int(rng.integers(1, 60))))}
        bins, room = [], []
        for sid in sorted(lengths, key=lambda s: (-lengths[s], s)):
            k = next((i for i, r in enumerate(room) if r >= lengths[sid]), len(bins))
            if k == len(bins):
                bins.append([])
                room.append(40)
            bins[k].append(sid)
            room[k] -= lengths[sid]
        if ref.ffd_bins(lengths, 40) != bins:
            raise SystemExit("FAIL segment-tree FFD differs from a linear first-fit scan")
    print("ok   segment-tree FFD equals a linear first-fit scan on 30 manifests")

    x = rng.normal(size=(5, 8))
    r, c = rng.integers(0, 9, 5), rng.integers(0, 9, 5)
    q, k = ref.rope_2d(x, r, c), ref.rope_2d(x[::-1].copy(), r[::-1], c[::-1])
    shifted = ref.rope_2d(x, r + 3, c + 2) @ ref.rope_2d(x[::-1].copy(), r[::-1] + 3, c[::-1] + 2).T
    if not np.allclose(q @ k.T, shifted, atol=1e-12) or not np.allclose(
            np.linalg.norm(q, axis=1), np.linalg.norm(x, axis=1), atol=1e-12):
        raise SystemExit("FAIL reference RoPE is not relative or not norm-preserving")
    print("ok   reference RoPE preserves norms and depends only on offsets")


def test_schema_validator(schema_dir: str) -> None:
    try:
        import jsonschema
    except ImportError:
        print("skip schema validator cross-check: jsonschema is not installed")
        return
    cases = {
        "packed_sequence_line": [
            {"capacity": 4, "segments": [["a", 0, 3]], "pad_tokens": 1, "cumulative_lengths": [0, 3],
             "position_ids": [0, 1, 2, -1]},
            {"capacity": 4, "segments": [["a", 0, 3]], "pad_tokens": 1, "cumulative_lengths": [0, 3],
             "position_ids": [0, 1, 2, -2]},
            {"capacity": 4, "segments": [["a", 0]], "pad_tokens": 1, "cumulative_lengths": [0, 3],
             "position_ids": []},
            {"capacity": 4, "segments": [["", 0, 3]], "pad_tokens": 1, "cumulative_lengths": [0, 3],
             "position_ids": [True]},
        ],
        "resize_plan_line": [
            {"id": "a", "image_index": 0, "source": {"width": 1, "height": 1},
             "target": {"width": 16, "height": 16}, "grid_rows": 1, "grid_cols": 1, "token_count": 1},
            {"id": "a", "image_index": 0, "source": {"width": 1, "height": 1, "d": 1},
             "target": {"width": 16, "height": 16}, "grid_rows": 1, "grid_cols": 1, "token_count": 1},
        ],
        "dpo_line": [
            {"query_id": "q", "chosen_index": 0, "rejected_index": 1, "loss": 0.5,
             "d_logprob_policy_chosen": 1, "d_logprob_policy_rejected": 1.0,
             "d_logprob_reference_chosen": 1.0, "d_logprob_reference_rejected": 1.0},
            {"query_id": "q", "chosen_index": 0, "rejected_index": 1, "loss": -0.5,
             "d_logprob_policy_chosen": 1, "d_logprob_policy_rejected": 1.0,
             "d_logprob_reference_chosen": 1.0, "d_logprob_reference_rejected": "1"},
        ],
        "grpo_line": [{"query_id": "q", "advantages": [1.0, -1]}, {"query_id": "q", "advantages": [1.0]}],
        "packing_report": [
            {"n_samples": 1, "n_sequences": 1, "capacity": 2, "packed_pad_fraction": 0.5,
             "naive_pad_fraction": 0, "useful_token_speedup_proxy": 1.0},
            {"n_samples": 1, "n_sequences": 1, "capacity": 2, "packed_pad_fraction": 1.5,
             "naive_pad_fraction": 0, "useful_token_speedup_proxy": 0},
        ],
        "conversation": [
            {"messages": [{"role": "user", "parts": [{"text": "hi"}]}]},
            {"messages": [{"role": "user", "parts": [{"text": "hi", "image": "a"}]}]},
        ],
    }
    n = 0
    for name, objs in cases.items():
        with open(os.path.join(schema_dir, f"{name}.schema.json"), encoding="utf-8") as f:
            schema = json.load(f)
        ours = ref.compile_schema(schema)
        theirs = jsonschema.Draft202012Validator(schema)
        for obj in objs:
            try:
                ours(obj)
                mine = True
            except ref.SchemaError:
                mine = False
            if mine != theirs.is_valid(obj):
                raise SystemExit(f"FAIL schema validator disagrees with jsonschema on {name}: {obj}")
            n += 1
    print(f"ok   schema validator agrees with jsonschema on {n} documents")


def main() -> int:
    schema_dir = os.path.join(run.ROOT, "schemas")
    if not os.path.isdir(os.path.join(run.SRC, "navit_pack")) or not os.path.isdir(schema_dir):
        print("error: run from the root of a navit-pack checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    os.makedirs(WORK)
    try:
        schemas, planner = check.Schemas(schema_dir), ref.Planner()
        test_references()
        test_schema_validator(schema_dir)
        test_plan(schemas, planner)
        test_pack(schemas, planner)
        test_encode(planner)
        test_posttrain(schemas)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
