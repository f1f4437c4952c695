"""navit-pack benchmark: seeded jobs run against the program from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src and
its schemas read from ./schemas. Inputs are generated from --seed into
bench/.work/ and removed at exit. With --trace 0 the jobs run as child
processes in a closed loop (one at a time) for --seconds, and the last
stdout line carries the end-to-end metrics, in reference seconds
(calib.py). With --trace 1 a warm-up round and an untraced round run
in-process, then a traced one, and the last line carries the per-layer
metrics. Every run checks the program's outputs against the independent
computations in check.py; human-readable detail goes to stderr. See
bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import calib
import check
import gen
import ref

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_FIRST = 2  # set-up probes before the first round
SETUP_MIN = 7  # set-up probes per run, at least
BATCH_SIZE = 8  # `pack --batch-size` default, used by the report check
PACK_IMAGES_CAPACITY = 16384
PACK_TEXT_CAPACITY = 2048


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NAVIT_PACK")}
    env["PYTHONPATH"] = SRC
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "navit_pack", *args]


@dataclass
class Op:
    """One program invocation: a `navit-pack` subcommand or the encode job."""

    label: str
    args: list[str]  # CLI arguments, or [manifest, arrays] for the encode job
    items: int = 0  # work in this job alone, for the per-job figures on stderr
    unit: str = ""
    encode: bool = False

    def argv(self, out_path: str) -> list[str]:
        if self.encode:
            return [sys.executable, os.path.join(BENCH_DIR, "encode_job.py"), *self.args, out_path + ".npz"]
        return cli_argv(self.args)


@dataclass
class Result:
    op: Op
    seconds: float  # wall seconds (job seconds for the encode job)
    rss_mb: float
    ok: bool
    out_path: str
    detail: str = ""
    ref_seconds: float = 0.0  # `seconds` rescaled by the reference clock


@dataclass
class Workload:
    name: str
    unit: str  # what items_per_s counts
    setup: list[list[str]]  # argv lists whose start-up time is setup_s
    ops: list[Op] = field(default_factory=list)
    items: int = 0
    summary: dict = field(default_factory=dict)

    def prepare(self, work: str, seed: int) -> None:
        """Write the seeded inputs under `work` and fill `ops` and `items`."""
        raise NotImplementedError

    def check(self, outputs: dict[str, str], schemas, planner) -> dict:
        """Check one round's outputs (label -> path); raise CheckFailed."""
        raise NotImplementedError


class DataPathWorkload(Workload):
    """`plan` on a manifest of repeated and random image sizes, then `pack`
    on an image-heavy and on a text-heavy manifest."""

    def __init__(self):
        super().__init__("data-path", "records", [cli_argv(["plan", "--help"]), cli_argv(["pack", "--help"])])

    def prepare(self, work, seed):
        self.plan_manifest = os.path.join(work, "plan.jsonl")
        self.images_manifest = os.path.join(work, "pack-images.jsonl")
        self.text_manifest = os.path.join(work, "pack-text.jsonl")
        plan = gen.plan_images(self.plan_manifest, seed)
        images = gen.pack_images(self.images_manifest, seed)
        text = gen.pack_text(self.text_manifest, seed)
        self.summary = {"plan": plan, "pack-images": images, "pack-text": text}
        self.items = plan["records"] + images["samples"] + text["samples"]
        self.ops = [
            Op("plan", ["plan", "--manifest", self.plan_manifest], plan["images"], "images"),
            Op("pack-images", ["pack", "--manifest", self.images_manifest, "--capacity", str(PACK_IMAGES_CAPACITY)],
               images["samples"], "samples"),
            Op("pack-text", ["pack", "--manifest", self.text_manifest, "--capacity", str(PACK_TEXT_CAPACITY)],
               text["samples"], "samples"),
        ]

    def check(self, outputs, schemas, planner):
        out = check.check_plan(self.plan_manifest, outputs["plan"], schemas, planner)
        for label, manifest, capacity in (("pack-images", self.images_manifest, PACK_IMAGES_CAPACITY),
                                          ("pack-text", self.text_manifest, PACK_TEXT_CAPACITY)):
            packed = check.check_pack(manifest, outputs[label], capacity, BATCH_SIZE, schemas, planner)
            for key, value in packed.items():
                out[key] = out.get(key, 0) + value
        return out


ENCODE_IMPORTS = "import navit_pack.encoder, navit_pack.geometry, navit_pack.packing, navit_pack.vet"


class EncodeWorkload(Workload):
    def __init__(self):
        super().__init__("encode", "tokens", [[sys.executable, "-c", ENCODE_IMPORTS]])

    def prepare(self, work, seed):
        self.manifest = os.path.join(work, "manifest.jsonl")
        self.arrays = os.path.join(work, "arrays.npz")
        self.summary = gen.encode(self.manifest, self.arrays, seed)
        self.items = self.summary["tokens"]
        self.ops = [Op("encode", [self.manifest, self.arrays], self.items, "tokens", encode=True)]

    def check(self, outputs, schemas, planner):
        return check.check_encode(self.manifest, self.arrays, outputs["encode"] + ".npz",
                                  gen.ENCODE_CAPACITY, planner)


class PosttrainWorkload(Workload):
    def __init__(self):
        super().__init__("posttrain", "groups", [
            cli_argv(["verify", "--help"]), cli_argv(["prefs", "dpo", "--help"]),
            cli_argv(["prefs", "grpo", "--help"]),
        ])

    def prepare(self, work, seed):
        self.groups = os.path.join(work, "groups.jsonl")
        self.summary = gen.posttrain(self.groups, seed)
        self.items = self.summary["groups"]
        self.ops = [
            Op("verify", ["verify", "--seed", str(seed)]),
            Op("dpo", ["prefs", "dpo", "--groups", self.groups], self.items, "groups"),
            Op("grpo", ["prefs", "grpo", "--groups", self.groups], self.items, "groups"),
        ]

    def check(self, outputs, schemas, planner):
        out = check.check_verify(outputs["verify"])
        out.update(check.check_dpo(self.groups, outputs["dpo"], schemas))
        out.update(check.check_grpo(self.groups, outputs["grpo"], schemas))
        return out


WORKLOADS = {
    "data-path": DataPathWorkload,
    "encode": EncodeWorkload,
    "posttrain": PosttrainWorkload,
}


# ------------------------------------------------------------ measurement


def digest(path: str, encode: bool) -> str:
    """Hash of a job's output: file bytes, or array contents for the encode job."""
    h = hashlib.sha256()
    if encode:
        with np.load(path + ".npz") as z:
            for k in sorted(z.files):
                h.update(k.encode())
                h.update(np.ascontiguousarray(z[k]).tobytes())
    else:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def spawn(argv: list[str], out_path: str, err_path: str) -> tuple[float, float, int]:
    """Run one child to completion; (wall seconds, peak RSS MB, exit code)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_op(op: Op, work: str, tag: str) -> Result:
    out_path = os.path.join(work, f"{tag}-{op.label}.out")
    err_path = out_path + ".err"
    wall, rss, code = spawn(op.argv(out_path), out_path, err_path)
    with open(err_path, encoding="utf-8", errors="replace") as f:
        err = f.read()
    ok = code == 0 and not err
    if ok and op.encode:
        with open(out_path, encoding="utf-8") as f:
            wall = json.loads(f.read())["job_s"]
    return Result(op, wall, rss, ok, out_path, detail=err.strip()[:500] or f"exit {code}")


def setup_once(w: Workload, work: str, i: int) -> float:
    argv = w.setup[i % len(w.setup)]
    wall, _, code = spawn(argv, os.path.join(work, "setup.out"), os.path.join(work, "setup.err"))
    if code != 0:
        raise SystemExit(f"set-up command failed: {' '.join(argv)}")
    return wall


def timed_rounds(w: Workload, work: str, seconds: float):
    """Whole rounds of the workload's ops, closed loop, until `seconds` pass.

    Set-up probes run before the first round, after the first round to end
    past each quarter of the run, and after the last round, so that their
    median samples the whole run rather than one stretch of it. Every job
    and probe is timed on the reference clock as well as the wall clock.
    """
    setup_once(w, work, 0)  # untimed: fills the bytecode cache
    clock = calib.RefClock()
    setup_ref, setup_wall = [], []

    def probe() -> None:
        wall = setup_once(w, work, len(setup_ref))
        setup_ref.append(clock.rescale(wall))
        setup_wall.append(wall)

    for _ in range(SETUP_FIRST):
        probe()
    rounds: list[list[Result]] = []
    first_ok: dict[str, str] | None = None
    first_digest: dict[str, str] = {}
    mismatch = []
    quarters_probed = 0
    start = time.perf_counter()
    while True:
        tag = f"r{len(rounds)}"
        results = []
        for op in w.ops:
            result = run_op(op, work, tag)
            result.ref_seconds = clock.rescale(result.seconds)
            results.append(result)
        rounds.append(results)
        if all(r.ok for r in results):
            if first_ok is None:
                first_ok = {r.op.label: r.out_path for r in results}
                first_digest = {r.op.label: digest(r.out_path, r.op.encode) for r in results}
            else:
                for r in results:
                    if digest(r.out_path, r.op.encode) != first_digest[r.op.label]:
                        mismatch.append(f"{tag} {r.op.label}")
                    _remove_outputs(r.out_path)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        if quarters_probed < 3 and elapsed >= seconds * (quarters_probed + 1) / 4:
            quarters_probed += 1
            probe()
    while len(setup_ref) < SETUP_MIN:
        probe()
    return setup_ref, setup_wall, clock.kernel_times, rounds, first_ok, mismatch


def _remove_outputs(out_path: str) -> None:
    for p in (out_path, out_path + ".npz", out_path + ".err"):
        if os.path.exists(p):
            os.remove(p)


# ---------------------------------------------------------------- tracing


@dataclass
class InProcessResult:
    seconds: float
    out_paths: dict[str, str]
    stdout_bytes: int
    lines_out: int


def run_inprocess(w: Workload, work: str, tag: str) -> InProcessResult:
    """One round of the workload's ops in this process; CLI jobs via cli.main."""
    from navit_pack import cli  # resolved at call time so traced wrappers apply

    import encode_job

    total = 0.0
    outs: dict[str, str] = {}
    nbytes = nlines = 0
    for op in w.ops:
        out_path = os.path.join(work, f"{tag}-{op.label}.out")
        outs[op.label] = out_path
        if op.encode:
            lines, arrays = encode_job.load_inputs(*op.args)
            t0 = time.perf_counter()
            results = encode_job.run_job(lines, arrays)
            total += time.perf_counter() - t0
            encode_job.save(results, out_path + ".npz")
            continue
        err = io.StringIO()
        with open(out_path, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(list(op.args))
            total += time.perf_counter() - t0
        if code != 0 or err.getvalue():
            raise check.CheckFailed(f"{op.label} failed in-process: exit {code}: {err.getvalue()[:500]}")
        nbytes += os.path.getsize(out_path)
        with open(out_path, "rb") as f:
            nlines += sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))
    return InProcessResult(total, outs, nbytes, nlines)


PER_LAYER = [
    # (metric, unit, better)
    ("cli.self_share", "%", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("cli.lines_out", "count", "lower"),
    ("geometry.plan_resize.calls", "count", "lower"),
    ("geometry.plan_resize.share", "%", "lower"),
    ("geometry.plan_resize.distinct_ratio", "ratio", "lower"),
    ("packing.parse_manifest_line.calls", "count", "lower"),
    ("packing.parse_manifest_line.share", "%", "lower"),
    ("packing.sample_from_record.self_share", "%", "lower"),
    ("packing.pack_ffd.calls", "count", "lower"),
    ("packing.pack_ffd.share", "%", "lower"),
    ("packing.packing_report.self_share", "%", "lower"),
    ("packing.build_attention_metadata.calls", "count", "lower"),
    ("packing.build_attention_metadata.share", "%", "lower"),
    ("packing.sequences", "count", "lower"),
    ("packing.fill_ratio", "ratio", "higher"),
    ("encoder.block_diag_forward.calls", "count", "lower"),
    ("encoder.block_diag_forward.share", "%", "lower"),
    ("encoder.block_diag_forward.self_share", "%", "lower"),
    ("encoder.block_diag_forward.peak_mb", "MB", "lower"),
    ("encoder.apply_rope_2d.share", "%", "lower"),
    ("vet.head_forward.share", "%", "lower"),
    ("vet.vet_embed.calls", "count", "lower"),
    ("vet.vet_embed.share", "%", "lower"),
    ("objectives.parse_group_line.calls", "count", "lower"),
    ("objectives.parse_group_line.share", "%", "lower"),
    ("objectives.build_pairs.share", "%", "lower"),
    ("objectives.build_pairs.pairs", "count", "higher"),
    ("objectives.dpo_loss.calls", "count", "lower"),
    ("objectives.dpo_loss.share", "%", "lower"),
    ("objectives.grpo_advantages.share", "%", "lower"),
    ("selfcheck.vet-grad.share", "%", "lower"),
    ("selfcheck.dpo-grad.share", "%", "lower"),
    ("selfcheck.rope-relative.share", "%", "lower"),
    ("selfcheck.pack-equiv.share", "%", "lower"),
    ("selfcheck.ffd-opt.share", "%", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def layer_metrics(tracer, traced: InProcessResult, overhead_pct: float, checked: dict) -> dict:
    spans = tracer.summary()
    job_s = traced.seconds

    def agg(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def share(seconds: float) -> float:
        return 100.0 * seconds / job_s

    plan_calls = agg("geometry.plan_resize", "calls")
    values = {
        "cli.self_share": share(sum(v["self_s"] for k, v in spans.items() if k.startswith("cli."))),
        "cli.stdout_bytes": traced.stdout_bytes,
        "cli.lines_out": traced.lines_out,
        "geometry.plan_resize.distinct_ratio": len(tracer.plan_inputs) / plan_calls if plan_calls else 0.0,
        "packing.sequences": checked.get("sequences", 0),
        "packing.fill_ratio": checked["used"] / checked["slots"] if checked.get("slots") else 0.0,
        "encoder.block_diag_forward.peak_mb": tracer.peak_bytes / 1e6,
        "objectives.build_pairs.pairs": tracer.pairs,
        "trace.job_s": job_s,
        "trace.overhead_pct": overhead_pct,
    }
    for metric, unit, _ in PER_LAYER:
        if metric in values:
            continue
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = agg(span, "calls")
        elif kind == "share":
            values[metric] = share(agg(span, "s"))
        elif kind == "self_share":
            values[metric] = share(agg(span, "self_s"))
        else:
            raise AssertionError(metric)
    return {m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER}


def traced_run(w: Workload, work: str, schemas, planner):
    sys.path.insert(0, SRC)
    import navit_pack

    expected = os.path.join(SRC, "navit_pack", "__init__.py")
    if os.path.abspath(navit_pack.__file__) != expected:
        raise SystemExit(f"navit_pack imported from {navit_pack.__file__}, not {expected}")
    import tracing

    # A warm-up round first: the first in-process round pays one-off costs
    # (page faults, lazy imports) that would read as negative overhead.
    warm = run_inprocess(w, work, "warm")
    clock = calib.RefClock()
    untraced = run_inprocess(w, work, "plain")
    untraced_ref = clock.rescale(untraced.seconds)
    tracer = tracing.Tracer()
    with tracer:
        traced = run_inprocess(w, work, "traced")
    traced_ref = clock.rescale(traced.seconds)
    checked = w.check(warm.out_paths, schemas, planner)
    for label, path in warm.out_paths.items():
        is_encode = label == "encode"
        for other in (untraced, traced):
            check.expect(digest(path, is_encode) == digest(other.out_paths[label], is_encode),
                         f"{label} output differs between in-process rounds")
    metrics = layer_metrics(tracer, traced, 100.0 * (traced_ref / untraced_ref - 1.0), checked)
    log(f"traced round {traced.seconds:.3f} s, untraced {untraced.seconds:.3f} s (wall); "
        f"{traced_ref:.3f} and {untraced_ref:.3f} reference s; {len(tracer.names)} spans")
    for name, agg in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["s"]):
        log(f"  {name:<40} calls {agg['calls']:>8}  {agg['s']:9.4f} s  self {agg['self_s']:9.4f} s")
    return metrics


# ------------------------------------------------------------------- main


def timed_run(w: Workload, work: str, seconds: float, schemas, planner) -> dict:
    """The untraced run: timed rounds, then the checks; returns the result line."""
    correct = True
    setup_ref, setup_wall, kernel_times, rounds, first_ok, mismatch = timed_rounds(w, work, seconds)
    attempted = sum(len(r) for r in rounds)
    failed = sum(1 for r in rounds for x in r if not x.ok)
    for r in rounds:
        for x in r:
            if not x.ok:
                log(f"FAILED {x.op.label}: {x.detail}")
    if mismatch:
        log(f"CHECK FAILED: output differs from the first round in {mismatch}")
        correct = False
    if first_ok is None:
        log("CHECK FAILED: no round completed without a failed job")
        correct = False
    else:
        t0 = time.perf_counter()
        try:
            checked = w.check(first_ok, schemas, planner)
            log(f"checked in {time.perf_counter() - t0:.2f} s: {checked}")
        except check.CheckFailed as e:
            log(f"CHECK FAILED: {e}")
            correct = False
    good = [r for r in rounds if all(x.ok for x in r)]
    metrics = {"setup_s": {"value": statistics.median(setup_ref), "unit": "s"}}
    log(f"setup_s {statistics.median(setup_ref):.4f} reference s, {statistics.median(setup_wall):.4f} wall s; "
        f"reference kernel {min(kernel_times):.4f}-{max(kernel_times):.4f} s "
        f"(nominal {calib.NOMINAL_S} s) over {len(kernel_times)} runs")
    if good:
        rates = [w.items / sum(x.ref_seconds for x in r) for r in good]
        wall_rate = statistics.median(w.items / sum(x.seconds for x in r) for r in good)
        metrics["items_per_s"] = {"value": statistics.median(rates), "unit": "items/s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(max(x.rss_mb for x in r) for r in good),
                                  "unit": "MB"}
        for k, op in enumerate(w.ops):
            ref_t = statistics.median(r[k].ref_seconds for r in good)
            wall_t = statistics.median(r[k].seconds for r in good)
            per_job = f", {op.unit}_per_s {op.items / ref_t:.2f}" if op.items else ""
            log(f"  {op.label:<12} median {ref_t:.3f} reference s ({wall_t:.3f} wall s){per_job}; "
                "reference s per round " + " ".join(f"{r[k].ref_seconds:.3f}" for r in good))
        log(f"{w.unit}_per_s = {metrics['items_per_s']['value']:.2f} {w.unit} per reference s "
            f"({wall_rate:.2f} per wall s), median of {len(rates)} rounds")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}




def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so children and inputs are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in (os.path.join(SRC, "navit_pack", "__init__.py"), os.path.join(ROOT, "schemas")):
        if not os.path.exists(need):
            log(f"error: {need} not found; run from the root of a navit-pack checkout")
            return 2

    w = WORKLOADS[args.workload]()
    work = os.path.join(BENCH_DIR, ".work", f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        w.prepare(work, args.seed)
        log(f"{w.name} seed {args.seed}: {w.summary}")
        schemas = check.Schemas(os.path.join(ROOT, "schemas"))
        planner = ref.Planner()
        if args.trace:
            try:
                metrics, correct = traced_run(w, work, schemas, planner), True
            except check.CheckFailed as e:
                log(f"CHECK FAILED: {e}")
                metrics, correct = {}, False
            result = {"correct": correct, "attempted": 3 * len(w.ops), "failed": 0, "metrics": metrics}
        else:
            result = timed_run(w, work, args.seconds, schemas, planner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
