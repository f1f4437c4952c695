"""Span tracing around the public functions of navit_pack's modules.

Nothing in the program changes: the tracer swaps each public function
for a wrapper, both in the module that defines it and in every module
that imported the same object by name, and puts the originals back on
exit. Spans (name, parent, start, end) stay in memory until the run
ends; self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

LAYERS = ("cli", "geometry", "packing", "encoder", "vet", "objectives", "selfcheck", "chat")

# Helpers called once per candidate grid inside plan_resize; wrapping them
# would bill plan_resize for hundreds of thousands of spans. Their time
# stays in plan_resize's self time.
UNWRAPPED = {"geometry.grid_key", "geometry.relative_distortion"}


class Tracer:
    def __init__(self) -> None:
        # Parallel lists rather than one tuple per span: floats and ints are
        # not tracked by the cyclic GC, so recording adds no collection work.
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._patched: list = []
        self.plan_inputs: set = set()
        self.pairs = 0
        self.peak_bytes = 0

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, measure_peak: bool = False):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if measure_peak:
                tracemalloc.start()
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                if measure_peak:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()

        return wrapper

    def _hooked(self, name: str, fn):
        if name == "geometry.plan_resize":
            def fn2(source, budget, *args, **kwargs):
                self.plan_inputs.add((source, budget))
                return fn(source, budget, *args, **kwargs)
        elif name == "objectives.build_pairs":
            def fn2(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.pairs += len(result)
                return result
        else:
            return fn
        return functools.wraps(fn)(fn2)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"navit_pack.{name}") for name in LAYERS}
        replacements: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNWRAPPED
                        or (layer == "selfcheck" and attr.startswith("check_"))):
                    continue
                wrapped = self._wrap(name, self._hooked(name, obj),
                                     measure_peak=(name == "encoder.block_diag_forward"))
                replacements[id(obj)] = (obj, wrapped)
        # selfcheck.run_checks looks its checks up in a private table.
        table = modules["selfcheck"]._CHECKS
        for check, fn in list(table.items()):
            self._patched.append((table, check, fn, True))
            table[check] = self._wrap(f"selfcheck.{check}", fn)
        # Rebind every name that refers to an original, wherever it lives.
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "navit_pack" or name.startswith("navit_pack.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj, False))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._patched):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        durations = [t1 - t0 for t0, t1 in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += d
        out: dict[str, dict] = {}
        for name, d, c in zip(self.names, durations, child):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += d
            agg["self_s"] += d - c
        return out
