"""Reference computations written apart from navit_pack.

Nothing here imports the program. Each function restates a pinned form
(docs/objectives.md, docs/formats.md, the geometry docstrings) in its own
way, so the checkers compare the program against an independent answer
rather than against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

PATCH = 16
# Phase P2 pixel budget: 448^2 .. 1792^2 total pixels, patch side 16.
P2_MIN = 448 * 448
P2_MAX = 1792 * 1792
MAX_DISTORTION = 2.0
GRPO_EPS = 1e-8


# ---------------------------------------------------------------- geometry


def ideal_grid(width: int, height: int, min_px: int = P2_MIN, max_px: int = P2_MAX):
    """Real-valued (rows, cols) after the uniform clamp scale, before snapping."""
    area = width * height
    if area < min_px:
        s = math.sqrt(min_px / area)
    elif area > max_px:
        s = math.sqrt(max_px / area)
    else:
        s = 1.0
    return s * height / PATCH, s * width / PATCH


def distortion(rows: int, cols: int, aspect: float) -> float:
    g = cols / rows
    return g / aspect if g >= aspect else aspect / g


def _key(rows, cols, ir, ic, aspect):
    return ((rows - ir) ** 2 + (cols - ic) ** 2, distortion(rows, cols, aspect), rows * cols, rows)


def _col_range(rows: int, min_px: int, max_px: int) -> tuple[int, int]:
    per_row = rows * PATCH * PATCH
    return max(1, -(-min_px // per_row)), max_px // per_row


def plan_grid(width: int, height: int, min_px: int = P2_MIN, max_px: int = P2_MAX):
    """Best feasible (rows, cols) under the grid_key order, or None.

    Exhaustive over every feasible grid, visited in order of growing row
    distance from the ideal; a row whose own squared row distance already
    exceeds the best key's distance cannot hold a better grid, so the
    visit stops there. Within a row every feasible column is ranked.
    """
    ir, ic = ideal_grid(width, height, min_px, max_px)
    aspect = width / height
    max_rows = max_px // (PATCH * PATCH)
    best = None
    best_key = None
    centre = min(max(int(round(ir)), 1), max_rows)
    for step in range(max_rows + 1):
        progressed = False
        for rows in {centre - step, centre + step}:
            if not 1 <= rows <= max_rows:
                continue
            progressed = True
            if best_key is not None and (rows - ir) ** 2 > best_key[0]:
                continue
            lo, hi = _col_range(rows, min_px, max_px)
            for cols in range(lo, hi + 1):
                if best_key is not None and (cols - ic) ** 2 > best_key[0]:
                    if cols > ic:
                        break
                    continue
                key = _key(rows, cols, ir, ic, aspect)
                if best_key is None or key < best_key:
                    best, best_key = (rows, cols), key
        if not progressed:
            break
        if best_key is not None and min((centre - step - 1 - ir) ** 2, (centre + step + 1 - ir) ** 2) > best_key[0]:
            break
    return best


def plan_grid_exhaustive(width: int, height: int, min_px: int = P2_MIN, max_px: int = P2_MAX):
    """Plain enumeration of every feasible grid (numpy), for cross-checks."""
    ir, ic = ideal_grid(width, height, min_px, max_px)
    aspect = width / height
    max_rows = max_px // (PATCH * PATCH)
    rows_list, cols_list = [], []
    for rows in range(1, max_rows + 1):
        lo, hi = _col_range(rows, min_px, max_px)
        if lo <= hi:
            cols = np.arange(lo, hi + 1)
            rows_list.append(np.full(cols.shape, rows))
            cols_list.append(cols)
    if not rows_list:
        return None
    r = np.concatenate(rows_list)
    c = np.concatenate(cols_list)
    dist = (r - ir) ** 2 + (c - ic) ** 2
    cand = np.flatnonzero(dist <= dist.min() + 1e-6)
    keys = [_key(int(r[i]), int(c[i]), ir, ic, aspect) for i in cand]
    i = cand[min(range(len(cand)), key=keys.__getitem__)]
    return int(r[i]), int(c[i])


class Planner:
    """Memoised reference plans under the P2 budget: (w, h) -> (rows, cols) or None."""

    def __init__(self):
        self._memo: dict[tuple[int, int], tuple[int, int] | None] = {}

    def grid(self, width: int, height: int):
        k = (width, height)
        if k not in self._memo:
            g = plan_grid(width, height)
            if g is not None and distortion(*g, width / height) > MAX_DISTORTION:
                g = None
            self._memo[k] = g
        return self._memo[k]

    def tokens(self, width: int, height: int) -> int:
        g = self.grid(width, height)
        if g is None:
            raise ValueError(f"no acceptable grid for {width}x{height}")
        return g[0] * g[1]


# ----------------------------------------------------------------- packing


def ffd_bins(lengths: dict[str, int], capacity: int) -> list[list[str]]:
    """First-fit decreasing with a max segment tree over bin remainders.

    Items go longest first (ties by id) into the lowest-numbered bin with
    room; unopened bins hold the full capacity, so the leftmost leaf with
    room is exactly the first-fit choice. O(n log n).
    """
    order = sorted(lengths, key=lambda sid: (-lengths[sid], sid))
    size = 1
    while size < max(1, len(order)):
        size *= 2
    tree = [capacity] * (2 * size)
    bins: list[list[str]] = []
    for sid in order:
        need = lengths[sid]
        if tree[1] < need:
            raise ValueError(f"{sid} exceeds capacity")
        node = 1
        while node < size:
            node = 2 * node if tree[2 * node] >= need else 2 * node + 1
        leaf = node - size
        if leaf == len(bins):
            bins.append([])
        bins[leaf].append(sid)
        tree[node] -= need
        node //= 2
        while node:
            tree[node] = max(tree[2 * node], tree[2 * node + 1])
            node //= 2
    return bins


# --------------------------------------------------------------- attention


def rope_2d(x: np.ndarray, rows: np.ndarray, cols: np.ndarray, base: float = 10000.0) -> np.ndarray:
    """2D rotary embedding as complex multiplication.

    The first half of the head dimensions (as consecutive pairs) turns by
    angle row * base^(-2i/d_half), the second half by col likewise.
    """
    n, d = x.shape
    half = d // 2
    out = np.empty_like(x)
    for lo, coord in ((0, rows), (half, cols)):
        part = x[:, lo : lo + half]
        z = part[:, 0::2] + 1j * part[:, 1::2]
        freqs = base ** (-np.arange(0, half, 2) / half)
        z = z * np.exp(1j * np.outer(coord.astype(np.float64), freqs))
        out[:, lo : lo + half : 2] = z.real
        out[:, lo + 1 : lo + half : 2] = z.imag
    return out


def isolated_attention(x, rows, cols, wq, wk, wv, wo):
    """One sample's single-head attention with 2D RoPE, no mask needed."""
    q = rope_2d(x @ wq, rows, cols)
    k = rope_2d(x @ wk, rows, cols)
    s = (q @ k.T) / math.sqrt(wq.shape[1])
    s -= s.max(axis=1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=1, keepdims=True)
    return p @ (x @ wv) @ wo


def vet_probs(features: np.ndarray, projection: np.ndarray):
    """Softmax of features @ projection at temperature 1 (the head's default)."""
    z = features @ projection
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# -------------------------------------------------------------- objectives


def pairs(scores: list[float], margin: float = 0.0) -> list[tuple[int, int, float]]:
    """Ordered (chosen, rejected, gap) with gap > margin, by -gap then index."""
    out = [
        (i, j, si - sj)
        for i, si in enumerate(scores)
        for j, sj in enumerate(scores)
        if si - sj > margin
    ]
    out.sort(key=lambda t: (-t[2], t[0], t[1]))
    return out


def softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def dpo(lp_c, lr_c, lp_r, lr_r, beta=0.1, nll_weight=0.0):
    """(loss, d_lp_c, d_lp_r, d_lr_c, d_lr_r) of the pinned DPO form."""
    z = beta * ((lp_c - lr_c) - (lp_r - lr_r))
    loss = softplus(-z) + nll_weight * (-lp_c)
    # d softplus(-z) / dz = -sigmoid(-z)
    sig = 1.0 / (1.0 + math.exp(z)) if z < 0 else math.exp(-z) / (1.0 + math.exp(-z))
    g = -beta * sig
    return loss, g - nll_weight, -g, -g, g


def grpo(rewards: list[float]) -> list[float]:
    n = len(rewards)
    mean = math.fsum(rewards) / n
    std = math.sqrt(math.fsum((r - mean) ** 2 for r in rewards) / n)
    return [(r - mean) / (std + GRPO_EPS) for r in rewards]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------ JSON schemas


class SchemaError(ValueError):
    pass


# JSON types as sets of Python types; bool is not an integer in JSON.
_TYPES = {
    "object": {dict},
    "array": {list},
    "string": {str},
    "integer": {int},
    "number": {int, float},
    "boolean": {bool},
    "null": {type(None)},
}


def compile_schema(schema: dict, root: dict | None = None):
    """Compile the JSON Schema subset used in schemas/ into a validator.

    Supports type, enum, minimum, maximum, exclusiveMinimum, minLength,
    properties, required, additionalProperties: false, items, prefixItems,
    minItems, maxItems, oneOf and local $ref. Unknown keywords raise, so
    a schema change cannot be skipped silently. The validator raises
    SchemaError naming the path of the first violation.
    """
    root = schema if root is None else root
    known = {
        "$schema", "$id", "title", "$defs", "type", "enum", "minimum", "maximum",
        "exclusiveMinimum", "minLength", "properties", "required",
        "additionalProperties", "items", "prefixItems", "minItems", "maxItems",
        "oneOf", "$ref",
    }
    unknown = set(schema) - known
    if unknown:
        raise ValueError(f"unsupported schema keywords {sorted(unknown)}")
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/"):
            raise ValueError(f"unsupported $ref {ref}")
        target = root
        for part in ref[2:].split("/"):
            target = target[part]
        return compile_schema(target, root)

    checks = []
    types = schema.get("type")
    if types is not None:
        names = [types] if isinstance(types, str) else list(types)
        allowed = set().union(*(_TYPES[t] for t in names))

        def check_type(v, path, allowed=allowed, names=names):
            if type(v) not in allowed:
                raise SchemaError(f"{path}: expected {names}, got {type(v).__name__}")

        checks.append(check_type)
    if "enum" in schema:
        allowed = schema["enum"]

        def check_enum(v, path):
            if v not in allowed:
                raise SchemaError(f"{path}: {v!r} not in enum")

        checks.append(check_enum)
    for kw, ok in (
        ("minimum", lambda v, b: v >= b),
        ("maximum", lambda v, b: v <= b),
        ("exclusiveMinimum", lambda v, b: v > b),
    ):
        if kw in schema:
            bound = schema[kw]

            def check_bound(v, path, kw=kw, ok=ok, bound=bound):
                if type(v) in (int, float) and not ok(v, bound):
                    raise SchemaError(f"{path}: {v!r} violates {kw} {bound}")

            checks.append(check_bound)
    if "minLength" in schema:
        n = schema["minLength"]

        def check_len(v, path):
            if type(v) is str and len(v) < n:
                raise SchemaError(f"{path}: shorter than {n}")

        checks.append(check_len)
    if "properties" in schema or "required" in schema or "additionalProperties" in schema:
        props = {k: compile_schema(s, root) for k, s in schema.get("properties", {}).items()}
        required = schema.get("required", [])
        closed = schema.get("additionalProperties", True) is False

        def check_obj(v, path):
            if type(v) is not dict:
                return
            for k in required:
                if k not in v:
                    raise SchemaError(f"{path}: missing {k!r}")
            for k, val in v.items():
                if k in props:
                    props[k](val, f"{path}.{k}")
                elif closed:
                    raise SchemaError(f"{path}: unexpected {k!r}")

        checks.append(check_obj)
    if any(k in schema for k in ("items", "prefixItems", "minItems", "maxItems")):
        prefix = [compile_schema(s, root) for s in schema.get("prefixItems", [])]
        item_schema = schema.get("items")
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        fast_int_min = None
        if item_schema is not None and set(item_schema) <= {"type", "minimum"} and item_schema.get("type") == "integer":
            fast_int_min = item_schema.get("minimum", -math.inf)
        items = compile_schema(item_schema, root) if item_schema is not None else None

        def check_arr(v, path):
            if type(v) is not list:
                return
            if not lo <= len(v) <= hi:
                raise SchemaError(f"{path}: {len(v)} items outside [{lo}, {hi}]")
            for i, (val, sub) in enumerate(zip(v, prefix)):
                sub(val, f"{path}[{i}]")
            rest = v[len(prefix):]
            if not rest or items is None:
                return
            if fast_int_min is not None:
                # Long integer arrays (position ids): same rule, checked in bulk.
                if set(map(type, rest)) == {int} and min(rest) >= fast_int_min:
                    return
            for i, val in enumerate(rest, start=len(prefix)):
                items(val, f"{path}[{i}]")

        checks.append(check_arr)
    if "oneOf" in schema:
        alts = [compile_schema(s, root) for s in schema["oneOf"]]

        def check_one(v, path):
            hits = 0
            for alt in alts:
                try:
                    alt(v, path)
                    hits += 1
                except SchemaError:
                    pass
            if hits != 1:
                raise SchemaError(f"{path}: matches {hits} oneOf branches")

        checks.append(check_one)

    if len(checks) == 1:
        return checks[0]

    def validate(v, path="$"):
        for c in checks:
            c(v, path)

    return validate


def load_validator(schema_dir: str, name: str):
    with open(os.path.join(schema_dir, f"{name}.schema.json"), encoding="utf-8") as f:
        return compile_schema(json.load(f))
