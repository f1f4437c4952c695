"""Resize planning against a brute-force grid-search oracle."""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from navit_pack import geometry
from navit_pack.geometry import (
    BudgetInfeasible,
    ImageSize,
    Phase,
    PixelBudget,
    ResizePlan,
    phase_budget,
    plan_resize,
)

SMALL = PixelBudget(min_pixels=64**2, max_pixels=160**2, patch_size=16)


def oracle_ideal(width, height, budget):
    """Recompute the clamp scale and real-valued grid from scratch."""
    area = width * height
    if area < budget.min_pixels:
        s = math.sqrt(budget.min_pixels / area)
    elif area > budget.max_pixels:
        s = math.sqrt(budget.max_pixels / area)
    else:
        s = 1.0
    return s * height / budget.patch_size, s * width / budget.patch_size


def oracle_key(rows, cols, ideal_rows, ideal_cols, aspect):
    grid_aspect = cols / rows
    distortion = max(grid_aspect / aspect, aspect / grid_aspect)
    dist = (rows - ideal_rows) ** 2 + (cols - ideal_cols) ** 2
    return (dist, distortion, rows * cols, rows)


def oracle_plan(width, height, budget):
    """Dumb full enumeration of every feasible grid, minimizing the key."""
    ideal_rows, ideal_cols = oracle_ideal(width, height, budget)
    aspect = width / height
    patch_area = budget.patch_size**2
    best = None
    best_key = None
    for rows in range(1, budget.max_pixels // patch_area + 1):
        cols = 1
        while rows * cols * patch_area <= budget.max_pixels:
            if rows * cols * patch_area >= budget.min_pixels:
                key = oracle_key(rows, cols, ideal_rows, ideal_cols, aspect)
                if best_key is None or key < best_key:
                    best, best_key = (rows, cols), key
            cols += 1
    return best


def oracle_plan_fast(width, height, budget):
    """Vectorized enumeration: per row count, only the columns nearest the
    ideal can win, so evaluating both roundings of the ideal column count
    per row covers every possible argmin."""
    ideal_rows, ideal_cols = oracle_ideal(width, height, budget)
    aspect = width / height
    patch_area = budget.patch_size**2
    rows = np.arange(1, budget.max_pixels // patch_area + 1)
    c_lo = np.maximum(1, -(-budget.min_pixels // (rows * patch_area)))
    c_hi = budget.max_pixels // (rows * patch_area)
    candidates = []
    for cols in (math.floor(ideal_cols), math.ceil(ideal_cols)):
        c = np.clip(cols, c_lo, c_hi)
        ok = c_lo <= c_hi
        candidates.append((rows[ok], c[ok]))
    r = np.concatenate([rc[0] for rc in candidates])
    c = np.concatenate([rc[1] for rc in candidates])
    if r.size == 0:
        return None
    dist = (r - ideal_rows) ** 2 + (c - ideal_cols) ** 2
    grid_aspect = c / r
    distortion = np.maximum(grid_aspect / aspect, aspect / grid_aspect)
    order = np.lexsort((r, r * c, distortion, dist))
    return int(r[order[0]]), int(c[order[0]])


class TestPhaseBudget:
    def test_p1_constants(self):
        b = phase_budget(Phase.P1)
        assert (b.min_pixels, b.max_pixels, b.patch_size) == (200704, 802816, 16)

    def test_p2_constants(self):
        b = phase_budget(Phase.P2)
        assert (b.min_pixels, b.max_pixels, b.patch_size) == (200704, 3211264, 16)

    def test_p3_equals_p2(self):
        assert phase_budget(Phase.P3) == phase_budget(Phase.P2)


class TestPlanResize:
    def test_identity_at_max_budget(self):
        plan = plan_resize(ImageSize(1792, 1792), phase_budget(Phase.P2))
        assert plan.target == ImageSize(1792, 1792)
        assert (plan.grid_rows, plan.grid_cols, plan.token_count) == (112, 112, 12544)

    def test_upscale_to_min_budget(self):
        plan = plan_resize(ImageSize(100, 100), phase_budget(Phase.P2))
        assert plan.target == ImageSize(448, 448)
        assert (plan.grid_rows, plan.grid_cols, plan.token_count) == (28, 28, 784)
        assert oracle_plan_fast(100, 100, phase_budget(Phase.P2)) == (28, 28)

    def test_in_budget_patch_multiple_unchanged(self):
        plan = plan_resize(ImageSize(896, 448), phase_budget(Phase.P1))
        assert plan.target == ImageSize(896, 448)
        assert (plan.grid_rows, plan.grid_cols, plan.token_count) == (28, 56, 1568)
        assert oracle_plan(896, 448, SMALL) == oracle_plan_fast(896, 448, SMALL)

    @pytest.mark.parametrize("rows,cols,expected", [(28, 28, 784), (1, 1, 1), (28, 56, 1568)])
    def test_token_count(self, rows, cols, expected):
        plan = ResizePlan(
            source=ImageSize(cols * 16, rows * 16), grid_rows=rows, grid_cols=cols, patch_size=16
        )
        assert plan.token_count == expected
        assert plan.target == ImageSize(cols * 16, rows * 16)

    def test_extreme_sliver_rejected(self):
        with pytest.raises(BudgetInfeasible):
            plan_resize(ImageSize(10000, 1), phase_budget(Phase.P1))
        with pytest.raises(BudgetInfeasible):
            plan_resize(ImageSize(1, 10000), phase_budget(Phase.P1))

    def test_empty_budget_rejected(self):
        # No integer patch count lands between these bounds.
        budget = PixelBudget(min_pixels=300, max_pixels=400, patch_size=16)
        with pytest.raises(BudgetInfeasible):
            plan_resize(ImageSize(100, 100), budget)

    def test_empty_budget_of_a_billion_rows_rejected_at_once(self):
        # Up to 10**9 rows of one patch column, yet no multiple of 256
        # lies in the budget: decided without visiting any row.
        budget = PixelBudget(min_pixels=256 * 10**9 + 1, max_pixels=256 * 10**9 + 255, patch_size=16)
        start = time.perf_counter()
        with pytest.raises(BudgetInfeasible, match=r"^no patch grid with side 16 fits \["):
            plan_resize(ImageSize(3, 5), budget)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "size, expected",
        [
            ((10**308, 1), "best grid 1x12544 distorts aspect by 7.97e+303x (> 2.0) for source 1e+308x1"),
            ((1, 10**308), "best grid 12544x1 distorts aspect by 7.97e+303x (> 2.0) for source 1x1e+308"),
        ],
    )
    def test_side_near_float_max_rejected_as_sliver(self, size, expected):
        # Every squared distance from the ideal overflows a float here.
        with pytest.raises(BudgetInfeasible) as e:
            plan_resize(ImageSize(*size), phase_budget(Phase.P2))
        assert str(e.value) == expected

    @pytest.mark.parametrize(
        "size", [(1920, 1080), (10**7, 1), (1, 10**7), (10**40, 1), (10**300, 3)]
    )
    def test_walk_ranks_few_grids(self, monkeypatch, size):
        # The walk stops each way after a row or two, slivers included.
        calls = []
        rank = geometry.grid_key

        def counted(*args):
            calls.append(args)
            return rank(*args)

        monkeypatch.setattr(geometry, "grid_key", counted)
        try:
            plan_resize(ImageSize(*size), phase_budget(Phase.P2))
        except BudgetInfeasible:
            pass
        assert 1 <= len(calls) <= 8

    def test_one_value_budget_far_from_snapped_grid(self):
        # One-value budget: only grids with exactly 784 patches fit, none
        # of which neighbour the snapped 40x20 grid for a 1:2 source.
        budget = PixelBudget(min_pixels=200704, max_pixels=200704, patch_size=16)
        plan = plan_resize(ImageSize(100, 200), budget)
        assert plan.grid_rows * plan.grid_cols == 784
        assert oracle_plan(100, 200, budget) == (plan.grid_rows, plan.grid_cols)

    @pytest.mark.parametrize("patches", [1_000_003, 10_000_019])
    def test_one_value_budget_of_a_prime_patch_count_at_once(self, patches):
        # Only rows 1 and `patches` fit, far apart around the ideal
        # ~sqrt(patches): the walk steps over the rows that do not fit.
        budget = PixelBudget(min_pixels=patches, max_pixels=patches, patch_size=1)
        start = time.perf_counter()
        with pytest.raises(BudgetInfeasible) as e:
            plan_resize(ImageSize(5, 5), budget)
        assert time.perf_counter() - start < 0.05
        assert str(e.value) == (
            f"best grid 1x{patches} distorts aspect by {patches}.000x (> 2.0) for source 5x5"
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_pixels": 500, "max_pixels": 400, "patch_size": 16},
            {"min_pixels": 100, "max_pixels": 400, "patch_size": 16},
            {"min_pixels": 256, "max_pixels": 400, "patch_size": 0},
        ],
    )
    def test_invalid_budget_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PixelBudget(**kwargs)

    def test_invalid_image_rejected(self):
        with pytest.raises(ValueError):
            ImageSize(0, 10)


class TestOracleEquivalence:
    def test_small_budget_grid_of_sources(self):
        # width, height in {1..64} * 16 against the dumb full enumeration
        rng = np.random.default_rng(7)
        for _ in range(120):
            w = int(rng.integers(1, 65)) * 16
            h = int(rng.integers(1, 65)) * 16
            expected = oracle_plan(w, h, SMALL)
            try:
                plan = plan_resize(ImageSize(w, h), SMALL)
            except BudgetInfeasible:
                rows, cols = expected
                assert oracle_key(
                    rows, cols, *oracle_ideal(w, h, SMALL), w / h
                )[1] > 2.0
                continue
            assert (plan.grid_rows, plan.grid_cols) == expected

    @given(
        w=st.integers(min_value=1, max_value=2000),
        h=st.integers(min_value=1, max_value=2000),
    )
    def test_arbitrary_sources_small_budget(self, w, h):
        try:
            plan = plan_resize(ImageSize(w, h), SMALL)
        except BudgetInfeasible:
            return
        assert (plan.grid_rows, plan.grid_cols) == oracle_plan(w, h, SMALL)

    def test_phase_budget_sources(self):
        rng = np.random.default_rng(11)
        for budget in (phase_budget(Phase.P1), phase_budget(Phase.P2)):
            for _ in range(60):
                w = int(rng.integers(16, 4000))
                h = int(rng.integers(16, 4000))
                try:
                    plan = plan_resize(ImageSize(w, h), budget)
                except BudgetInfeasible:
                    continue
                assert (plan.grid_rows, plan.grid_cols) == oracle_plan_fast(w, h, budget)

    @given(
        short=st.integers(min_value=1, max_value=4000),
        # Half the draws near the distortion limit (about 10^3.8 at P1
        # and 10^4.4 at P2).
        exponent=st.one_of(st.floats(3.5, 4.7), st.floats(2.0, 40.0)),
        wide=st.booleans(),
        phase=st.sampled_from([Phase.P1, Phase.P2]),
    )
    def test_slivers_and_near_infeasible_sources(self, short, exponent, wide, phase):
        # Aspect 10^2 to 10^40 either way: from grids a few rows high,
        # through sources near the distortion limit, to rejected slivers,
        # whose diagnostic names the grid the oracle ranks best.
        budget = phase_budget(phase)
        long = int(short * 10**exponent)
        w, h = (long, short) if wide else (short, long)
        rows, cols = oracle_plan_fast(w, h, budget)
        try:
            plan = plan_resize(ImageSize(w, h), budget)
        except BudgetInfeasible as e:
            assert str(e).startswith(f"best grid {rows}x{cols} distorts aspect by ")
            return
        assert (plan.grid_rows, plan.grid_cols) == (rows, cols)

    @given(
        w=st.integers(min_value=1, max_value=100_000),
        h=st.integers(min_value=1, max_value=100_000),
        patch=st.integers(min_value=1, max_value=32),
        lo_patches=st.integers(min_value=1, max_value=4096),
        extra_patches=st.one_of(st.just(0), st.integers(min_value=0, max_value=4096)),
        lo_offset=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        hi_offset=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        one_value=st.booleans(),
    )
    def test_random_budgets(
        self, w, h, patch, lo_patches, extra_patches, lo_offset, hi_offset, one_value
    ):
        # Bounds are whole patch areas plus offsets below one patch area, so
        # the draws cover one-value budgets, budgets that only a few
        # (possibly distorted) grids fit, and budgets that no grid fits.
        area = patch * patch
        min_pixels = lo_patches * area + int(lo_offset * area)
        max_pixels = min(lo_patches + extra_patches, 4096) * area + int(hi_offset * area)
        if one_value or max_pixels < min_pixels:
            max_pixels = min_pixels
        budget = PixelBudget(min_pixels=min_pixels, max_pixels=max_pixels, patch_size=patch)
        expected = oracle_plan(w, h, budget)
        try:
            plan = plan_resize(ImageSize(w, h), budget)
        except BudgetInfeasible:
            if expected is not None:
                ideal = oracle_ideal(w, h, budget)
                assert oracle_key(*expected, *ideal, w / h)[1] > 2.0
            return
        assert (plan.grid_rows, plan.grid_cols) == expected


    @given(
        w=st.integers(min_value=1, max_value=10**6),
        h=st.integers(min_value=1, max_value=10**6),
        patch=st.integers(min_value=1, max_value=16),
        lo_patches=st.integers(min_value=1, max_value=200_000),
        extra_pixels=st.one_of(st.just(0), st.integers(min_value=0, max_value=3 * 256)),
    )
    def test_one_value_and_narrow_budgets_of_many_rows(
        self, w, h, patch, lo_patches, extra_pixels
    ):
        # Up to 200k rows, of which only the divisors of a few patch
        # counts fit: the walk against the vectorized oracle.
        min_pixels = lo_patches * patch * patch
        budget = PixelBudget(min_pixels, min_pixels + extra_pixels, patch)
        expected = oracle_plan_fast(w, h, budget)
        try:
            plan = plan_resize(ImageSize(w, h), budget)
        except BudgetInfeasible as e:
            rows, cols = expected
            assert str(e).startswith(f"best grid {rows}x{cols} distorts aspect by ")
            return
        assert (plan.grid_rows, plan.grid_cols) == expected


class TestInvariants:
    @given(
        w=st.integers(min_value=1, max_value=5000),
        h=st.integers(min_value=1, max_value=5000),
        phase=st.sampled_from([Phase.P1, Phase.P2]),
    )
    def test_budget_and_patch_multiples(self, w, h, phase):
        budget = phase_budget(phase)
        try:
            plan = plan_resize(ImageSize(w, h), budget)
        except BudgetInfeasible:
            return
        pixels = plan.target.pixels
        assert budget.min_pixels <= pixels <= budget.max_pixels
        assert plan.target.width % budget.patch_size == 0
        assert plan.target.height % budget.patch_size == 0
        assert plan.token_count == plan.grid_rows * plan.grid_cols

    def test_uniform_scale_bound(self):
        # Moderate aspect ratios: each side ends within 1.5 patches of the
        # single-scale ideal (0.5 from rounding plus at most one clamp).
        rng = np.random.default_rng(23)
        for _ in range(200):
            h = int(rng.integers(32, 4000))
            w = int(h * rng.uniform(0.25, 4.0)) or 1
            budget = phase_budget(Phase.P2)
            plan = plan_resize(ImageSize(w, h), budget)
            ideal_rows, ideal_cols = oracle_ideal(w, h, budget)
            assert abs(plan.grid_rows - ideal_rows) <= 1.5 + 1e-9
            assert abs(plan.grid_cols - ideal_cols) <= 1.5 + 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        budget = phase_budget(Phase.P1)
        for _ in range(100):
            w = int(rng.integers(1, 3000))
            h = int(rng.integers(1, 3000))
            try:
                plan = plan_resize(ImageSize(w, h), budget)
            except BudgetInfeasible:
                continue
            again = plan_resize(plan.target, budget)
            assert again.target == plan.target

    def test_monotone_in_source_area(self):
        budget = phase_budget(Phase.P1)
        slack_cache = None
        previous = None
        for k in range(1, 120):
            plan = plan_resize(ImageSize(3 * k, 2 * k), budget)
            pixels = plan.target.pixels
            slack = (plan.grid_rows + plan.grid_cols + 1) * budget.patch_size**2
            if previous is not None:
                assert pixels >= previous - max(slack, slack_cache)
            previous, slack_cache = pixels, slack
