"""Aspect-preserving resize planning into a pixel budget.

Images are never resampled here; this module only decides target
dimensions. A target is always a whole number of patches per side, its
total pixel count lies inside the budget, and both sides are scaled by
a single factor before snapping to the patch grid.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .records import _Value

__all__ = [
    "BudgetInfeasible",
    "ImageSize",
    "PixelBudget",
    "Phase",
    "ResizePlan",
    "DEFAULT_MAX_DISTORTION",
    "clamp_scale",
    "grid_key",
    "phase_budget",
    "plan_resize",
    "relative_distortion",
]

# Targets whose aspect ratio is off from the source by more than this
# factor are rejected as degenerate (e.g. extreme slivers whose short
# side collapsed to the one-patch minimum).
DEFAULT_MAX_DISTORTION = 2.0


class BudgetInfeasible(ValueError):
    """No acceptable patch grid exists for this source under this budget."""


class Phase(enum.Enum):
    """Training phases with progressively wider resolution ranges."""

    P1 = "p1"
    P2 = "p2"
    P3 = "p3"


class ImageSize(namedtuple("ImageSize", "width height"), _Value):
    __slots__ = ()

    def __new__(cls, width: int, height: int) -> ImageSize:
        if width < 1 or height < 1:
            raise ValueError(f"image sides must be >= 1, got {width}x{height}")
        return tuple.__new__(cls, (width, height))

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def aspect(self) -> float:
        return self.width / self.height


class PixelBudget(namedtuple("PixelBudget", "min_pixels max_pixels patch_size"), _Value):
    """Closed interval of allowed total pixel counts plus the patch side."""

    __slots__ = ()

    def __new__(cls, min_pixels: int, max_pixels: int, patch_size: int) -> PixelBudget:
        if patch_size < 1:
            raise ValueError(f"patch_size must be >= 1, got {patch_size}")
        if min_pixels > max_pixels:
            raise ValueError(f"min_pixels {min_pixels} exceeds max_pixels {max_pixels}")
        if min_pixels < patch_size**2:
            raise ValueError(
                f"min_pixels {min_pixels} is below one patch "
                f"({patch_size}^2 = {patch_size ** 2})"
            )
        return tuple.__new__(cls, (min_pixels, max_pixels, patch_size))


class ResizePlan(namedtuple("ResizePlan", "source grid_rows grid_cols patch_size"), _Value):
    """Planned patch grid for one image. Stored: `source`, the grid and the
    patch side. Computed: `target` (the grid times the side), `token_count`."""

    __slots__ = ()

    def __new__(
        cls, source: ImageSize, grid_rows: int, grid_cols: int, patch_size: int
    ) -> ResizePlan:
        if grid_rows < 1 or grid_cols < 1:
            raise ValueError("grid must have at least one patch per side")
        return tuple.__new__(cls, (source, grid_rows, grid_cols, patch_size))

    @property
    def target(self) -> ImageSize:
        """Planned target dimensions: whole patches on both sides."""
        return ImageSize(self.grid_cols * self.patch_size, self.grid_rows * self.patch_size)

    @property
    def token_count(self) -> int:
        """Number of patch tokens the planned target produces."""
        return self.grid_rows * self.grid_cols


def phase_budget(phase: Phase) -> PixelBudget:
    """Pixel budget for a training phase.

    Phase P1 allows 448^2 .. 896^2 total pixels; P2 widens the ceiling to
    1792^2 and P3 keeps P2's range. Patch side is 16 throughout.
    """
    if phase is Phase.P1:
        return PixelBudget(min_pixels=448**2, max_pixels=896**2, patch_size=16)
    if phase in (Phase.P2, Phase.P3):
        return PixelBudget(min_pixels=448**2, max_pixels=1792**2, patch_size=16)
    raise ValueError(f"unknown phase: {phase!r}")


def clamp_scale(source: ImageSize, budget: PixelBudget) -> float:
    """Uniform scale factor that moves the source area into the budget.

    Returns 1.0 when the source already fits; otherwise the single factor
    that lands the scaled area exactly on the violated bound.
    """
    area = source.pixels
    if area < budget.min_pixels:
        return math.sqrt(budget.min_pixels / area)
    if area > budget.max_pixels:
        return math.sqrt(budget.max_pixels / area)
    return 1.0


def grid_key(
    rows: int, cols: int, ideal_rows: float, ideal_cols: float, source_aspect: float
) -> tuple[float, float, int, int]:
    """Ranking key for candidate grids; lower is better.

    Ordered by (1) squared distance from the ideal real-valued grid, i.e.
    how far snapping moved each side, (2) relative aspect distortion,
    (3) token count, (4) rows. The trailing components break exact ties
    deterministically.
    """
    dist = (rows - ideal_rows) ** 2 + (cols - ideal_cols) ** 2
    return dist, relative_distortion(rows, cols, source_aspect), rows * cols, rows


def relative_distortion(rows: int, cols: int, source_aspect: float) -> float:
    """Factor by which the grid's aspect ratio deviates from the source's (>= 1)."""
    grid_aspect = cols / rows
    if grid_aspect >= source_aspect:
        return grid_aspect / source_aspect
    return source_aspect / grid_aspect


def _fitting_row(r: int, step: int, n_lo: int, n_hi: int) -> int:
    """The first row count from `r` on, walking by `step` (+1 or -1), that
    holds a grid of between `n_lo` and `n_hi` patches; past the end, 0 or
    a count above `n_hi`.

    Row r fits exactly when q * r >= n_lo for q = n_hi // r, the most
    columns it can hold, that is when r >= ceil(n_lo / q). q only shrinks
    as r grows, so a row that does not fit steps up straight to
    ceil(n_lo / q), or down to the last row of the next larger q: one
    step per value of q, about 2 * sqrt(n_hi) at most.
    """
    while 1 <= r <= n_hi:
        q = n_hi // r
        first = -(-n_lo // q)  # ceil div
        if r >= first:
            return r
        r = first if step > 0 else n_hi // (q + 1)
    return r


def _best_grid(source: ImageSize, budget: PixelBudget) -> tuple[tuple, int, int]:
    """The feasible grid that `grid_key` ranks best, as (key, rows, cols).

    Only the floor and ceiling of `ideal_cols`, clamped into the columns
    [c_lo, c_hi] that fit, can win at a row count. Rows that fit are
    walked from the ideal's floor down, where c_lo grows, then up, where
    c_hi shrinks; `gap` is how far that limit lies past the ideal. A
    direction stops at a row whose squared distance at a positive gap, a
    bound on every row further out, is above the best (ties still go to
    `grid_key`), or after a row with gap >= 0: rows past it are farther
    and more distorted. Rows that do not fit are stepped over a q group at
    a time (`_fitting_row`); they cannot win, and the bound only grows
    outward, so skipping them stops the walk at the same grid.
    """
    patch_area = budget.patch_size**2
    n_lo = -(-budget.min_pixels // patch_area)  # ceil div
    n_hi = budget.max_pixels // patch_area  # also the most rows
    if n_hi < n_lo:  # row 1 fits every patch count
        raise BudgetInfeasible(
            f"no patch grid with side {budget.patch_size} fits "
            f"[{budget.min_pixels}, {budget.max_pixels}] pixels"
        )
    scale = clamp_scale(source, budget)  # the ideal grid: real-valued, before snapping
    ideal_rows = scale * source.height / budget.patch_size
    ideal_cols = scale * source.width / budget.patch_size
    floor_cols, ceil_cols = math.floor(ideal_cols), math.ceil(ideal_cols)
    aspect = source.aspect
    start = min(max(math.floor(ideal_rows), 1), n_hi)
    best = None
    for step, r in ((-1, start), (1, start + 1)):
        while 1 <= (r := _fitting_row(r, step, n_lo, n_hi)) <= n_hi:
            c_lo, c_hi = -(-n_lo // r), n_hi // r
            gap = c_lo - ideal_cols if step < 0 else ideal_cols - c_hi
            try:
                bound = (r - ideal_rows) ** 2 + max(gap, 0.0) ** 2
            except OverflowError:  # a side ~1e154 patches off: infinitely far
                bound = math.inf
            if best is not None and bound > best[0][0]:
                break
            low, high = min(max(floor_cols, c_lo), c_hi), min(max(ceil_cols, c_lo), c_hi)
            for c in (low,) if low == high else (low, high):
                try:
                    key = grid_key(r, c, ideal_rows, ideal_cols, aspect)
                except OverflowError:
                    key = math.inf, relative_distortion(r, c, aspect), r * c, r
                if best is None or key < best[0]:
                    best = key, r, c
            if gap >= 0:
                break
            r += step
    return best


def _short(value: float, spec: str = "") -> str:
    """`value` as a diagnostic writes it: in exponent form (`1e+300`) above
    1e15, so that a huge side or factor stays a few characters long."""
    return f"{value:.3g}" if value > 1e15 else format(value, spec)


def plan_resize(source: ImageSize, budget: PixelBudget) -> ResizePlan:
    """Plan an aspect-preserving resize of `source` into `budget`.

    Both sides are multiplied by the single clamp scale, which gives a
    real-valued ideal grid. The feasible grid `grid_key` ranks best wins,
    as an exhaustive search finds it: `_best_grid` walks the row counts
    out from the ideal's and stops each way once none further out can
    rank better. Raises BudgetInfeasible when no grid fits the budget, or
    when the best grid's aspect is off by more than DEFAULT_MAX_DISTORTION.
    """
    (_, distortion, _, _), rows, cols = _best_grid(source, budget)
    if distortion > DEFAULT_MAX_DISTORTION:
        raise BudgetInfeasible(
            f"best grid {rows}x{cols} distorts aspect by {_short(distortion, '.3f')}x "
            f"(> {DEFAULT_MAX_DISTORTION}) for source "
            f"{_short(source.width)}x{_short(source.height)}"
        )
    return ResizePlan(source, rows, cols, budget.patch_size)
