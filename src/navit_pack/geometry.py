"""Aspect-preserving resize planning into a pixel budget.

Images are never resampled here; this module only decides target
dimensions. A target is always a whole number of patches per side, its
total pixel count lies inside the budget, and both sides are scaled by
a single factor before snapping to the patch grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ImageSize:
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image sides must be >= 1, got {self.width}x{self.height}")

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def aspect(self) -> float:
        return self.width / self.height


@dataclass(frozen=True)
class PixelBudget:
    """Closed interval of allowed total pixel counts plus the patch side."""

    min_pixels: int
    max_pixels: int
    patch_size: int

    def __post_init__(self) -> None:
        if self.patch_size < 1:
            raise ValueError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.min_pixels > self.max_pixels:
            raise ValueError(
                f"min_pixels {self.min_pixels} exceeds max_pixels {self.max_pixels}"
            )
        if self.min_pixels < self.patch_size**2:
            raise ValueError(
                f"min_pixels {self.min_pixels} is below one patch "
                f"({self.patch_size}^2 = {self.patch_size ** 2})"
            )


@dataclass(frozen=True)
class ResizePlan:
    """Planned target dimensions and patch grid for one image."""

    source: ImageSize
    target: ImageSize
    grid_rows: int
    grid_cols: int

    def __post_init__(self) -> None:
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid must have at least one patch per side")
        if self.target.width % self.grid_cols or self.target.height % self.grid_rows:
            raise ValueError("target sides must be whole multiples of the patch size")
        if self.target.width // self.grid_cols != self.target.height // self.grid_rows:
            raise ValueError("row and column patch sizes differ")

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


def _ideal_grid(source: ImageSize, budget: PixelBudget) -> tuple[float, float]:
    """Real-valued (rows, cols) the uniform scale would produce before snapping."""
    s = clamp_scale(source, budget)
    return s * source.height / budget.patch_size, s * source.width / budget.patch_size


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


def _best_grid(
    rows: range, budget: PixelBudget, ideal_rows: float, ideal_cols: float, aspect: float
) -> tuple[tuple[float, float, int, int], int, int] | None:
    """The feasible grid with a row count in `rows` that `grid_key` ranks
    best, as (key, rows, cols), or None when none of them fits the budget.

    For one row count the column counts that fit form an interval, and
    the squared distance to the ideal is smallest at the one nearest
    `ideal_cols`: its floor or ceiling clamped into the interval. Only
    those two can tie on distance, so they are the only candidates.
    """
    patch_area = budget.patch_size**2
    floor_cols, ceil_cols = math.floor(ideal_cols), math.ceil(ideal_cols)
    best = None
    for r in rows:
        c_lo = max(1, -(-budget.min_pixels // (r * patch_area)))  # ceil div
        c_hi = budget.max_pixels // (r * patch_area)
        if c_lo > c_hi:
            continue
        for c in {min(max(floor_cols, c_lo), c_hi), min(max(ceil_cols, c_lo), c_hi)}:
            key = grid_key(r, c, ideal_rows, ideal_cols, aspect)
            if best is None or key < best[0]:
                best = key, r, c
    return best


def _short(value: float, spec: str = "") -> str:
    """`value` as a diagnostic writes it: in exponent form (`1e+300`) above
    1e15, so that a huge side or factor stays a few characters long."""
    return f"{value:.3g}" if value > 1e15 else format(value, spec)


def plan_resize(source: ImageSize, budget: PixelBudget) -> ResizePlan:
    """Plan an aspect-preserving resize of `source` into `budget`.

    Both sides are multiplied by the single clamp scale, which gives a
    real-valued ideal grid. The feasible grid that `grid_key` ranks best
    wins: the same grid an exhaustive search under that key finds. For
    each row count only two column counts can win, the floor and the
    ceiling of the ideal column count, each clamped into the column
    counts that fit the budget at that row count. The search first tries
    the row counts from one below the ideal's floor to one above its
    ceiling. Every other row count is at least 2 from the ideal, so only
    when those give no grid within squared distance 4 does it try every
    row count.

    Raises BudgetInfeasible when no grid fits the budget at all, or when
    the best grid's aspect ratio is off by more than
    DEFAULT_MAX_DISTORTION (degenerate slivers).
    """
    ideal_rows, ideal_cols = _ideal_grid(source, budget)
    aspect = source.aspect
    near = range(max(1, math.floor(ideal_rows) - 1), math.ceil(ideal_rows) + 2)
    best = _best_grid(near, budget, ideal_rows, ideal_cols, aspect)
    if best is None or best[0][0] >= 4.0:
        all_rows = range(1, budget.max_pixels // budget.patch_size**2 + 1)
        best = _best_grid(all_rows, budget, ideal_rows, ideal_cols, aspect)
    if best is None:
        raise BudgetInfeasible(
            f"no patch grid with side {budget.patch_size} fits "
            f"[{budget.min_pixels}, {budget.max_pixels}] pixels"
        )

    (_, distortion, _, _), rows, cols = best
    if distortion > DEFAULT_MAX_DISTORTION:
        raise BudgetInfeasible(
            f"best grid {rows}x{cols} distorts aspect by {_short(distortion, '.3f')}x "
            f"(> {DEFAULT_MAX_DISTORTION}) for source "
            f"{_short(source.width)}x{_short(source.height)}"
        )
    return ResizePlan(
        source=source,
        target=ImageSize(width=cols * budget.patch_size, height=rows * budget.patch_size),
        grid_rows=rows,
        grid_cols=cols,
    )
