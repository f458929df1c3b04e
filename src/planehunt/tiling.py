"""Sector-aligned square tilings and the tile columns a sweep must visit.

A wedge region is the intersection of an advice sector with the disc of a
given radius around the apex.  In the frame whose +x axis is the clockwise
boundary ray, the region is {(x, y): x >= 0, 0 <= y, y <= x*tan(phi) when
phi < pi/2, x^2 + y^2 <= radius^2}.  Tiles are squares of the vision-radius
size anchored at the apex and aligned to that ray.  Column u covers the strip
[u*r, (u+1)*r]; its height v_max is the highest tile row that overlaps the
region in more than a boundary graze (v*r strictly below the strip's maximum
region height), which keeps every region point covered while excluding
zero-area corner touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple

import numpy as np

from .advice import SectorSpec
from .errors import BudgetExceededError, PreconditionError
from .geom import Point2, direction_of

# Hard guard: column enumerations beyond this raise instead of approximating.
MAX_COLUMNS = 10**7

_CHUNK = 1 << 18


class ColumnRange(NamedTuple):
    """One tile column: index u along the clockwise ray, highest row v_max."""

    u: int
    v_max: int


@dataclass(frozen=True)
class WedgeRegion:
    """Advice sector truncated to the disc of the given radius."""

    apex: Point2
    cw_ray_angle: float
    wedge_angle: float
    radius: float

    def __post_init__(self) -> None:
        if not (0.0 < self.wedge_angle <= math.tau):
            raise PreconditionError("wedge angle must lie in (0, 2*pi]")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise PreconditionError("wedge radius must be positive and finite")


def region_of_sector(sector: SectorSpec, radius: float) -> WedgeRegion:
    return WedgeRegion(
        apex=sector.apex,
        cw_ray_angle=sector.cw_ray_angle,
        wedge_angle=sector.wedge_angle,
        radius=float(radius),
    )


@dataclass(frozen=True)
class TileFrame:
    """Isometry between world coordinates and the tiling frame of a sector.

    The frame maps the apex to the origin and the clockwise boundary ray to
    the +x axis, with the sector in the upper half-plane.  Tile (u, v) is the
    square [u*r, (u+1)*r] x [v*r, (v+1)*r] in frame coordinates.
    """

    apex: Point2
    cw_ray_angle: float
    tile_size: float

    def basis(self) -> tuple[tuple[float, float], tuple[float, float]]:
        xhat = direction_of(self.cw_ray_angle)
        yhat = (-xhat[1], xhat[0])  # xhat rotated a quarter turn counterclockwise
        return xhat, yhat

    def to_world(self, frame_pts: np.ndarray) -> np.ndarray:
        (xx, xy), (yx, yy) = self.basis()
        pts = np.asarray(frame_pts, dtype=np.float64)
        out = np.empty_like(pts)
        out[:, 0] = self.apex.x + pts[:, 0] * xx + pts[:, 1] * yx
        out[:, 1] = self.apex.y + pts[:, 0] * xy + pts[:, 1] * yy
        return out

    def to_frame(self, world_pts: np.ndarray) -> np.ndarray:
        (xx, xy), (yx, yy) = self.basis()
        pts = np.asarray(world_pts, dtype=np.float64)
        dx = pts[:, 0] - self.apex.x
        dy = pts[:, 1] - self.apex.y
        out = np.empty_like(pts)
        out[:, 0] = dx * xx + dy * xy
        out[:, 1] = dx * yx + dy * yy
        return out


def _check_tile_size(radius: float, r: float) -> None:
    if not (r > 0.0 and math.isfinite(r)):
        raise PreconditionError("tile size must be positive and finite")
    if r > radius:
        raise PreconditionError(f"tile size {r} exceeds region radius {radius}")


def column_count(radius: float, r: float) -> int:
    _check_tile_size(radius, r)
    return math.ceil(radius / r)


def column_heights(wedge_angle: float, radius: float, r: float, u_lo: int, u_hi: int) -> np.ndarray:
    """v_max for columns u in [u_lo, u_hi), as an int64 array.

    The strip's maximum region height is the max over x of
    min(x*tan(phi), sqrt(radius^2 - x^2)); the rising piece peaks at the strip's
    right edge, the falling one at its left, and the crossover at radius*cos(phi).
    A quarter-turn wedge has no upper-ray constraint.
    """
    u = np.arange(u_lo, u_hi, dtype=np.float64)
    x_lo = u * r
    x_hi = np.minimum((u + 1.0) * r, radius)
    rr = radius * radius
    y_arc = np.sqrt(np.maximum(rr - x_lo * x_lo, 0.0))
    if wedge_angle >= math.pi / 2.0:
        y_max = y_arc
    else:
        tan_w = math.tan(wedge_angle)
        x_cross = radius * math.cos(wedge_angle)
        y_peak = radius * math.sin(wedge_angle)
        y_max = np.where(x_hi <= x_cross, x_hi * tan_w, np.where(x_lo >= x_cross, y_arc, y_peak))
    v = np.ceil(y_max / r).astype(np.int64) - 1
    return np.maximum(v, 0)


def column_height_chunks(wedge_angle: float, radius: float, r: float) -> Iterator[tuple[int, np.ndarray]]:
    """(u_lo, column_heights) over all columns of a wedge, in chunks from u = 0.

    Validates eagerly: the wedge angle must be at most pi/2 and the column
    count within MAX_COLUMNS.
    """
    if wedge_angle > math.pi / 2.0:
        raise PreconditionError("tile columns need a wedge angle of at most pi/2")
    n = column_count(radius, r)
    if n > MAX_COLUMNS:
        raise BudgetExceededError(f"{n} columns exceed the {MAX_COLUMNS} column guard")
    return (
        (lo, column_heights(wedge_angle, radius, r, lo, min(lo + _CHUNK, n)))
        for lo in range(0, n, _CHUNK)
    )


def enumerate_columns(region: WedgeRegion, r: float) -> List[ColumnRange]:
    """All tile columns meeting the region, contiguous from u = 0."""
    return [
        ColumnRange(lo + i, int(v))
        for lo, heights in column_height_chunks(region.wedge_angle, region.radius, r)
        for i, v in enumerate(heights)
    ]


def count_tiles(region: WedgeRegion, r: float) -> int:
    """Number of tiles over all columns: sum of (v_max + 1)."""
    chunks = column_height_chunks(region.wedge_angle, region.radius, r)
    return sum(int(np.sum(heights + 1)) for _, heights in chunks)
