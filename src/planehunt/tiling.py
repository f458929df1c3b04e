"""Sector-aligned square tilings and the tile columns a sweep must visit.

In the frame whose +x axis is the clockwise boundary ray, the size-z advice
sector truncated to the disc of radius D around the apex is the set {(x, y):
x >= 0, 0 <= y, y <= x*tan(phi) when phi < pi/2, x^2 + y^2 <= D^2}, with
wedge angle phi = 2*pi/2**z.  Tiles are squares of the vision-radius size
anchored at the apex and aligned to that ray.  Column u covers the strip
[u*r, (u+1)*r]; its height v_max is the highest tile row that overlaps the
region in more than a boundary graze (v*r strictly below the strip's maximum
region height), which keeps every region point covered while excluding
zero-area corner touches.  ``column_heights`` is the one source of columns;
``sector_columns`` is the guarded walk over all of them that both
``count_tiles`` and ``traversal.basic_cost`` fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .advice import check_advice
from .errors import BudgetExceededError, PreconditionError, positive_finite
from .geom import Point2, direction_of

# Hard guard: column enumerations beyond this raise instead of approximating.
MAX_COLUMNS = 10**7

# Columns (or spiral instructions) per piece, in every walk over them and every stream block.
STREAM_CHUNK = 4096


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


def column_count(radius: float, r: float) -> int:
    """ceil(radius / r): tile columns of a wedge, or spiral turns of a disc."""
    r, radius = positive_finite("vision radius", r), positive_finite("range bound", radius)
    if r > radius:
        raise PreconditionError(f"tile size {r} exceeds region radius {radius}")
    return math.ceil(radius / r)


def column_heights(wedge_angle: float, radius: float, r: float, u_lo: int, u_hi: int) -> np.ndarray:
    """v_max for columns u in [u_lo, u_hi), as an int64 array.

    The strip's maximum region height is the max over x of
    min(x*tan(phi), sqrt(radius^2 - x^2)); the rising piece peaks at the strip's
    right edge, the falling one at its left, and the crossover at radius*cos(phi).
    A quarter-turn wedge has no upper-ray constraint.  Both strip edges grow
    with u, so the columns whose right edge lies at or before the crossover come
    first, and those whose left edge lies at or past it last; each formula is
    evaluated on its own range of columns only.
    """
    u = np.arange(u_lo, u_hi, dtype=np.float64)
    rr = radius * radius
    if wedge_angle >= math.pi / 2.0:
        x_lo = u * r
        y_max = np.sqrt(np.maximum(rr - x_lo * x_lo, 0.0))
    else:
        tan_w = math.tan(wedge_angle)
        x_cross = radius * math.cos(wedge_angle)
        y_peak = radius * math.sin(wedge_angle)
        y_max = u + 1.0
        y_max *= r
        np.minimum(y_max, radius, out=y_max)  # x_hi
        rising = int(np.searchsorted(y_max, x_cross, side="right"))  # x_hi <= x_cross
        u *= r  # x_lo
        falling = max(rising, int(np.searchsorted(u, x_cross, side="left")))  # x_lo >= x_cross
        y_max[:rising] *= tan_w
        y_max[rising:falling] = y_peak
        x_lo = u[falling:]
        x_lo *= x_lo
        np.subtract(rr, x_lo, out=x_lo)
        np.maximum(x_lo, 0.0, out=x_lo)
        np.sqrt(x_lo, out=y_max[falling:])
    y_max /= r
    np.ceil(y_max, out=y_max)
    v = y_max.astype(np.int64)
    v -= 1
    return np.maximum(v, 0, out=v)


def sector_columns(z: int, D: float, r: float) -> Iterator[np.ndarray]:
    """``column_heights`` of every column of the size-z sector, in STREAM_CHUNK pieces from u = 0.

    Validates eagerly: z >= 2 (a wedge of at most pi/2) and a column count
    within MAX_COLUMNS.
    """
    z, r, D = check_advice(z), positive_finite("vision radius", r), positive_finite("range bound", D)
    if z <= 1:
        raise PreconditionError("tile columns need a wedge angle of at most pi/2")
    n = column_count(D, r)
    if n > MAX_COLUMNS:
        raise BudgetExceededError(f"{n} columns exceed the {MAX_COLUMNS} column guard")
    wedge = math.tau / float(1 << z)
    return (column_heights(wedge, D, r, lo, min(lo + STREAM_CHUNK, n)) for lo in range(0, n, STREAM_CHUNK))


def count_tiles(z: int, D: float, r: float) -> int:
    """Number of tiles the size-z sector truncated at D meets: the sum of (v_max + 1)."""
    return sum(int(np.sum(heights + 1)) for heights in sector_columns(z, D, r))
