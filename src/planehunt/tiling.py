"""Sector-aligned square tilings and the tile columns a sweep must visit.

In the frame whose +x axis is the clockwise boundary ray, the size-z advice
sector truncated to the disc of radius D around the apex is the set {(x, y):
x >= 0, 0 <= y, y <= x*tan(phi) when phi < pi/2, x^2 + y^2 <= D^2}, with
wedge angle phi = 2*pi/2**z.  Tiles are squares of the vision-radius size
anchored at the apex and aligned to that ray.  Column u covers the strip
[u*r, (u+1)*r]; its height v_max is the highest tile row that overlaps the
region in more than a boundary graze (v*r strictly below the strip's maximum
region height), which keeps every region point covered while excluding
zero-area corner touches.  ``column_heights`` is the one source of columns.

``height_sum`` adds up a range of heights, bit for bit their array's sum,
without building the columns of the wedge's rising range where it can prove
their heights: there v_max + 1 = ceil(fl(fl(fl(u+1) r) tan(phi)) / r), within
three roundings of ceil((u+1) p/q) for tan(phi) = p/q, and one exact floor
sum of that dyadic rational certifies that no rounding crosses an integer
(``_rising_sum``).  Every other column is summed from ``column_heights`` in
STREAM_CHUNK pieces.  ``wedge_columns`` is the guarded wedge angle and column
count of a whole sector, which ``sector_columns``, ``count_tiles`` and
``traversal.basic_cost`` read.
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


def _scaled(radius: float, r: float) -> tuple[float, float]:
    """radius and r scaled by 2^-600 when radius exceeds 2^500.  A power-of-two
    scale is exact, so it moves no height: each one is a ratio of lengths."""
    if radius > 2.0**500:
        return radius * 2.0**-600, r * 2.0**-600
    return radius, r


def column_heights(wedge_angle: float, radius: float, r: float, u_lo: int, u_hi: int) -> np.ndarray:
    """v_max for columns u in [u_lo, u_hi), as an int64 array.

    The strip's maximum region height is the max over x of
    min(x*tan(phi), sqrt(radius^2 - x^2)); the rising piece peaks at the strip's
    right edge, the falling one at its left, and the crossover at radius*cos(phi).
    A quarter-turn wedge has no upper-ray constraint.  Both strip edges grow
    with u, so the columns whose right edge lies at or before the crossover come
    first, and those whose left edge lies at or past it last; each formula is
    evaluated on its own range of columns only.  A radius past 2^500 is read
    scaled (``_scaled``), so that radius^2 and (u+1) r stay finite.
    """
    radius, r = _scaled(radius, r)
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


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a*i + b) / m) over i in [0, n), for m > 0, in O(log m)
    integer steps: the floor sum of the AtCoder Library, on Python ints."""
    total = 0
    while True:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _rising_sum(tan_w: float, lo: int, hi: int) -> int | None:
    """The sum of ``column_heights`` over rising columns U - 1 for U in [lo, hi),
    or None when rounding might move one of them.

    With tan_w = p/q exactly, a column's height is ceil(y) - 1 for y =
    fl(fl(fl(U r) tan_w) / r), three roundings of U p/q, so |y q - U p| <
    U p 2^-51 <= K.  When no U p lies within K of a multiple of q, y sits
    strictly inside the same unit interval as U p/q, and the height is
    floor((U p + K) / q).  The two floor sums below agree exactly when that
    holds for every U: each of their terms differs by the multiples of q in
    [U p - K, U p + K].  Valid only while every rounded value is normal.
    """
    p, q = tan_w.as_integer_ratio()
    n, k = hi - lo, -(-(hi - 1) * p >> 51)
    above = _floor_sum(n, q, p, lo * p + k)
    return above if above == _floor_sum(n, q, p, lo * p - k - 1) else None


def height_sum(wedge_angle: float, radius: float, r: float, u_lo: int, u_hi: int) -> int:
    """``int(column_heights(wedge_angle, radius, r, u_lo, u_hi).sum())``, as a Python int.

    A range of at least STREAM_CHUNK columns adds its rising columns (right
    edge at or before the crossover) with ``_rising_sum`` and builds none of
    them, unless the certificate refuses; a shorter range costs less as an
    array.  The rest is summed from ``column_heights`` arrays of at most
    STREAM_CHUNK columns, which bound the memory of a long range.
    """
    radius, r = _scaled(radius, r)
    total, lo = 0, u_lo
    if wedge_angle < math.pi / 2.0 and u_hi - u_lo >= STREAM_CHUNK:
        tan_w = math.tan(wedge_angle)
        x_cross = radius * math.cos(wedge_angle)
        if r * tan_w > 2.0**-1000:  # every rounded value of a rising height is normal

            def rising(u: int) -> bool:
                # Column u's right edge lies at or before the crossover, so no min with the
                # radius moves it (x_cross < radius unless cos(phi) rounds to 1).
                return float(u + 1) * r <= x_cross

            rise = max(int(min(x_cross / r, u_hi)), u_lo)  # then fixed up by at most a column or two
            while rise > u_lo and not rising(rise - 1):
                rise -= 1
            while rise < u_hi and rising(rise):
                rise += 1
            if rise > u_lo:
                climbed = _rising_sum(tan_w, u_lo + 1, rise + 1)
                if climbed is not None:
                    total, lo = climbed, rise
    wide = min(u_hi - lo, STREAM_CHUNK) * (radius / r + 2.0) >= 2.0**62  # no height reaches radius/r + 2
    for u in range(lo, u_hi, STREAM_CHUNK):
        heights = column_heights(wedge_angle, radius, r, u, min(u + STREAM_CHUNK, u_hi))
        total += sum(heights.tolist()) if wide else int(heights.sum())
    return total


def wedge_columns(z: int, D: float, r: float) -> tuple[float, float, float, int]:
    """The wedge angle of the size-z sector, D and r read as floats, and the
    sector's column count when truncated at D.

    Validates: z >= 2 (a wedge of at most pi/2) and a column count within
    MAX_COLUMNS.
    """
    z, r, D = check_advice(z), positive_finite("vision radius", r), positive_finite("range bound", D)
    if z <= 1:
        raise PreconditionError("tile columns need a wedge angle of at most pi/2")
    n = column_count(D, r)
    if n > MAX_COLUMNS:
        raise BudgetExceededError(f"{n} columns exceed the {MAX_COLUMNS} column guard")
    return math.tau / float(1 << z), D, r, n


def sector_columns(z: int, D: float, r: float) -> Iterator[np.ndarray]:
    """``column_heights`` of every column of the size-z sector, in STREAM_CHUNK pieces from u = 0.

    Validates eagerly, as ``wedge_columns`` does.
    """
    wedge, D, r, n = wedge_columns(z, D, r)
    return (column_heights(wedge, D, r, lo, min(lo + STREAM_CHUNK, n)) for lo in range(0, n, STREAM_CHUNK))


def count_tiles(z: int, D: float, r: float) -> int:
    """Number of tiles the size-z sector truncated at D meets: the sum of (v_max + 1)."""
    wedge, D, r, n = wedge_columns(z, D, r)
    return height_sum(wedge, D, r, 0, n) + n
