"""Planar primitives: points, compass angles, polylines, and first-detection geometry.

Angles follow the compass convention used throughout this library: measured
counterclockwise from North (the +y axis) and canonicalized into (0, 2*pi],
so a due-North direction is reported as 2*pi rather than 0.  This keeps every
ray on the boundary of exactly one angular sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateInputError, PreconditionError

Radians = float

TWO_PI = math.tau

# Absolute slack for closed distance-vs-radius comparisons.  Detection uses
# the closed condition (distance <= r); the slack keeps exact-tangency cases
# stable in binary64 without affecting generic configurations.
DETECTION_TOL = 1e-12


@dataclass(frozen=True)
class Point2:
    """Immutable plane point in binary64 coordinates.  Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DegenerateInputError(f"non-finite point ({self.x}, {self.y})")

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


ORIGIN = Point2(0.0, 0.0)


def as_point(p) -> Point2:
    """Coerce a Point2 or an (x, y) pair into a Point2."""
    if isinstance(p, Point2):
        return p
    x, y = p
    return Point2(float(x), float(y))


def direction_of(angle: Radians) -> tuple[float, float]:
    """Unit vector of a compass angle (ccw from North): (-sin a, cos a)."""
    return (-math.sin(angle), math.cos(angle))


def ccw_angle_from_north(origin, target) -> Radians:
    """Counterclockwise angle from North of the ray origin->target, in (0, 2*pi].

    Due North maps to 2*pi.  Raises DegenerateInputError for coincident points.
    """
    o = as_point(origin)
    t = as_point(target)
    dx = t.x - o.x
    dy = t.y - o.y
    if dx == 0.0 and dy == 0.0:
        raise DegenerateInputError("cannot measure an angle between coincident points")
    theta = math.atan2(-dx, dy) % TWO_PI
    return TWO_PI if theta == 0.0 else theta


class Polyline:
    """Polygonal chain with cached cumulative arc length.

    Builders that know segment lengths exactly (axis-aligned moves, analytic
    truncations) may supply them; otherwise lengths default to Euclidean
    vertex distances.  The cached total must agree with the coordinate-derived
    total to 1e-9 relative tolerance, which construction verifies.
    """

    __slots__ = ("vertices", "seg_lengths", "cumulative")

    def __init__(self, vertices, seg_lengths=None):
        verts = np.asarray(vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 1:
            raise PreconditionError("polyline needs an (n, 2) vertex array with n >= 1")
        if not np.isfinite(verts).all():
            raise DegenerateInputError("polyline vertices must be finite")
        geo = np.hypot(np.diff(verts[:, 0]), np.diff(verts[:, 1]))
        if seg_lengths is None:
            lengths = geo
        else:
            lengths = np.asarray(seg_lengths, dtype=np.float64)
            if lengths.shape != (verts.shape[0] - 1,):
                raise PreconditionError("segment length array does not match vertex count")
        cumulative = np.concatenate(([0.0], np.cumsum(lengths)))
        if lengths.size:
            if (lengths < 0.0).any():
                raise PreconditionError("segment lengths must be nonnegative")
            total = cumulative[-1]
            geo_total = float(np.cumsum(geo)[-1])
            if abs(total - geo_total) > 1e-9 * max(1.0, geo_total):
                raise PreconditionError(
                    f"cached length {total!r} disagrees with geometry {geo_total!r}"
                )
        self.vertices = verts
        self.seg_lengths = lengths
        self.cumulative = cumulative

    @property
    def length(self) -> float:
        return float(self.cumulative[-1])

    @property
    def segment_count(self) -> int:
        return int(self.seg_lengths.size)


def detection_lengths(points: np.ndarray, targets: np.ndarray, r: float) -> np.ndarray:
    """Earliest arc length at which each segment of a chain sees each target.

    ``points`` is an (m+1, 2) array describing m chained segments and
    ``targets`` a (k, 2) array.  Returns an (m, k) array whose entry is the
    smallest t in [0, |ab|] putting segment ab's point at t within r of the
    target, or NaN when the segment never does.  The comparison is closed
    (distance <= r, slack DETECTION_TOL); grazing approaches use the
    cancellation-safe quadratic root.
    """
    ax, ay = points[:-1, 0], points[:-1, 1]
    bx, by = points[1:, 0], points[1:, 1]
    if targets.shape[0] == 1:
        # Scalar coordinates on flat arrays: on short blocks, broadcasting
        # against a single target costs more than the arithmetic itself.
        return _first_reach(ax, ay, bx, by, float(targets[0, 0]), float(targets[0, 1]), r)[:, None]
    return _first_reach(
        ax[:, None], ay[:, None], bx[:, None], by[:, None], targets[:, 0], targets[:, 1], r
    )


def _first_reach(ax, ay, bx, by, qx, qy, r: float) -> np.ndarray:
    wx = qx - ax
    wy = qy - ay
    d0sq = wx * wx + wy * wy
    reach = r + DETECTION_TOL
    out = np.full(d0sq.shape, np.nan)
    close0 = d0sq <= reach * reach
    out[close0] = 0.0
    seg_len = np.hypot(bx - ax, by - ay)
    with np.errstate(invalid="ignore", divide="ignore"):
        ux = (bx - ax) / seg_len
        uy = (by - ay) / seg_len
    proj = wx * ux + wy * uy
    active = (~close0) & (seg_len > 0.0) & (proj > 0.0)
    if not active.any():
        return out
    t_close = np.minimum(proj, seg_len)
    dmin = np.hypot(ax + t_close * ux - qx, ay + t_close * uy - qy)
    active &= dmin <= reach
    if not active.any():
        return out
    c = d0sq - r * r
    disc = proj * proj - c
    with np.errstate(invalid="ignore", divide="ignore"):
        root = c / (proj + np.sqrt(np.maximum(disc, 0.0)))
    hit = np.where((disc > 0.0) & (root <= seg_len), root, t_close)
    out[active] = hit[active]
    return out
