"""Canonical advice: sector index of the treasure, as a fixed-width bit string.

The plane around the start point is split into 2**z sectors of angle
2*pi/2**z, numbered counterclockwise from North.  Sector i spans compass
angles (i*2*pi/2**z, (i+1)*2*pi/2**z]: the counterclockwise boundary ray is
included, the clockwise one excluded.  The oracle encodes the index of the
sector containing the treasure as exactly z big-endian bits; the agent
decodes the string back into the sector geometry.

Advice strings serialize as ASCII '0'/'1' text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, PreconditionError
from .geom import TWO_PI, Point2, as_point, ccw_angle_from_north

# Sizes above this would lose sector-index exactness in binary64 angles.
MAX_ADVICE_SIZE = 60

AdviceString = str


_SIZE_ONLY = object()


def check_advice(z: int, w=_SIZE_ONLY) -> int:
    """The advice rule: z is an int (not a bool) in [0, MAX_ADVICE_SIZE], and w,
    when given, a str of exactly z '0'/'1' symbols.  Returns z."""
    if not isinstance(z, int) or isinstance(z, bool) or not 0 <= z <= MAX_ADVICE_SIZE:
        raise PreconditionError(f"advice size must be an integer in [0, {MAX_ADVICE_SIZE}], got {z!r}")
    if w is not _SIZE_ONLY and not (isinstance(w, str) and len(w) == z and not w.strip("01")):
        raise PreconditionError(f"advice must be a string of {z} symbols 0/1, got {w!r}")
    return z


def sector_index(p, q, z: int) -> int:
    """Index of the sector with apex p containing q, for advice size z."""
    check_advice(z)
    theta = ccw_angle_from_north(p, q)  # raises for coincident points
    if z == 0:
        return 0
    width = TWO_PI / float(1 << z)
    j = math.ceil(theta / width) - 1
    return min(max(j, 0), (1 << z) - 1)


def sector_indices(apex, points: np.ndarray, z: int) -> np.ndarray:
    """``sector_index(apex, q, z)`` for every row q of the (k, 2) ``points``, none at the apex.

    ``np.arctan2`` can differ from ``math.atan2`` by an ulp, which moves a point
    on a boundary ray into the next sector, so points near a boundary take
    ``sector_index`` itself.
    """
    check_advice(z)
    a = as_point(apex)
    theta = np.arctan2(a.x - points[:, 0], points[:, 1] - a.y) % TWO_PI
    theta[theta == 0.0] = TWO_PI
    t = theta / (TWO_PI / float(1 << z))
    sector = np.ceil(t).astype(np.int64) - 1
    for i in np.flatnonzero(np.abs(t - np.rint(t)) <= 1e-12 * np.maximum(t, 1.0)):
        sector[i] = sector_index(a, points[i], z)
    return np.clip(sector, 0, (1 << z) - 1)


def encode_advice(p, q, z: int) -> AdviceString:
    """Advice string for a treasure at q seen from p: z bits, big-endian sector index.

    z = 0 encodes as the empty string.  Raises DegenerateInputError when p == q
    (the hunt costs nothing there; callers should short-circuit).
    """
    check_advice(z)
    pp = as_point(p)
    qq = as_point(q)
    if pp.x == qq.x and pp.y == qq.y:
        raise DegenerateInputError("treasure coincides with the start point")
    if z == 0:
        return ""
    return format(sector_index(pp, qq, z), f"0{z}b")


@dataclass(frozen=True)
class SectorSpec:
    """A decoded advice sector: apex plus its two boundary rays.

    ``cw_ray_angle`` is the excluded clockwise boundary at index*width,
    ``ccw_ray_angle`` the included counterclockwise boundary one sector width
    further.  Sizes z <= 1 still decode (to a half-plane or the full plane),
    but traversal code takes its spiral branch instead of using them.
    """

    index: int
    size: int
    apex: Point2
    cw_ray_angle: float
    ccw_ray_angle: float

    @property
    def wedge_angle(self) -> float:
        return TWO_PI / float(1 << self.size)

    def contains(self, point) -> bool:
        """Closed-above/open-below membership test against the boundary rays."""
        theta = ccw_angle_from_north(self.apex, point)
        return self.cw_ray_angle < theta <= self.ccw_ray_angle


def decode_sector(w: AdviceString, apex) -> SectorSpec:
    """Rebuild the sector a bit string denotes, anchored at ``apex``."""
    z = check_advice(len(w) if isinstance(w, str) else 0, w)
    j = int(w, 2) if w else 0
    width = TWO_PI / float(1 << z)
    return SectorSpec(
        index=j,
        size=z,
        apex=as_point(apex),
        cw_ray_angle=j * width,
        ccw_ray_angle=(j + 1) * width,
    )
