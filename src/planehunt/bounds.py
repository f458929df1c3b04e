"""The proven ceilings and floors: every constant of the verified-constants table.

Each constant sits next to the formula it scales.  A strategy's measured
cost is compared against the ceiling its ``harness.STRATEGIES`` row names
(``harness.bound_for``); ``lower_bounds`` reports the floors any hunt must
pay.  Advice size z, range D and vision radius r keep their meaning
throughout: F = D^2/(2^z r) is the area term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .advice import check_advice
from .errors import PreconditionError, positive_finite, positive_int

# Tiles met by a wedge of angle 2*pi/2**z: <= 69 * (D^2/(2^z r^2) + D/r).
TILE_COUNT_FACTOR = 69.0

# One-way basic traversal length: <= 138 * (F + D).
SWEEP_COST_FACTOR = 138.0

# Any hunt costs >= (1/800)(F + D) while r < 0.9 D ...
MEDIUM_LB_FACTOR = 1.0 / 800.0
MEDIUM_LB_RADIUS_LIMIT = 0.9

# ... and >= (1/256) F (log2 D + log2 1/r) when r <= 1.
SMALL_LB_FACTOR = 1.0 / 256.0

# Large-vision cost for 0.9 D <= r < D: <= 116 (D - r).
LARGE_COST_FACTOR = 116.0

# Small-vision cost: <= 2^20 (D + F (log2 D + log2 1/r + 2)).  The README
# derives the constant from the strategy's phase accounting.
SMALL_ENVELOPE_FACTOR = 2.0**20

# The universal strategy costs at most 24 times its best single component.
UNIVERSAL_FACTOR = 24.0


def tile_count_bound(z: int, radius: float, r: float) -> float:
    """The proven ceiling 69*(D^2/(2^z r^2) + D/r) for a size-z sector."""
    scale = float(1 << check_advice(z))
    return TILE_COUNT_FACTOR * (radius * radius / (scale * r * r) + radius / r)


def sweep_cost_bound(z: int, D: float, r: float) -> float:
    """The proven ceiling 138*(D^2/(2^z r) + D) on basic_cost."""
    return SWEEP_COST_FACTOR * (D * D / (float(1 << check_advice(z)) * r) + D)


@dataclass(frozen=True)
class LowerBoundReport:
    """The explicit cost floors for advice size z, range D, and vision r.

    ``medium_bound`` is (1/800)(D^2/(2^z r) + D), valid only while
    r < 0.9 D (``medium_applicable``); ``small_bound`` combines the
    (1/256)(D^2/(2^z r)) (log2 D + log2 1/r) floor with the trivial D - r.
    """

    medium_bound: float
    medium_applicable: bool
    small_bound: float
    trivial_bound: float


def medium_regime_lower_bound(z: int, D: float, r: float) -> float:
    return MEDIUM_LB_FACTOR * (D * D / (float(1 << check_advice(z)) * r) + D)


def lower_bounds(z: int, D: float, r: float) -> LowerBoundReport:
    z, D, r = check_advice(z), positive_finite("range bound", D), positive_finite("vision radius", r)
    if not r < D:
        raise PreconditionError("lower bounds need 0 < r < D")
    trivial = D - r
    small = SMALL_LB_FACTOR * (D * D / (float(1 << z) * r)) * (math.log2(D) + math.log2(1.0 / r))
    return LowerBoundReport(
        medium_bound=medium_regime_lower_bound(z, D, r),
        medium_applicable=r < MEDIUM_LB_RADIUS_LIMIT * D,
        small_bound=max(small, trivial),
        trivial_bound=trivial,
    )


def regime_of(D: float, r: float) -> str:
    if r <= 1.0:
        return "small"
    if r < MEDIUM_LB_RADIUS_LIMIT * D:
        return "medium"
    return "large"


def branch_count(alpha: float) -> int:
    """ceil(1/alpha), with a tiny slack so representable fractions round true."""
    return max(1, math.ceil(1.0 / positive_finite("alpha", alpha) - 1e-9))


def small_ceiling(z: int, D: float, r: float) -> float:
    """The small-vision envelope 2^20 (D + (D^2/(2^z r)) (log2 D + log2 1/r + 2))."""
    F = D * D / (float(1 << check_advice(z)) * r)
    return SMALL_ENVELOPE_FACTOR * (D + F * (math.log2(D) + math.log2(1.0 / r) + 2.0))


def medium_ceiling(z: int, D: float, r: float, alpha: float, s: int) -> float:
    """The medium-vision ceiling 2 ceil(1/alpha) 2^(7 s) D^alpha times the sweep ceiling."""
    alpha, s = positive_finite("alpha", alpha), positive_int("scale step", s)
    try:  # ldexp scales by 2**(7 s) exactly and raises where the product would reach inf
        return math.ldexp(2.0 * branch_count(alpha) * sweep_cost_bound(z, D, r) * D**alpha, 7 * s)
    except OverflowError:
        raise PreconditionError(f"the medium ceiling overflows binary64 at alpha {alpha} and scale step {s}") from None
