"""Execution engine: run streams against hidden treasures, and brute-force
adversarial placement search.

One walker does all cost accounting: it consumes a stream's blocks in order,
finds each target's first point within the vision radius, and reports the
exact arc length walked to that point.  ``run`` walks it with one treasure,
``adversarial_placement`` with every candidate of one advice group.  The
adversarial search is deliberately exhaustive over its candidate set; it is
the independent oracle for optimality-ratio claims and must not prune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .advice import encode_advice, sector_advice, sector_indices
from .bounds import sweep_cost_bound
from .errors import PreconditionError, StreamChainError
from .geom import DETECTION_TOL, Point2, as_point, detection_lengths
from .traversal import TrajectoryStream, _block_total

# Default cost cap multiplier: caps are mandatory for infinite streams, and a
# hit at 1e4 times the applicable ceiling is a hard failure, not noise.
DEFAULT_CAP_MULTIPLIER = 1e4

MAX_CANDIDATES = 10**6

# Targets tested against one block at a time; bounds the (segments, targets) arrays.
_CAND_SLAB = 256


@dataclass(frozen=True)
class RunOutcome:
    """Result of one hunt: found flag, exact cost, detection point, segment count.

    ``cost`` is the arc length walked until first detection; unfound runs
    carry the cap (or the total length of an exhausted finite stream).
    """

    found: bool
    cost: float
    detection_point: Optional[Point2]
    segments_executed: int


class _Walk(NamedTuple):
    """Per-target results of one walk.

    Unfound targets cost the cap when the walk passed it, and the walked
    length when the stream ran out.  ``ends`` holds the end points of the
    detecting segment and ``t`` the arc length along it.
    """

    cost: np.ndarray
    found: np.ndarray
    segments: np.ndarray
    ends: np.ndarray
    t: np.ndarray


def _walk(stream: TrajectoryStream, targets: np.ndarray, r: float, cap: float) -> _Walk:
    """First detection of each of the (k, 2) ``targets`` along one walk of ``stream``.

    The cap must be positive and finite: infinite streams would never stop.
    Every block must start where the walk stands.  The walk stops in the
    block that detects the last target, at the first block ending past the
    cap, or when the stream runs out.  Within a block a target's first
    detecting segment counts; a detection past the cap does not.  A block
    tagged ``retrace`` repeats ground already tested, so it is folded and
    counted but not tested; any other block is tested only against the
    targets within reach of its bounding box.  Lengths fold as block totals,
    ``walked + total``, left to right.
    """
    if not (0.0 < cap < math.inf):
        raise PreconditionError(f"cost cap must be positive and finite, got {cap}")
    k = targets.shape[0]
    start = stream.start
    cost = np.zeros(k)
    segments = np.zeros(k, dtype=np.int64)
    ends = np.empty((k, 2, 2))
    ends[:] = (start.x, start.y)
    t_hit = np.zeros(k)
    found = np.hypot(targets[:, 0] - start.x, targets[:, 1] - start.y) <= r + DETECTION_TOL
    active = np.flatnonzero(~found)
    slabs = None
    walked = 0.0
    done = 0
    last = (start.x, start.y)
    for block in stream.blocks() if active.size else ():
        pts = block.points
        if pts[0, 0] != last[0] or pts[0, 1] != last[1]:
            raise StreamChainError(
                f"block starts at ({pts[0, 0]}, {pts[0, 1]}) but previous segment ended at ({last[0]}, {last[1]})"
            )
        last = (pts[-1, 0], pts[-1, 1])
        cs = None  # summed only where a detection or the cap needs the running length
        if slabs is None:
            cuts = np.arange(_CAND_SLAB, active.size, _CAND_SLAB)
            slabs = [(idx, targets[idx]) for idx in np.split(active, cuts)]
        changed = False
        if not block.retrace:
            x, y = pts[:, 0], pts[:, 1]
            x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
            box = max(1.0, abs(x0), abs(x1), abs(y0), abs(y1))
        for idx, xy in () if block.retrace else slabs:
            # Cull the targets farther than r from the block's bounding box: the
            # kernel cannot see them.  The margin covers the kernel's rounding.
            if idx.size == 1:
                qx, qy = float(xy[0, 0]), float(xy[0, 1])
                gap = math.hypot(max(x0 - qx, qx - x1, 0.0), max(y0 - qy, qy - y1, 0.0))
                if gap > r + 1e-9 * max(box, abs(qx), abs(qy)):
                    continue
            else:
                qx, qy = xy[:, 0], xy[:, 1]
                gx = np.maximum(np.maximum(x0 - qx, qx - x1), 0.0)
                gy = np.maximum(np.maximum(y0 - qy, qy - y1), 0.0)
                near = np.hypot(gx, gy) <= r + 1e-9 * np.maximum(np.maximum(np.abs(qx), np.abs(qy)), box)
                if not near.any():
                    continue
                idx, xy = idx[near], xy[near]
            t = detection_lengths(pts, xy, r)
            if np.isnan(t).all():
                continue
            hit = ~np.isnan(t)
            if cs is None:
                cs = np.cumsum(block.lengths)
            col = np.flatnonzero(hit.any(axis=0))
            seg = hit.argmax(axis=0)[col]
            tt = t[seg, col]
            c = walked + np.where(seg > 0, cs[seg - 1], 0.0) + tt
            ok = c <= cap
            sel, seg = idx[col[ok]], seg[ok]
            cost[sel] = c[ok]
            found[sel] = True
            segments[sel] = done + seg + 1
            ends[sel, 0] = pts[seg]
            ends[sel, 1] = pts[seg + 1]
            t_hit[sel] = tt[ok]
            changed |= bool(sel.size)
        if changed:
            active = active[~found[active]]
            slabs = None
            if not active.size:
                break
        total = walked + _block_total(block)
        if total > cap:
            if cs is None:
                cs = np.cumsum(block.lengths)
            done += int(np.searchsorted(cs, cap - walked, side="left")) + 1
            walked = cap
            break
        walked = total
        done += block.lengths.size
    cost[active] = walked
    segments[active] = done
    return _Walk(cost, found, segments, ends, t_hit)


def run(stream: TrajectoryStream, treasure, r: float, cost_cap: float) -> RunOutcome:
    """Walk the stream until first detection, cap hit, or exhaustion."""
    if not (r > 0.0 and math.isfinite(r)):
        raise PreconditionError("vision radius must be positive and finite")
    q = as_point(treasure)
    walk = _walk(stream, np.array([[q.x, q.y]]), r, cost_cap)
    point = None
    if walk.found[0]:
        (ax, ay), (bx, by) = walk.ends[0]
        geo = math.hypot(bx - ax, by - ay)
        frac = float(walk.t[0]) / geo if geo > 0.0 else 0.0
        point = Point2(float(ax + frac * (bx - ax)), float(ay + frac * (by - ay)))
    return RunOutcome(bool(walk.found[0]), float(walk.cost[0]), point, int(walk.segments[0]))


def shaded_tile_candidates(D: float, r: float, start=Point2(0.0, 0.0)) -> np.ndarray:
    """Worst-case seeds: every other tile center of odd rows of a 2r tiling.

    The tiling covers the axis-aligned square of side sqrt(2) D / 2 whose
    south-west corner sits at the start; rows count from the north side.
    """
    side = math.sqrt(2.0) * D / 2.0
    m = int(side // (2.0 * r))
    p = as_point(start)
    odd = np.arange(1, m + 1, 2)
    cx = (2 * odd - 1) * r + p.x  # every other column from the west
    cy = p.y + (2 * (m - odd) + 1) * r  # odd rows from the north
    gy, gx = np.meshgrid(cy, cx, indexing="ij")
    return np.column_stack((gx.ravel(), gy.ravel()))


def disc_grid_candidates(D: float, grid_step: float, start=Point2(0.0, 0.0)) -> np.ndarray:
    """Uniform grid of the given pitch over the disc of radius D."""
    k = int(D // grid_step)
    coords = np.arange(-k, k + 1, dtype=np.float64) * grid_step
    gx, gy = np.meshgrid(coords, coords, indexing="ij")
    pts = np.column_stack((gx.ravel(), gy.ravel()))
    keep = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= D * D
    p = as_point(start)
    return pts[keep] + np.array([p.x, p.y])


def _candidate_floor(D: float, grid_step: float, start: Point2) -> int:
    """A count the candidate set certainly reaches, found without building it.

    The grid points of the square inscribed in the disc, one step in so that
    rounding keeps them in it, less the start.  A step within a few ulps of
    the shifted coordinates is refused: shifted points may coincide there,
    so no count is certain.
    """
    if grid_step <= 4.0 * math.ulp(abs(start.x) + abs(start.y) + D):
        raise PreconditionError(
            f"grid step {grid_step} does not resolve coordinates at start ({start.x}, {start.y})"
        )
    n = int(D / (math.sqrt(2.0) * grid_step)) - 1
    return (2 * n + 1) ** 2 - 1 if n >= 1 else 0


def adversarial_placement(
    strategy_factory: Callable[[str], TrajectoryStream],
    z: int,
    D: float,
    r: float,
    grid_step: float,
    cost_cap: Optional[float] = None,
) -> tuple[Point2, float]:
    """Worst treasure placement for an advice-indexed strategy, by brute force.

    Candidates are the shaded-tile pattern plus a ``grid_step``-pitch grid over
    the disc of radius D, each simulated with its own canonical advice.
    Returns the placement maximizing the detection cost and that cost; ties
    break toward the lexicographically smallest candidate.  Unfound candidates
    count at the cap.
    """
    if not (0.0 < r < D < math.inf):
        raise PreconditionError("adversarial search needs 0 < r < D < inf")
    if not (0.0 < grid_step <= r):
        raise PreconditionError("grid step must be positive and at most r")
    start = as_point(strategy_factory(encode_advice((0.0, 0.0), (0.0, 1.0), z)).start)
    floor = _candidate_floor(D, grid_step, start)  # the grid outnumbers the shaded lattice
    if floor > MAX_CANDIDATES:
        raise PreconditionError(f"at least {floor} candidates exceed the budget {MAX_CANDIDATES}")
    cands = np.concatenate(
        [shaded_tile_candidates(D, r, start), disc_grid_candidates(D, grid_step, start)]
    )
    dist = np.hypot(cands[:, 0] - start.x, cands[:, 1] - start.y)
    cands = cands[dist > 0.0]
    cands = np.unique(cands, axis=0)  # sorts lexicographically: the tie-break order
    if cands.shape[0] > MAX_CANDIDATES:
        raise PreconditionError(f"{cands.shape[0]} candidates exceed the budget {MAX_CANDIDATES}")
    if cands.shape[0] == 0:
        raise PreconditionError("no candidate placements (disc too small for the grid)")
    cap = cost_cap if cost_cap is not None else DEFAULT_CAP_MULTIPLIER * 2.0 * sweep_cost_bound(z, D, r)

    sector = sector_indices(start, cands, z)
    costs = np.full(cands.shape[0], cap)
    for j in np.unique(sector):
        group = np.flatnonzero(sector == j)
        walk = _walk(strategy_factory(sector_advice(int(j), z)), cands[group], r, cap)
        costs[group[walk.found]] = walk.cost[walk.found]

    best = int(np.argmax(costs))  # first max: lexicographically smallest winner
    return Point2(float(cands[best, 0]), float(cands[best, 1])), float(costs[best])
