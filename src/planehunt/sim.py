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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .advice import check_advice, encode_advice, sector_advice, sector_indices
from .bounds import sweep_cost_bound
from .errors import PreconditionError, StreamChainError, positive_finite
from .geom import DETECTION_TOL, Point2, as_point, detection_lengths
from .traversal import Block, Piece, RoundTrip, TrajectoryStream, rounded, units

# Default cost cap multiplier: caps are mandatory for infinite streams, and a
# hit at 1e4 times the applicable ceiling is a hard failure, not noise.
DEFAULT_CAP_MULTIPLIER = 1e4

MAX_CANDIDATES = 10**6

# Targets tested against one block at a time; bounds the (segments, targets) arrays.
_CAND_SLAB = 256

# Segments per run: a long block culls its near targets again against each run's box.
_RUN_LEN = 16

# A block goes run by run only with at least two runs and this many near targets:
# with fewer, one kernel call on the whole block costs less than a call per run.
_RUN_TARGETS = 128


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


def _cull_radius(r: float, scale):
    """How far a target may lie from a box and still be seen from inside it: r,
    plus 1e-9 * scale for the kernel's rounding, where ``scale`` (a float or an
    array) is max(1, |coordinates of the box and the target|)."""
    return r + 1e-9 * scale


def _gap(x0, x1, y0, y1, qx, qy):
    """Distance from the targets (qx, qy) to the boxes [x0, x1] x [y0, y1], broadcast."""
    gx = np.maximum(np.maximum(x0 - qx, qx - x1), 0.0)
    gy = np.maximum(np.maximum(y0 - qy, qy - y1), 0.0)
    return np.hypot(gx, gy)


def _run_boxes(pts: np.ndarray):
    """Bounding boxes (x0, x1, y0, y1) of the chain's runs of ``_RUN_LEN`` segments.

    A run's box holds its first vertices and its last, which is the next run's first.
    """
    m = pts.shape[0] - 1
    first = np.arange(0, m, _RUN_LEN)
    last = pts[np.minimum(first + _RUN_LEN, m)]
    lo = np.minimum(np.minimum.reduceat(pts[:-1], first), last)
    hi = np.maximum(np.maximum.reduceat(pts[:-1], first), last)
    return lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]


def _first_hit(t: np.ndarray):
    """The columns of a kernel result that detect, their first detecting rows, and the
    arc lengths there; None when no column detects."""
    hit = ~np.isnan(t)
    col = np.flatnonzero(hit.any(axis=0))
    if not col.size:
        return None
    row = hit.argmax(axis=0)[col]
    return col, row, t[row, col]


def _slab_hits(pts: np.ndarray, xy: np.ndarray, r: float):
    """``_first_hit`` of the chain ``pts`` on the targets ``xy``, ``_CAND_SLAB``
    targets per kernel call, as (rows of ``xy``, segments, arc lengths)."""
    found = []
    for lo in range(0, xy.shape[0], _CAND_SLAB):
        hits = _first_hit(detection_lengths(pts, xy[lo : lo + _CAND_SLAB], r))
        if hits is not None:
            found.append((lo + hits[0], hits[1], hits[2]))
    return _joined(found)


def _joined(found: list):
    """One (rows, segments, arc lengths) triple from a list of them; None from none."""
    if len(found) < 2:
        return found[0] if found else None
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _block_hits(pts: np.ndarray, xy: np.ndarray, r: float, reach):
    """The first hits of one block ``pts`` on the near targets ``xy``, as (rows of
    ``xy``, segments, arc lengths), or None.

    A block of at least two runs of ``_RUN_LEN`` segments and at least
    ``_RUN_TARGETS`` near targets goes run by run, in order: each run tests
    only its targets within ``reach`` (one radius per target) of its box that
    no earlier run detected.  Any other block goes to the kernel whole.
    """
    k = xy.shape[0]
    m = pts.shape[0] - 1
    if m < 2 * _RUN_LEN or k < _RUN_TARGETS:
        return _slab_hits(pts, xy, r)
    runs = [c[:, None] for c in _run_boxes(pts)]
    near = np.concatenate(
        [_gap(*runs, xy[lo : lo + _CAND_SLAB, 0], xy[lo : lo + _CAND_SLAB, 1]) <= reach[lo : lo + _CAND_SLAB]
         for lo in range(0, k, _CAND_SLAB)],
        axis=1,
    )  # (runs, targets)
    unseen = np.ones(k, dtype=bool)
    found = []
    for j in np.flatnonzero(near.any(axis=1)):
        lo = j * _RUN_LEN
        test = np.flatnonzero(near[j] & unseen)
        hits = _slab_hits(pts[lo : lo + _RUN_LEN + 1], xy[test], r) if test.size else None
        if hits is not None:
            rows = test[hits[0]]
            unseen[rows] = False
            found.append((rows, lo + hits[1], hits[2]))
    return _joined(found)


def _near_part(block: Block, active: np.ndarray, live: np.ndarray, r: float):
    """What of an untagged block the kernel must test, as (vertices, the
    block's index of their first segment, the near targets' indices and
    coordinates, their cull radii), or None when no live target is near.

    With one live target, a piece gives the segments that can come within
    reach of it; any other path is culled whole against its bounding box.
    Several live targets are culled against the whole built block's box.
    """
    path = block.path
    lazy = isinstance(path, Piece)
    if active.size == 1:
        qx, qy = float(live[0, 0]), float(live[0, 1])
        if lazy:
            span = path.near(qx, qy, _cull_radius(r, max(path.scale, abs(qx), abs(qy))))
            return None if span is None else (path.vertices(*span), span[0], active, live, None)
    pts = path.points() if lazy else path
    x, y = pts[:, 0], pts[:, 1]
    x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
    box = max(1.0, abs(x0), abs(x1), abs(y0), abs(y1))
    # Cull the live targets farther than r from the block's bounding box: the
    # kernel cannot see them.  ``reach`` keeps the cull radii of the near ones.
    if active.size == 1:
        gap = math.hypot(max(x0 - qx, qx - x1, 0.0), max(y0 - qy, qy - y1, 0.0))
        reach = _cull_radius(r, max(box, abs(qx), abs(qy)))  # floats: numpy costs more here
        return (pts, 0, active, live, reach) if gap <= reach else None
    qx, qy = live[:, 0], live[:, 1]
    reach = _cull_radius(r, np.maximum(np.maximum(np.abs(qx), np.abs(qy)), box))
    near = _gap(x0, x1, y0, y1, qx, qy) <= reach
    idx = active[near]
    return (pts, 0, idx, live[near], reach[near]) if idx.size else None


def _starts(block: Block, walked: int, at: np.ndarray) -> np.ndarray:
    """The arc from the walk's start to the start of each segment ``at`` of the block,
    ``walked`` units before it, rounded once for each distinct segment."""
    if at.size == 1 or block.lengths.size == 1:
        return np.full(at.size, rounded(walked + block.arc(int(at[0]))))
    seg = np.unique(at)
    return np.array([rounded(walked + block.arc(s)) for s in seg.tolist()])[np.searchsorted(seg, at)]


def _out_of_sight(trip: RoundTrip, live: np.ndarray, r: float) -> bool:
    """Whether every live target lies farther than the trip's ``radius`` plus its
    cull radius from the trip's start, so that no segment of the trip can see
    one.  Every coordinate of the trip lies within ``radius`` of the start,
    which bounds the scale of the cull.  A distance that overflows to inf
    reads as far."""
    s, radius = trip.start, trip.radius
    box = max(1.0, abs(s.x) + radius, abs(s.y) + radius)
    if live.shape[0] == 1:
        qx, qy = float(live[0, 0]), float(live[0, 1])
        return math.hypot(qx - s.x, qy - s.y) > radius + _cull_radius(r, max(box, abs(qx), abs(qy)))
    qx, qy = live[:, 0], live[:, 1]
    reach = radius + _cull_radius(r, np.maximum(np.maximum(np.abs(qx), np.abs(qy)), box))
    return bool((np.hypot(qx - s.x, qy - s.y) > reach).all())


def _walk(stream: TrajectoryStream, targets: np.ndarray, r: float, cap: float) -> _Walk:
    """First detection of each of the (k, 2) ``targets`` along one walk of ``stream``.

    The cap must be positive and finite: infinite streams would never stop.
    Every step must start where the walk stands.  The walk stops in the
    block that detects the last target, at the first block ending past the
    cap, or when the stream runs out.  Within a block a target's first
    detecting segment counts; a detection past the cap does not.  A block
    tagged ``retrace`` repeats ground already tested, so it is folded and
    counted but not tested, and a piece's end points are all of it that is
    read.  Any other block sends the kernel only what ``_near_part`` finds
    within reach, ``_CAND_SLAB`` targets at a time; a long block with many
    near targets is culled again per run (``_block_hits``).  The live set
    narrows only where a block detects.  The walked arc is an exact int in
    units (``traversal.units``), block totals added to it and compared with
    the cap's; a detection costs its segment's start arc, rounded, plus the
    arc along the segment, and a cost that no detection sets is rounded when
    it is reported.  A ``RoundTrip`` step that is tagged,
    or that every live target is out of sight of (``_out_of_sight``), folds
    its block totals the same way and counts its segments, building nothing.
    An untagged one on the way out (a basic traversal's) with one live target
    in sight is ``split`` about it: the blocks before those that can come
    within reach of it fold, those blocks are walked as any others, and the
    blocks after them fold, unless the target is found first.  A fold that
    would pass the cap walks its blocks instead, and so does a unit with
    several live targets in sight, or one in sight of a round trip.
    """
    cap = positive_finite("cost cap", cap)
    limit = units(cap)
    k = targets.shape[0]
    start = stream.start
    cost = np.zeros(k)
    segments = np.zeros(k, dtype=np.int64)
    ends = np.empty((k, 2, 2))
    ends[:] = (start.x, start.y)
    t_hit = np.zeros(k)
    # A target seen from the start is found at cost 0; a distance that overflows to inf reads as far.
    with np.errstate(over="ignore"):
        found = np.hypot(targets[:, 0] - start.x, targets[:, 1] - start.y) <= r + DETECTION_TOL
    active = np.flatnonzero(~found)
    live = targets[active]  # the coordinates of the active targets
    walked = 0
    done = 0
    last = (start.x, start.y)
    steps = rest = stream.steps() if active.size else None
    while steps is not None:
        walking, steps = steps, None
        for block in walking:  # a block, or a RoundTrip standing for its blocks
            if block.__class__ is RoundTrip:
                x, y = block.first
                if x != last[0] or y != last[1]:
                    raise StreamChainError(f"round trip starts at ({x}, {y}) but previous segment ended at ({last[0]}, {last[1]})")
                head, ahead = block, []  # the run to fold, and what to walk after it, before the rest
                if not (block.retrace or _out_of_sight(block, live, r)):
                    if active.size > 1 or not block.one_way:
                        head, ahead = None, [block.blocks()]
                    else:
                        qx, qy = float(live[0, 0]), float(live[0, 1])
                        head, near, tail = block.split(qx, qy, lambda scale: _cull_radius(r, max(scale, abs(qx), abs(qy))))
                        ahead = [near.blocks()] if near is not None else []
                        if tail is not None:
                            ahead.append((tail,))
                if head is not None:
                    total, count = head.count()
                    if walked + total > limit:
                        ahead.insert(0, head.blocks())
                    else:
                        walked, done, last = walked + total, done + count, head.last
                if ahead:
                    steps = itertools.chain(*ahead, rest)  # walk them, then the rest
                    break
                continue
            path = block.path
            if isinstance(path, Piece):
                (x, y), end = path.first, path.last
            else:
                x, y, end = path[0, 0], path[0, 1], (path[-1, 0], path[-1, 1])
            if x != last[0] or y != last[1]:
                raise StreamChainError(f"block starts at ({x}, {y}) but previous segment ended at ({last[0]}, {last[1]})")
            last = end
            hits = None
            if not block.retrace and (part := _near_part(block, active, live, r)) is not None:
                pts, base, idx, xy, reach = part
                hits = _block_hits(pts, xy, r, reach)
            if hits is not None:
                col, seg, tt = hits
                c = _starts(block, walked, base + seg) + tt
                ok = c <= cap
                sel, seg = idx[col[ok]], seg[ok]
                cost[sel] = c[ok]
                found[sel] = True
                segments[sel] = done + base + seg + 1
                ends[sel, 0] = pts[seg]
                ends[sel, 1] = pts[seg + 1]
                t_hit[sel] = tt[ok]
                if sel.size:
                    keep = ~found[active]
                    active, live = active[keep], live[keep]
            if not active.size:
                break
            total = walked + block.total
            if total > limit:
                done += block.reach(limit - walked)[0] + 1
                walked = limit
                break
            walked = total
            done += block.lengths.size
    cost[active] = rounded(walked)
    segments[active] = done
    return _Walk(cost, found, segments, ends, t_hit)


def run(stream: TrajectoryStream, treasure, r: float, cost_cap: float) -> RunOutcome:
    """Walk the stream until first detection, cap hit, or exhaustion."""
    r = positive_finite("vision radius", r)
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
    south-west corner sits at the start; rows count from the north side.  A
    lattice of more than MAX_CANDIDATES points is refused before it is built.
    """
    D, r = positive_finite("range bound", D), positive_finite("vision radius", r)
    side = math.sqrt(2.0) * D / 2.0 // (2.0 * r)  # tiles of side 2r along the square's side
    m = int(side) if side <= 4.0 * MAX_CANDIDATES else 4 * MAX_CANDIDATES  # more cannot fit the budget either
    if (count := ((m + 1) // 2) ** 2) > MAX_CANDIDATES:
        raise PreconditionError(f"at least {count} shaded-tile candidates exceed the budget {MAX_CANDIDATES}")
    p = as_point(start)
    odd = np.arange(1, m + 1, 2)
    cx = (2 * odd - 1) * r + p.x  # every other column from the west
    cy = p.y + (2 * (m - odd) + 1) * r  # odd rows from the north
    gy, gx = np.meshgrid(cy, cx, indexing="ij")
    return np.column_stack((gx.ravel(), gy.ravel()))


def disc_grid_candidates(D: float, grid_step: float, start=Point2(0.0, 0.0)) -> np.ndarray:
    """Uniform grid of the given pitch over the disc of radius D.

    A grid of more than MAX_CANDIDATES points besides the start, or whose step
    does not resolve the start's coordinates, is refused before it is built
    (``_candidate_floor``).
    """
    D, grid_step = positive_finite("range bound", D), positive_finite("grid step", grid_step)
    p = as_point(start)
    if (floor := _candidate_floor(D, grid_step, p)) > MAX_CANDIDATES:
        raise PreconditionError(f"at least {floor} candidates exceed the budget {MAX_CANDIDATES}")
    k = int(D // grid_step)
    coords = np.arange(-k, k + 1, dtype=np.float64) * grid_step
    gx, gy = np.meshgrid(coords, coords, indexing="ij")
    pts = np.column_stack((gx.ravel(), gy.ravel()))
    keep = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= D * D
    return pts[keep] + np.array([p.x, p.y])


def _candidate_floor(D: float, grid_step: float, start: Point2) -> int:
    """A count the candidate set certainly reaches, found without building it.

    The disc grid's points, counted row by row in the grid's own arithmetic,
    less the start.  A step within a few ulps of the shifted coordinates is
    refused: shifted points may coincide there, so no count is certain.
    """
    if grid_step <= 4.0 * math.ulp(abs(start.x) + abs(start.y) + D):
        raise PreconditionError(
            f"grid step {grid_step} does not resolve coordinates at start ({start.x}, {start.y})"
        )
    k = int(D // grid_step)
    if 2 * k > MAX_CANDIDATES:  # the middle row alone: 2k + 1 points, one of them the start
        return 2 * k
    sq = (np.arange(k + 1, dtype=np.float64) * grid_step) ** 2  # squared as the grid squares them
    # Row i spans |j| <= the largest j with sq[j] + sq[i] <= D * D: guess one past it, then step back.
    j = np.minimum(np.sqrt(D * D - sq) // grid_step + 1, k).astype(np.int64)
    while (out := sq[j] + sq > D * D).any():
        j -= out
    return 4 * int(j.sum())  # quarter turns of the points with i >= 0 and j >= 1; the start is the rest


def _sorted_unique(points: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, 2) array, sorted by x, then y: ``np.unique(points, axis=0)``, by one lexsort."""
    points = points[np.lexsort((points[:, 1], points[:, 0]))]
    keep = np.ones(points.shape[0], dtype=bool)
    keep[1:] = (points[1:] != points[:-1]).any(axis=1)
    return points[keep]


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
    r, D = positive_finite("vision radius", r), positive_finite("range bound", D)
    if not r < D:
        raise PreconditionError(f"adversarial search needs r < D, got D={D} r={r}")
    if not (grid_step := positive_finite("grid step", grid_step)) <= r:
        raise PreconditionError(f"grid step must be at most r, got {grid_step} with r={r}")
    if cost_cap is None:
        cost_cap = DEFAULT_CAP_MULTIPLIER * 2.0 * sweep_cost_bound(z, D, r)
    z, cap = check_advice(z), positive_finite("cost cap", cost_cap)
    start = as_point(strategy_factory(encode_advice((0.0, 0.0), (0.0, 1.0), z)).start)
    floor = _candidate_floor(D, grid_step, start)  # the shaded lattice can only add to it
    if floor > MAX_CANDIDATES:
        raise PreconditionError(f"at least {floor} candidates exceed the budget {MAX_CANDIDATES}")
    cands = np.concatenate(
        [shaded_tile_candidates(D, r, start), disc_grid_candidates(D, grid_step, start)]
    )
    dist = np.hypot(cands[:, 0] - start.x, cands[:, 1] - start.y)
    cands = cands[dist > 0.0]
    cands = _sorted_unique(cands)  # the tie-break order
    if cands.shape[0] > MAX_CANDIDATES:
        raise PreconditionError(f"{cands.shape[0]} candidates exceed the budget {MAX_CANDIDATES}")

    sector = sector_indices(start, cands, z)
    costs = np.full(cands.shape[0], cap)
    for j in np.unique(sector):
        group = np.flatnonzero(sector == j)
        walk = _walk(strategy_factory(sector_advice(int(j), z)), cands[group], r, cap)
        costs[group[walk.found]] = walk.cost[walk.found]

    best = int(np.argmax(costs))  # first max: lexicographically smallest winner
    return Point2(float(cands[best, 0]), float(cands[best, 1])), float(costs[best])
