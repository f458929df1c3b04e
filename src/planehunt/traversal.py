"""Trajectory streams: the square search spiral, sector sweeps, and exact costs.

A stream is a restartable generator of vertex blocks.  Each block carries an
(m+1, 2) vertex array (its first vertex repeats the previous block's last,
so segments chain exactly) plus the authoritative per-segment lengths.  Move
lengths are stored analytically (axis moves in the tiling frame are exact
multiples of the tile size), so costs accumulate without rotation noise;
coordinates agree with the stored lengths to well under the library's 1e-9
polyline tolerance.

``basic_cost`` folds the very same per-segment length arrays a materialized
stream would produce, in the same order, so it matches the materialized
polyline length bit for bit whenever materialization is feasible.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, List, NamedTuple

import numpy as np

from .advice import AdviceString, decode_sector
from .errors import BudgetExceededError, PreconditionError
from .bounds import sweep_cost_bound  # noqa: F401  (callers reach it as traversal.sweep_cost_bound)
from .geom import ORIGIN, Point2, Polyline, as_point
from .tiling import TileFrame, column_count, column_height_chunks, column_heights

# Columns (or spiral instructions) emitted per block.
STREAM_CHUNK = 4096

# Spiral costs fold the exact instruction lengths while the instruction count
# stays materializable; beyond that the closed form (2k+1)^2 * r is used.
SPIRAL_EXACT_SEGMENT_LIMIT = 10**7

_DIR_X = np.array([1.0, 0.0, -1.0, 0.0])  # E, S, W, N
_DIR_Y = np.array([0.0, -1.0, 0.0, 1.0])


class Block(NamedTuple):
    """A run of chained segments: vertices (m+1, 2) and stored lengths (m,)."""

    points: np.ndarray
    lengths: np.ndarray


class TrajectoryStream:
    """Deterministic, restartable sequence of straight moves.

    ``blocks()`` returns a fresh generator each call; regenerating a stream
    yields bit-identical geometry.  Streams may be infinite: use ``prefix``
    or ``materialize`` with a budget to obtain a Polyline.
    """

    def __init__(self, start, block_factory: Callable[[], Iterator[Block]]):
        self.start = as_point(start)
        self._factory = block_factory

    def blocks(self) -> Iterator[Block]:
        return self._factory()

    def prefix(self, arc: float) -> Polyline:
        """Materialize the leading ``arc`` of the stream (may split a segment)."""
        return blocks_to_polyline(prefix_blocks(self, arc), self.start)

    def materialize(self, max_segments: int = 10**7) -> Polyline:
        """Materialize the whole (finite) stream, guarded by a segment budget."""
        out: List[Block] = []
        seg = 0
        for block in self.blocks():
            seg += block.lengths.size
            if seg > max_segments:
                raise BudgetExceededError(f"stream exceeds {max_segments} segments")
            out.append(block)
        return blocks_to_polyline(out, self.start)


def blocks_to_polyline(blocks: Iterable[Block], start) -> Polyline:
    blocks = [b for b in blocks if b.lengths.size]
    if not blocks:
        p = as_point(start)
        return Polyline(np.array([[p.x, p.y]]), np.zeros(0))
    verts = np.concatenate([blocks[0].points] + [b.points[1:] for b in blocks[1:]])
    lengths = np.concatenate([b.lengths for b in blocks])
    return Polyline(verts, lengths)


def flip_block(block: Block) -> Block:
    """The same moves walked backwards (bit-identical vertices, reversed order)."""
    return Block(block.points[::-1], block.lengths[::-1])


def prefix_blocks(stream: TrajectoryStream, arc: float) -> List[Block]:
    """Blocks covering exactly the leading ``arc`` of the stream.

    The final segment is split when the cut lands inside it; the split piece
    stores the exact arc remainder as its length.  A finite stream shorter
    than ``arc`` is returned whole.
    """
    if arc < 0.0:
        raise PreconditionError("prefix arc must be nonnegative")
    out: List[Block] = []
    remaining = arc
    for block in stream.blocks():
        if block.lengths.size == 0:
            continue
        cs = np.cumsum(block.lengths)
        total = float(cs[-1])
        if total < remaining:
            out.append(block)
            remaining -= total
            continue
        idx = int(np.searchsorted(cs, remaining, side="left"))
        if cs[idx] == remaining:
            out.append(Block(block.points[: idx + 2], block.lengths[: idx + 1]))
        else:
            before = float(cs[idx - 1]) if idx else 0.0
            t = min(remaining - before, float(block.lengths[idx]))
            frac = t / float(block.lengths[idx])
            a = block.points[idx]
            b = block.points[idx + 1]
            split = a + frac * (b - a)
            pts = np.concatenate([block.points[: idx + 1], split[None, :]])
            lens = np.concatenate([block.lengths[:idx], [t]])
            out.append(Block(pts, lens))
        return out
    return out


def out_and_back_blocks(stream: TrajectoryStream, arc: float) -> Iterator[Block]:
    """Walk the stream's leading ``arc`` and retrace it exactly back to the start."""
    forward = prefix_blocks(stream, arc)
    yield from forward
    for block in reversed(forward):
        yield flip_block(block)


# ---------------------------------------------------------------------------
# The square search spiral
# ---------------------------------------------------------------------------
#
# Instruction n = 1, 2, ... has length ceil(n/2) * r and direction cycling
# E, S, W, N.  For k = ceil(D/r) the spiral runs 4k+1 instructions, ending
# with the long eastward move of length (2k+1) * r; its total length is
# (2k+1)^2 * r and it passes within r of every point of the square of side
# 2kr centered on the start.


def spiral_turn_count(D: float, r: float) -> int:
    if not (r > 0.0 and math.isfinite(r) and math.isfinite(D)):
        raise PreconditionError("spiral needs finite positive radius and range")
    if r > D:
        raise PreconditionError(f"tile size {r} exceeds range {D}")
    return math.ceil(D / r)


def _spiral_lengths(n_lo: int, n_hi: int, r: float) -> np.ndarray:
    n = np.arange(n_lo, n_hi, dtype=np.int64)
    return ((n + 1) // 2).astype(np.float64) * r


def _spiral_offset(m: int, r: float) -> tuple[float, float]:
    """Exact displacement from the start after m instructions."""
    t_e = (m + 3) // 4
    t_s = (m + 2) // 4
    t_w = (m + 1) // 4
    t_n = m // 4
    x = float(t_e * t_e - t_w * (t_w + 1)) * r
    y = float(t_n * (t_n + 1) - t_s * t_s) * r
    return x, y


def _spiral_chunk(start: Point2, r: float, n_lo: int, n_hi: int) -> Block:
    ox, oy = _spiral_offset(n_lo - 1, r)
    lengths = _spiral_lengths(n_lo, n_hi, r)
    idx = (np.arange(n_lo, n_hi, dtype=np.int64) - 1) % 4
    dx = _DIR_X[idx] * lengths
    dy = _DIR_Y[idx] * lengths
    m = lengths.size
    pts = np.empty((m + 1, 2))
    pts[0, 0] = start.x + ox
    pts[0, 1] = start.y + oy
    pts[1:, 0] = (start.x + ox) + np.cumsum(dx)
    pts[1:, 1] = (start.y + oy) + np.cumsum(dy)
    return Block(pts, lengths)


def _spiral_blocks(D: float, r: float, start: Point2, reverse: bool = False) -> Iterator[Block]:
    k = spiral_turn_count(D, r)
    last = 4 * k + 1
    if reverse:
        hi = last
        while hi >= 1:
            lo = max(hi - STREAM_CHUNK + 1, 1)
            yield flip_block(_spiral_chunk(start, r, lo, hi + 1))
            hi = lo - 1
    else:
        for lo in range(1, last + 1, STREAM_CHUNK):
            hi = min(lo + STREAM_CHUNK - 1, last)
            yield _spiral_chunk(start, r, lo, hi + 1)


def spiral(D: float, r: float, start=ORIGIN) -> TrajectoryStream:
    """The square spiral of pitch r covering the disc of radius D around start."""
    p = as_point(start)
    spiral_turn_count(D, r)  # validate eagerly
    return TrajectoryStream(p, lambda: _spiral_blocks(D, r, p))


# ---------------------------------------------------------------------------
# Sector sweep (advice of size >= 2)
# ---------------------------------------------------------------------------
#
# The sweep visits the centers of all tiles meeting the truncated sector,
# column by column: approach the bottom tile center, ride the column up to
# the top center, come back down, and step one tile size to the next column.
# The opening move from the apex to the first center has length r/sqrt(2);
# every other move is an exact axis move in the tiling frame.


def _sweep_lengths(heights: np.ndarray, r: float, first: bool) -> np.ndarray:
    m = heights.size
    out = np.empty(3 * m)
    rise = heights.astype(np.float64) * r
    out[0::3] = r
    out[1::3] = rise
    out[2::3] = rise
    if first:
        out[0] = math.hypot(0.5 * r, 0.5 * r)
    return out


def _sweep_chunk(frame: TileFrame, wedge: float, D: float, r: float, u_lo: int, u_hi: int) -> Block:
    heights = column_heights(wedge, D, r, u_lo, u_hi)
    m = heights.size
    u = np.arange(u_lo, u_hi, dtype=np.float64)
    fx = np.repeat((u + 0.5) * r, 3)
    fy = np.empty(3 * m)
    fy[0::3] = 0.5 * r
    fy[1::3] = (heights.astype(np.float64) + 0.5) * r
    fy[2::3] = 0.5 * r
    world = frame.to_world(np.column_stack((fx, fy)))
    if u_lo == 0:
        head = np.array([[frame.apex.x, frame.apex.y]])
    else:
        head = frame.to_world(np.array([[(u_lo - 1 + 0.5) * r, 0.5 * r]]))
    pts = np.concatenate([head, world])
    return Block(pts, _sweep_lengths(heights, r, first=(u_lo == 0)))


def _sweep_blocks(sector, D: float, r: float, reverse: bool = False) -> Iterator[Block]:
    frame = TileFrame(sector.apex, sector.cw_ray_angle, r)
    wedge = sector.wedge_angle
    n = column_count(D, r)
    if reverse:
        for hi in range(n, 0, -STREAM_CHUNK):
            lo = max(hi - STREAM_CHUNK, 0)
            yield flip_block(_sweep_chunk(frame, wedge, D, r, lo, hi))
    else:
        for lo in range(0, n, STREAM_CHUNK):
            hi = min(lo + STREAM_CHUNK, n)
            yield _sweep_chunk(frame, wedge, D, r, lo, hi)


def basic_traversal_with_advice(w: AdviceString, D: float, r: float, start=ORIGIN) -> TrajectoryStream:
    """Column sweep of the advice sector truncated to radius D, one-way.

    Needs at least 2 advice bits; shorter advice cannot aim a sector and the
    caller must take the spiral branch instead.
    """
    if len(w) < 2:
        raise PreconditionError("sector sweep needs an advice string of at least 2 bits")
    p = as_point(start)
    sector = decode_sector(w, p)
    spiral_turn_count(D, r)  # shared D/r validation
    return TrajectoryStream(p, lambda: _sweep_blocks(sector, D, r))


def traversal_blocks(z: int, w: AdviceString, D: float, r: float, start, reverse: bool = False) -> Iterator[Block]:
    """Forward or exactly-reversed blocks of the size-z basic traversal."""
    p = as_point(start)
    if z >= 2:
        sector = decode_sector(w, p)
        return _sweep_blocks(sector, D, r, reverse=reverse)
    return _spiral_blocks(D, r, p, reverse=reverse)


def basic_traversal(z: int, w: AdviceString, D: float, r: float, start=ORIGIN) -> TrajectoryStream:
    """Aim with the advice sector when z >= 2, otherwise spiral outwards.

    One-way: the stream ends wherever the sweep ends; callers needing a round
    trip concatenate the exactly-reversed blocks.
    """
    if len(w) != z:
        raise PreconditionError(f"advice string length {len(w)} does not match size {z}")
    if z >= 2:
        return basic_traversal_with_advice(w, D, r, start)
    return spiral(D, r, start)


def _fold(carry: float, lengths: np.ndarray) -> float:
    if lengths.size == 0:
        return carry
    return float(np.cumsum(np.concatenate(([carry], lengths)))[-1])


def basic_cost(z: int, D: float, r: float) -> float:
    """Exact one-way length of ``basic_traversal(z, ., D, r)``.

    Computed from column heights (or the spiral instruction list) without
    materializing segments; equals the materialized polyline length exactly
    whenever the stream stays within the materialization guard.  Sweeps with
    more than MAX_COLUMNS columns raise rather than approximate.
    """
    if not isinstance(z, int) or z < 0:
        raise PreconditionError("advice size must be a nonnegative integer")
    if z <= 1:
        k = spiral_turn_count(D, r)
        if 4 * k + 1 <= SPIRAL_EXACT_SEGMENT_LIMIT:
            total = 0.0
            last = 4 * k + 1
            for lo in range(1, last + 1, 1 << 20):
                hi = min(lo + (1 << 20) - 1, last)
                total = _fold(total, _spiral_lengths(lo, hi + 1, r))
            return total
        width = 2.0 * float(k) + 1.0
        return width * width * r
    total = 0.0
    for lo, heights in column_height_chunks(math.tau / float(1 << z), D, r):
        total = _fold(total, _sweep_lengths(heights, r, first=(lo == 0)))
    return total

