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

import copy
import itertools
import math
from typing import Callable, Iterable, Iterator, List, NamedTuple, Sequence

import numpy as np

from .advice import AdviceString, check_advice, decode_sector
from .errors import BudgetExceededError, PreconditionError
from .bounds import sweep_cost_bound  # noqa: F401  (callers reach it as traversal.sweep_cost_bound)
from .geom import ORIGIN, Point2, Polyline, as_point
from .tiling import STREAM_CHUNK, TileFrame, column_count, column_heights, sector_columns

# Spiral costs fold the exact instruction lengths while the instruction count
# stays materializable; beyond that the closed form (2k+1)^2 * r is used.
SPIRAL_EXACT_SEGMENT_LIMIT = 10**7

_DIR_X = np.array([1.0, 0.0, -1.0, 0.0])  # E, S, W, N
_DIR_Y = np.array([0.0, -1.0, 0.0, 1.0])


class Block(NamedTuple):
    """A run of chained segments: vertices (m+1, 2) and stored lengths (m,).

    ``retrace`` promises that every segment repeats, bit for bit, geometry
    walked earlier in the same ``blocks()`` walk, forwards or backwards (a
    segment cut short by ``prefix_blocks`` lies on the one it was cut from).
    Such a block cannot show a target the earlier pass missed, so the walker
    folds its lengths but skips its detection test.  ``flip_block`` sets it,
    ``phase_trips`` also sets it on the blocks a trip re-walks, and
    ``prefix_blocks`` keeps it; user-built streams leave it ``False``.
    """

    points: np.ndarray
    lengths: np.ndarray
    retrace: bool = False


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
        return blocks_to_polyline(prefix_blocks(self.blocks(), arc), self.start)

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
    """The same moves walked backwards (bit-identical vertices, reversed order), tagged a retrace."""
    return Block(block.points[::-1], block.lengths[::-1], True)


def prefix_blocks(blocks: Iterable[Block], arc: float) -> List[Block]:
    """The blocks covering exactly the leading ``arc`` of a block sequence.

    The final segment is split when the cut lands inside it; the split piece
    stores the exact arc remainder as its length, and keeps the block's
    retrace tag.  A finite sequence shorter than ``arc`` is returned whole.
    No block past the cut is pulled.
    """
    if not 0.0 <= arc < math.inf:
        raise PreconditionError(f"prefix arc must be nonnegative and finite, got {arc}")
    out: List[Block] = []
    remaining = arc
    for block in blocks:
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
            out.append(Block(block.points[: idx + 2], block.lengths[: idx + 1], block.retrace))
        else:
            before = float(cs[idx - 1]) if idx else 0.0
            t = min(remaining - before, float(block.lengths[idx]))
            frac = t / float(block.lengths[idx])
            a = block.points[idx]
            b = block.points[idx + 1]
            split = a + frac * (b - a)
            pts = np.concatenate([block.points[: idx + 1], split[None, :]])
            lens = np.concatenate([block.lengths[:idx], [t]])
            out.append(Block(pts, lens, block.retrace))
        return out
    return out


def phase_trips(streams: Sequence[TrajectoryStream], arcs: Iterable[float]) -> Iterator[Block]:
    """For each arc in turn, walk each stream's leading ``arc`` out and back to its start.

    Each stream's ``blocks()`` is called once per walk.  A trip re-cuts the
    whole blocks that earlier trips pulled with ``prefix_blocks``, and pulls
    only new ones.  The way back is tagged a retrace, and so are the blocks
    the stream's previous trip walked whole: every forward block but its last.
    """
    # An unread tee per stream keeps every block pulled so far, whole; each
    # copy re-reads them and then pulls from the stream, never past the cut.
    pulled = [itertools.tee(stream.blocks(), 1)[0] for stream in streams]
    whole = [0] * len(streams)
    for arc in arcs:
        for i, blocks in enumerate(pulled):
            forward = prefix_blocks(copy.copy(blocks), arc)
            for j, block in enumerate(forward):
                yield block._replace(retrace=True) if j < whole[i] else block
            for block in reversed(forward):
                yield flip_block(block)
            whole[i] = len(forward) - 1


# ---------------------------------------------------------------------------
# The square search spiral
# ---------------------------------------------------------------------------
#
# Instruction n = 1, 2, ... has length ceil(n/2) * r and direction cycling
# E, S, W, N.  For k = ceil(D/r) the spiral runs 4k+1 instructions, ending
# with the long eastward move of length (2k+1) * r; its total length is
# (2k+1)^2 * r and it passes within r of every point of the square of side
# 2kr centered on the start.  Below, instructions are counted from 0, so
# instruction i is move n = i + 1.


def _spiral_lengths(lo: int, hi: int, r: float) -> np.ndarray:
    i = np.arange(lo, hi, dtype=np.int64)
    return ((i + 2) // 2).astype(np.float64) * r


def _spiral_offset(m: int, r: float) -> tuple[float, float]:
    """Exact displacement from the start after m instructions."""
    t_e = (m + 3) // 4
    t_s = (m + 2) // 4
    t_w = (m + 1) // 4
    t_n = m // 4
    x = float(t_e * t_e - t_w * (t_w + 1)) * r
    y = float(t_n * (t_n + 1) - t_s * t_s) * r
    return x, y


def _spiral_chunk(start: Point2, r: float, lo: int, hi: int) -> Block:
    ox, oy = _spiral_offset(lo, r)
    lengths = _spiral_lengths(lo, hi, r)
    idx = np.arange(lo, hi, dtype=np.int64) % 4
    dx = _DIR_X[idx] * lengths
    dy = _DIR_Y[idx] * lengths
    m = lengths.size
    pts = np.empty((m + 1, 2))
    pts[0, 0] = start.x + ox
    pts[0, 1] = start.y + oy
    pts[1:, 0] = (start.x + ox) + np.cumsum(dx)
    pts[1:, 1] = (start.y + oy) + np.cumsum(dy)
    return Block(pts, lengths)


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


# ---------------------------------------------------------------------------
# The basic traversal: one stream, or one round trip
# ---------------------------------------------------------------------------


def _chunked(n: int, chunk: Callable[[int, int], Block]) -> Iterator[Block]:
    """``chunk(lo, hi)`` over [0, n) in STREAM_CHUNK pieces from 0."""
    for lo in range(0, n, STREAM_CHUNK):
        yield chunk(lo, min(lo + STREAM_CHUNK, n))


def _traversal(z: int, w: AdviceString, D: float, r: float, start) -> tuple[int, Callable[[int, int], Block]]:
    """Piece count and piece maker: spiral instructions when z <= 1, sweep columns otherwise."""
    check_advice(z, w)
    k = column_count(D, r)
    p = as_point(start)
    if z <= 1:
        return 4 * k + 1, lambda lo, hi: _spiral_chunk(p, r, lo, hi)
    sector = decode_sector(w, p)
    frame = TileFrame(sector.apex, sector.cw_ray_angle, r)
    return k, lambda lo, hi: _sweep_chunk(frame, sector.wedge_angle, D, r, lo, hi)


def basic_traversal(z: int, w: AdviceString, D: float, r: float, start=ORIGIN) -> TrajectoryStream:
    """Aim with the advice sector when z >= 2, otherwise spiral outwards.

    One-way: the stream ends wherever the sweep ends; ``round_trip_blocks``
    walks it out and back.
    """
    n, chunk = _traversal(z, w, D, r, start)
    return TrajectoryStream(start, lambda: _chunked(n, chunk))


def spiral(D: float, r: float, start=ORIGIN) -> TrajectoryStream:
    """The square spiral of pitch r covering the disc of radius D around start."""
    return basic_traversal(0, "", D, r, start)


def round_trip_blocks(z: int, w: AdviceString, D: float, r: float, start) -> Iterator[Block]:
    """The size-z basic traversal out, then walked back over its own pieces.

    The way back flips the last piece as it was built and rebuilds the others
    with the same ``chunk(lo, hi)`` calls, last first, so each way-back block
    is the exact flip of a way-out block; no piece is stored.
    """
    n, chunk = _traversal(z, w, D, r, start)
    for block in _chunked(n, chunk):  # column_count rejects r > D, so n >= 1
        yield block
    yield flip_block(block)
    for lo in reversed(range(0, n, STREAM_CHUNK)[:-1]):
        yield flip_block(chunk(lo, lo + STREAM_CHUNK))


def basic_cost(z: int, D: float, r: float) -> float:
    """Exact one-way length of ``basic_traversal(z, ., D, r)``.

    Folds the stream's per-segment lengths in STREAM_CHUNK pieces, in stream
    order, without building vertices, so it equals the materialized polyline
    length bit for bit.  Spirals past SPIRAL_EXACT_SEGMENT_LIMIT instructions
    take the closed form; sweeps with more than MAX_COLUMNS columns raise.
    """
    if check_advice(z) <= 1:
        k = column_count(D, r)
        n = 4 * k + 1
        if n > SPIRAL_EXACT_SEGMENT_LIMIT:
            width = 2.0 * float(k) + 1.0
            return width * width * r
        pieces = (_spiral_lengths(lo, min(lo + STREAM_CHUNK, n), r) for lo in range(0, n, STREAM_CHUNK))
    else:
        pieces = (_sweep_lengths(h, r, first=(i == 0)) for i, h in enumerate(sector_columns(z, D, r)))
    total = 0.0
    for lengths in pieces:  # cumsum adds in order, so the piece size cannot change the sum
        total = float(np.cumsum(np.concatenate(([total], lengths)))[-1])
    return total
