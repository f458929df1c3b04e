"""Trajectory streams: the square search spiral, sector sweeps, and exact costs.

A stream is a restartable generator of vertex blocks.  Each block carries an
(m+1, 2) vertex array (its first vertex repeats the previous block's last,
so segments chain exactly) plus the authoritative per-segment lengths and
their total.  Move lengths are stored analytically (axis moves in the tiling
frame are exact multiples of the tile size), so costs accumulate without
rotation noise; coordinates agree with the stored lengths to well under the
library's 1e-9 polyline tolerance.

Two folds measure a length, and they agree only in exact arithmetic.  The
walker (``sim``) folds block totals left to right: walked + total, block
after block.  ``basic_cost`` folds the per-segment lengths one by one, in
stream order, so it matches the materialized polyline length bit for bit
whenever materialization is feasible; a walked basic traversal can differ
from it in the last bits.
"""

from __future__ import annotations

import copy
import itertools
import math
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence

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
    folds its total but skips its detection test.  ``flip_block`` sets it,
    ``phase_trips`` also sets it on the blocks a trip re-walks, and
    ``prefix_blocks`` keeps it; user-built streams leave it ``False``.

    ``total`` is ``float(np.cumsum(lengths)[-1])``, the left-to-right sum of
    the lengths, or 0.0 for an empty block.  Every block the library builds
    sums it once, when the block is made; a flip sums its own reversed
    lengths, since the other order can round differently.  A user-built block
    may leave it ``None``, and ``_block_total`` then sums it where needed; a
    user-built block that sets it must set that same sum.
    """

    points: np.ndarray
    lengths: np.ndarray
    retrace: bool = False
    total: Optional[float] = None


def _sum(lengths: np.ndarray) -> float:
    """The left-to-right sum a block's ``total`` holds: the last entry of the cumsum."""
    return float(np.cumsum(lengths)[-1]) if lengths.size else 0.0


def _block_total(block: Block) -> float:
    """The block's total; a user-built block that carries none is summed here."""
    return _sum(block.lengths) if block.total is None else block.total


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
    """The same moves walked backwards (bit-identical vertices, reversed order), tagged a retrace.

    Its total sums the reversed lengths anew: the other order can round differently.
    """
    lengths = block.lengths[::-1]
    return Block(block.points[::-1], lengths, True, _sum(lengths))


def prefix_blocks(blocks: Iterable[Block], arc: float) -> List[Block]:
    """The blocks covering exactly the leading ``arc`` of a block sequence.

    The final segment is split when the cut lands inside it; the split piece
    stores the exact arc remainder as its length, and keeps the block's
    retrace tag.  A finite sequence shorter than ``arc`` is returned whole.
    No block past the cut is pulled, and only the block cut is summed again.
    """
    if not 0.0 <= arc < math.inf:
        raise PreconditionError(f"prefix arc must be nonnegative and finite, got {arc}")
    out: List[Block] = []
    remaining = arc
    for block in blocks:
        if block.lengths.size == 0:
            continue
        total = _block_total(block)
        if total < remaining:
            out.append(block)
            remaining -= total
            continue
        # The cut block's total is its cut lengths' cumsum, read off this one.
        cs = np.cumsum(block.lengths)
        idx = int(np.searchsorted(cs, remaining, side="left"))
        if cs[idx] == remaining:
            out.append(Block(block.points[: idx + 2], block.lengths[: idx + 1], block.retrace, float(cs[idx])))
        else:
            before = float(cs[idx - 1]) if idx else 0.0
            t = min(remaining - before, float(block.lengths[idx]))
            frac = t / float(block.lengths[idx])
            a = block.points[idx]
            b = block.points[idx + 1]
            split = a + frac * (b - a)
            pts = np.concatenate([block.points[: idx + 1], split[None, :]])
            lens = np.concatenate([block.lengths[:idx], [t]])
            out.append(Block(pts, lens, block.retrace, before + t if idx else t))
        return out
    return out


def phase_trips(streams: Sequence[TrajectoryStream], arcs: Iterable[float]) -> Iterator[Block]:
    """For each arc in turn, walk each stream's leading ``arc`` out and back to its start.

    Each stream's ``blocks()`` is called once per walk.  A trip re-cuts the
    whole blocks that earlier trips pulled with ``prefix_blocks``, and pulls
    only new ones.  The way back is tagged a retrace, and so are the blocks
    the stream's previous trip walked whole: every forward block but its last.
    The tagged copy and the flip of a block walked whole are made once and
    yielded again by later trips; only each trip's last block is flipped anew.
    """
    # An unread tee per stream keeps every block pulled so far, whole; each
    # copy re-reads them and then pulls from the stream, never past the cut.
    pulled = [itertools.tee(stream.blocks(), 1)[0] for stream in streams]
    tagged: List[List[Block]] = [[] for _ in streams]
    flipped: List[List[Block]] = [[] for _ in streams]
    whole = [0] * len(streams)
    for arc in arcs:
        for i, blocks in enumerate(pulled):
            forward = prefix_blocks(copy.copy(blocks), arc)
            if not forward:  # the stream holds no segment
                continue
            *body, last = forward  # the last block may be cut, so it is not kept
            n = len(body)
            tags, flips = tagged[i], flipped[i]
            for block in body[len(flips) :]:
                tags.append(block if block.retrace else block._replace(retrace=True))
                flips.append(flip_block(block))
            kept = min(whole[i], n)
            yield from tags[:kept]
            yield from body[kept:]
            yield last._replace(retrace=True) if n < whole[i] else last
            yield flip_block(last)
            yield from reversed(flips[:n])
            whole[i] = n


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


def _spiral_chunk(start: Point2, r: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
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
    return pts, lengths


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


def _sweep_chunk(frame: TileFrame, wedge: float, D: float, r: float, u_lo: int, u_hi: int) -> tuple[np.ndarray, np.ndarray]:
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
    return pts, _sweep_lengths(heights, r, first=(u_lo == 0))


# ---------------------------------------------------------------------------
# The basic traversal: one stream, or one round trip
# ---------------------------------------------------------------------------


def _chunked(n: int, chunk: Callable[[int, int], tuple[np.ndarray, np.ndarray]]) -> Iterator[Block]:
    """Blocks of the ``(points, lengths)`` that ``chunk(lo, hi)`` makes over [0, n), in STREAM_CHUNK pieces from 0."""
    for lo in range(0, n, STREAM_CHUNK):
        points, lengths = chunk(lo, min(lo + STREAM_CHUNK, n))
        yield Block(points, lengths, total=_sum(lengths))


def _traversal(z: int, w: AdviceString, D: float, r: float, start) -> tuple[int, Callable[[int, int], tuple]]:
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
        yield flip_block(Block(*chunk(lo, lo + STREAM_CHUNK)))


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
