"""Trajectory streams: the square search spiral, sector sweeps, and exact costs.

A stream is a restartable generator of vertex blocks.  Each block carries an
(m+1, 2) vertex array (its first vertex repeats the previous block's last,
so segments chain exactly) plus the authoritative per-segment lengths and
their total.  Move lengths are stored analytically (axis moves in the tiling
frame are exact multiples of the tile size), so costs accumulate without
rotation noise; coordinates agree with the stored lengths to well under the
library's 1e-9 polyline tolerance.

A basic-traversal block holds a lazy ``Piece`` in place of its vertex array:
the piece keeps its end points and builds vertices only when asked, each by
the formula of its own index, so a vertex built alone has the bits it has in
the whole build.

A cell walked out and back can be one ``RoundTrip`` step, which stands for
its blocks without building them: ``TrajectoryStream.steps()`` yields it as
it is, ``blocks()`` expands it, and its ``fold()`` gives its block totals.

Two folds measure a length, and they agree only in exact arithmetic.  The
walker (``sim``) folds block totals left to right: walked + total, block
after block.  ``basic_cost`` folds the per-segment lengths one by one, in
stream order, so it matches the materialized polyline length bit for bit
whenever materialization is feasible; a walked basic traversal can differ
from it in the last bits.  They agree for a spiral of power-of-two r whose
round trip is shorter than 2^53 r: every length is a whole multiple of r,
so every partial sum is exact, and the walked round trip costs exactly
``2 * basic_cost``.  A piece of such lengths carries its totals out and
back, counted in whole multiples of r (``_exact``), and its blocks, flips
and round-trip folds read them without summing.
"""

from __future__ import annotations

import copy
import itertools
import math
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .advice import AdviceString, check_advice, decode_sector
from .errors import BudgetExceededError, PreconditionError, nonnegative_finite, positive_finite
from .bounds import sweep_cost_bound  # noqa: F401  (callers reach it as traversal.sweep_cost_bound)
from .geom import ORIGIN, Point2, Polyline, as_point
from .tiling import STREAM_CHUNK, TileFrame, column_count, column_heights, sector_columns

# The segments ``prefix`` and ``materialize`` pull before the block that crosses
# it (``prefix`` keeps that block when it cuts it short).  Spiral costs fold the
# exact instruction lengths up to that many instructions, then (2k+1)^2 * r.
MAX_STREAM_SEGMENTS = 10**7

_Span = Optional[tuple[int, int]]
_Totals = tuple[Optional[float], Optional[float]]


def _exact(count: int, r: float) -> Optional[float]:
    """``count * r`` when lengths that are whole multiples of r and add up to
    ``count * r`` sum exactly in any order, else None.

    That holds when r is a power of two, ``count`` is below 2^53 and
    ``count * r`` is finite: every partial sum is then a whole multiple of r
    below 2^53 r, which binary64 holds exactly, so ``np.cumsum`` of the
    lengths, forwards or reversed, ends on this value bit for bit.
    """
    if count >= 2**53 or math.frexp(r)[0] != 0.5:
        return None
    total = float(count) * r
    return total if total < math.inf else None


class Piece:
    """The vertices of one basic-traversal piece of ``m`` segments, built only when asked.

    ``first`` and ``last`` are its end points as floats, with the bits of the
    built vertices, and ``scale`` (at least 1) bounds the magnitude of every
    coordinate it builds.  ``build(s0, s1)`` makes the vertices of segments
    [s0, s1) of the piece as it was made, and ``span(qx, qy, reach)`` gives
    the segment range [s0, s1) of it that can come within ``reach`` of
    (qx, qy), or None.  ``totals`` holds the left-to-right sums of its
    lengths walked this way and walked back, each known without summing
    (``_exact``) or None.  A flip walks the same rules backwards, swaps the
    totals and shares the one whole build, which ``points`` makes once.
    """

    __slots__ = ("m", "first", "last", "scale", "totals", "_build", "_span", "_whole", "_back")

    def __init__(self, m: int, first, last, scale: float, build: Callable[[int, int], np.ndarray],
                 span: Callable[[float, float, float], _Span], totals: _Totals,
                 whole: Optional[list] = None, back: bool = False):
        self.m, self.first, self.last, self.scale, self.totals = m, first, last, scale, totals
        self._build, self._span, self._back = build, span, back
        self._whole = [None] if whole is None else whole  # the whole forward build, made once

    def flipped(self) -> Piece:
        """The same piece walked backwards, still lazy."""
        return Piece(self.m, self.last, self.first, self.scale, self._build, self._span, self.totals[::-1],
                     self._whole, not self._back)

    def points(self) -> np.ndarray:
        """All (m+1, 2) vertices, built once and shared with every flip."""
        whole = self._whole[0]
        if whole is None:
            whole = self._whole[0] = self._build(0, self.m)
        return whole[::-1] if self._back else whole

    def vertices(self, s0: int, s1: int) -> np.ndarray:
        """The vertices of segments [s0, s1): rows s0 to s1 of ``points()``, bit for bit."""
        if self._back:
            s0, s1 = self.m - s1, self.m - s0
        whole = self._whole[0]
        pts = self._build(s0, s1) if whole is None else whole[s0 : s1 + 1]
        return pts[::-1] if self._back else pts

    def near(self, qx: float, qy: float, reach: float) -> _Span:
        """The segment range [s0, s1) that can come within ``reach`` of (qx, qy), or None."""
        span = self._span(qx, qy, reach)
        if span is None or not self._back:
            return span
        return self.m - span[1], self.m - span[0]


class Block(NamedTuple):
    """A run of chained segments: its vertex path (m+1 vertices) and stored lengths (m,).

    ``path`` is an (m+1, 2) array, or a ``Piece`` that builds one; ``points``
    reads it as the array either way.  Blocks users build hold arrays.

    ``retrace`` promises that every segment repeats, bit for bit, geometry
    walked earlier in the same ``blocks()`` walk, forwards or backwards (a
    segment cut short by ``prefix_blocks`` lies on the one it was cut from).
    Such a block cannot show a target the earlier pass missed, so the walker
    folds its total but skips its detection test.  ``flip_block`` sets it,
    ``phase_trips`` also sets it on the blocks a trip re-walks, and
    ``prefix_blocks`` keeps it; user-built streams leave it ``False``.

    ``total`` is ``float(np.cumsum(lengths)[-1])``, the left-to-right sum of
    the lengths, or 0.0 for an empty block.  Every field is required: build a
    block with ``Block.of``, which takes the total a piece carries for its
    walking direction and sums the lengths once otherwise.  A flip has its
    own total (``flip_block``), since the other order can round differently.
    """

    path: np.ndarray | Piece
    lengths: np.ndarray
    retrace: bool
    total: float

    @classmethod
    def of(cls, path: np.ndarray | Piece, lengths: np.ndarray, retrace: bool = False) -> Block:
        """The block of this path and these lengths: its total is the piece's own, or summed here."""
        total = path.totals[0] if isinstance(path, Piece) else None
        if total is None:
            total = float(np.cumsum(lengths)[-1]) if lengths.size else 0.0
        return cls(path, lengths, retrace, total)

    @property
    def points(self) -> np.ndarray:
        """The (m+1, 2) vertices; a piece builds them whole, once."""
        path = self.path
        return path.points() if isinstance(path, Piece) else path

    def tagged(self) -> Block:
        """The block tagged a retrace."""
        return self if self.retrace else self._replace(retrace=True)


class TrajectoryStream:
    """Deterministic, restartable sequence of straight moves.

    ``steps()`` returns a fresh generator of the factory's items each call:
    blocks, and ``RoundTrip`` units, each of which stands for its blocks.
    ``blocks()`` gives the same walk with every unit expanded into its
    blocks.  Regenerating a stream yields bit-identical geometry.  Streams may
    be infinite: ``prefix`` and ``materialize`` give a Polyline within the
    MAX_STREAM_SEGMENTS guard.
    """

    def __init__(self, start, block_factory: Callable[[], Iterator[Step]]):
        self.start = as_point(start)
        self._factory = block_factory

    def steps(self) -> Iterator[Step]:
        return self._factory()

    def blocks(self) -> Iterator[Block]:
        for item in self._factory():
            if isinstance(item, RoundTrip):
                yield from item.blocks()
            else:
                yield item

    def prefix(self, arc: float) -> Polyline:
        """Materialize the leading ``arc`` of the stream (may split a segment), within the segment budget."""
        return blocks_to_polyline(prefix_blocks(_budgeted(self.blocks(), MAX_STREAM_SEGMENTS), arc), self.start)

    def materialize(self) -> Polyline:
        """Materialize the whole (finite) stream, within the segment budget."""
        return blocks_to_polyline(_budgeted(self.blocks(), MAX_STREAM_SEGMENTS), self.start)


def _budgeted(blocks: Iterable[Block], max_segments: int) -> Iterator[Block]:
    """The blocks; asking for one after they hold more than ``max_segments`` segments raises BudgetExceededError."""
    seg = 0
    for block in blocks:
        yield block
        seg += block.lengths.size
        if seg > max_segments:
            raise BudgetExceededError(f"stream exceeds {max_segments} segments")


def blocks_to_polyline(blocks: Iterable[Block], start) -> Polyline:
    blocks = [b for b in blocks if b.lengths.size]
    if not blocks:
        return Polyline(np.array([tuple(as_point(start))]), np.zeros(0))
    verts = np.concatenate([blocks[0].points] + [b.points[1:] for b in blocks[1:]])
    lengths = np.concatenate([b.lengths for b in blocks])
    return Polyline(verts, lengths)


def flip_block(block: Block | tuple[np.ndarray | Piece, np.ndarray]) -> Block:
    """The same moves walked backwards (bit-identical vertices, reversed order), tagged a retrace.

    Takes a block or a raw ``(path, lengths)`` pair; a piece's flip stays
    lazy and takes the piece's way-back total.  The reversed lengths are
    summed anew only where the order can matter: a block of at most two
    lengths keeps its total, since a + b == b + a, and any other block
    without a known way-back total is summed (``Block.of``).
    """
    path, lengths = block[0], block[1][::-1]
    path = path.flipped() if isinstance(path, Piece) else path[::-1]
    if lengths.size <= 2 and isinstance(block, Block):
        return Block(path, lengths, True, block.total)
    return Block.of(path, lengths, True)


def prefix_blocks(blocks: Iterable[Step], arc: float) -> List[Step]:
    """The blocks covering exactly the leading ``arc`` of a block sequence.

    The final segment is split when the cut lands inside it; the split piece
    stores the exact arc remainder as its length, and keeps the block's
    retrace tag.  A finite sequence shorter than ``arc`` is returned whole.
    No block past the cut is pulled, and only the block cut is summed again.
    A ``RoundTrip`` the arc covers whole is kept as it is, the arc dropping by
    its folded totals one at a time, as it drops by its blocks' totals; one
    the arc ends inside gives the blocks before the cut as one unit, a part of
    it, and the block cut, which alone is built.
    """
    return _prefix(blocks, nonnegative_finite("prefix arc", arc))


def _prefix(blocks: Iterable[Step], remaining: float) -> List[Step]:
    """``prefix_blocks`` past its arc rule; a unit the arc ends inside is cut by a call on its blocks."""
    out: List[Step] = []
    for block in blocks:
        if block.__class__ is RoundTrip:
            left = remaining
            first = block._run[0]
            for j, total in enumerate(block.fold().totals, first):
                if not total < left:  # the cut lands in block j: the blocks before it stay one unit
                    head = [block._part(first, j)] if j > first else []
                    return out + head + _prefix(block._part(j, j + 1).blocks(), left)
                left -= total
            out.append(block)
            remaining = left
            continue
        if block.lengths.size == 0:
            continue
        if block.total < remaining:
            out.append(block)
            remaining -= block.total
            continue
        # The cut block's total is its cut lengths' cumsum, read off this one.
        cs = np.cumsum(block.lengths)
        idx = int(np.searchsorted(cs, remaining, side="left"))
        whole = block.points
        if cs[idx] == remaining:
            out.append(Block(whole[: idx + 2], block.lengths[: idx + 1], block.retrace, float(cs[idx])))
        else:
            before = float(cs[idx - 1]) if idx else 0.0
            t = min(remaining - before, float(block.lengths[idx]))
            frac = t / float(block.lengths[idx])
            a = whole[idx]
            b = whole[idx + 1]
            split = a + frac * (b - a)
            pts = np.concatenate([whole[: idx + 1], split[None, :]])
            lens = np.concatenate([block.lengths[:idx], [t]])
            out.append(Block(pts, lens, block.retrace, before + t if idx else t))
        return out
    return out


def _flip(item: Step) -> Step:
    """The item walked backwards: ``flip_block`` of a block, ``flipped()`` of a round trip."""
    return item.flipped() if isinstance(item, RoundTrip) else flip_block(item)


def phase_trips(streams: Sequence[TrajectoryStream], arcs: Iterable[float]) -> Iterator[Step]:
    """For each arc in turn, walk each stream's leading ``arc`` out and back to its start.

    Arcs must not shrink: an arc below the last raises PreconditionError before
    its trip yields a block.  Each stream's ``steps()`` is called once per
    walk; a trip re-cuts the items earlier trips pulled and pulls only new
    ones.  The way back is tagged a retrace, and so is every item the previous
    trip walked whole.  Such an item stays whole on longer trips, so its tagged
    copy and its flip are made once, the flip when the way back begins; only
    each trip's last block is flipped anew, with the part before the cut of a
    ``RoundTrip`` that the trip ends inside.  A round trip is one item both
    ways: its flip is the mirrored run of its walk, tagged, and for a whole
    round trip that is itself.
    """
    # Per stream: an unread tee that keeps every item pulled so far (each copy re-reads them), the tagged copies, the flips.
    state = [(itertools.tee(stream.steps(), 1)[0], [], []) for stream in streams]
    previous = -math.inf
    for arc in arcs:
        if (arc := nonnegative_finite("prefix arc", arc)) < previous:
            raise PreconditionError(f"phase trip arcs must not shrink, got {arc} after {previous}")
        previous = arc
        for items, tags, flips in state:
            forward = prefix_blocks(items.__copy__(), arc)
            if not forward:  # the stream holds no segment
                continue
            *body, last = forward  # the last block may be cut, so it is not kept
            rest = [last]
            # Nor is the part before the cut of a round trip that the arc ends inside: it is made anew on
            # each trip, so it is not the stream's own item at its place.
            if body and isinstance(body[-1], RoundTrip):
                if body[-1] is not next(itertools.islice(items.__copy__(), len(body) - 1, None), None):
                    rest.insert(0, body.pop())
            new = body[len(tags) :]
            yield from tags
            yield from new
            tags.extend(item.tagged() for item in new)
            yield from rest
            flips.extend(map(_flip, new))
            yield from map(_flip, reversed(rest))
            yield from reversed(flips)


# ---------------------------------------------------------------------------
# The square search spiral
# ---------------------------------------------------------------------------
#
# Instruction n = 1, 2, ... has length ceil(n/2) * r and direction cycling
# E, S, W, N.  For k = ceil(D/r) the spiral runs 4k+1 instructions, ending
# with the long eastward move of length (2k+1) * r; its total length is
# (2k+1)^2 * r and it passes within r of every point of the square of side
# 2kr centered on the start.  Below, instructions are counted from 0, so
# instruction i is move n = i + 1.  Instruction i lies on ring c_i = (i+3)//4:
# every point of it lies at L-infinity distance c_i * r to (c_i + 1) * r from
# the start.


def _spiral_lengths(lo: int, hi: int, r: float) -> np.ndarray:
    i = np.arange(lo, hi, dtype=np.int64)
    return ((i + 2) // 2).astype(np.float64) * r


def _spiral_totals(lo: int, hi: int, r: float) -> _Totals:
    """The totals of instructions [lo, hi), both ways, where ``_exact`` knows
    them: instruction i counts (i+2)//2 tile sizes, and those of [0, n) add
    up to floor((n+1)^2 / 4)."""
    total = _exact((hi + 1) ** 2 // 4 - (lo + 1) ** 2 // 4, r)
    return total, total


def _spiral_offset(m):
    """Displacement from the start after m instructions, in units of r: exact
    integers, for an int or an int64 array.

    After t_e = (m+3)//4 moves east, t_s = (m+2)//4 south, t_w = (m+1)//4
    west and t_n = m//4 north, the sums t_e^2 - t_w (t_w + 1) and
    t_n (t_n + 1) - t_s^2 reduce to x = t_e when m % 4 is 1 or 2 (-t_e
    otherwise) and y = t_s when m % 4 is 0 or 1 (-t_s otherwise).
    """
    return (((m + 1) & 2) - 1) * ((m + 3) >> 2), (1 - (m & 2)) * ((m + 2) >> 2)


def _spiral_corner(start: Point2, r: float, m: int) -> tuple[float, float]:
    """Vertex m of the spiral: start + offset(m) * r, each integer converted to float, then scaled."""
    ox, oy = _spiral_offset(m)
    return start.x + float(ox) * r, start.y + float(oy) * r


def _spiral_piece(start: Point2, r: float, lo: int, hi: int) -> tuple[Piece, np.ndarray]:
    """The piece of instructions [lo, hi) and its lengths.  Vertex m is start +
    offset(m) * r, so every piece starts where the last one ended, bit for bit."""
    sx, sy = start.x, start.y
    c_lo, c_hi = (lo + 3) // 4, (hi + 2) // 4  # the rings of its first and last instructions

    def build(s0: int, s1: int) -> np.ndarray:
        ox, oy = _spiral_offset(np.arange(lo + s0, lo + s1 + 1, dtype=np.int64))
        pts = np.empty((s1 - s0 + 1, 2))
        pts[:, 0] = sx + ox * r  # each integer is converted to float, then scaled, as in _spiral_corner()
        pts[:, 1] = sy + oy * r
        return pts

    def span(qx: float, qy: float, reach: float) -> _Span:
        # A point within reach of a target at L-infinity distance d from the
        # start lies at d - reach to d + reach, so only rings c with
        # d - reach <= (c + 1) r and c r <= d + reach can hold one.  Rounding
        # is far inside the margin that ``reach`` carries.
        d = max(abs(qx - sx), abs(qy - sy))
        a = max(c_lo, math.ceil(min(max((d - reach) / r, c_lo), c_hi + 2)) - 1)
        b = min(c_hi, math.floor(min(max((d + reach) / r, c_lo - 1), c_hi)))
        s0, s1 = max(lo, 4 * a - 3) - lo, min(hi, 4 * b + 1) - lo  # ring c holds instructions 4c - 3 to 4c
        return (s0, s1) if s0 < s1 else None

    scale = max(1.0, max(abs(sx), abs(sy)) + (c_hi + 2) * r)
    first, last = _spiral_corner(start, r, lo), _spiral_corner(start, r, hi)
    return Piece(hi - lo, first, last, scale, build, span, _spiral_totals(lo, hi, r)), _spiral_lengths(lo, hi, r)


# ---------------------------------------------------------------------------
# Sector sweep (advice of size >= 2)
# ---------------------------------------------------------------------------
#
# The sweep visits the centers of all tiles meeting the truncated sector,
# column by column: approach the bottom tile center, ride the column up to
# the top center, come back down, and step one tile size to the next column.
# The opening move from the apex to the first center has length r/sqrt(2);
# every other move is an exact axis move in the tiling frame.  In that frame
# column u's moves lie at x = (u - 1/2) r to (u + 1/2) r and y = 0 to
# (v_max + 1/2) r.


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


def _sweep_totals(heights: np.ndarray, D: float, r: float, first: bool) -> _Totals:
    """The totals of the columns ``heights``, out and back, where ``_exact`` knows them.

    Column j counts 1 + 2 h_j tile sizes.  No height reaches D/r + 1, so
    their int64 sum cannot wrap while D/r < 2^50.  The opening piece's r/sqrt(2)
    move is no multiple of r: its way out is left to be summed, and its way
    back, which adds that move last to an exact sum, rounds once.
    """
    if math.frexp(r)[0] != 0.5 or not D / r < 2.0**50:  # before the sum: r of no power of two sums no heights
        return None, None
    count = heights.size + 2 * int(heights.sum())
    if not first:
        total = _exact(count, r)
        return total, total
    rest = _exact(count - 1, r)
    return None, (None if rest is None else rest + math.hypot(0.5 * r, 0.5 * r))


def _sweep_corner(frame: TileFrame, r: float, u: int) -> tuple[float, float]:
    """Where the sweep stands before column u: the apex for u = 0, else column
    u - 1's foot, mapped by the operations of ``TileFrame.to_world``."""
    ax, ay = frame.apex.x, frame.apex.y
    if u == 0:
        return ax, ay
    (xx, xy), (yx, yy) = frame.basis()
    fx, fy = (float(u - 1) + 0.5) * r, 0.5 * r
    return ax + fx * xx + fy * yx, ay + fx * xy + fy * yy


def _sweep_piece(frame: TileFrame, wedge: float, D: float, r: float, u_lo: int, u_hi: int) -> tuple[Piece, np.ndarray]:
    """The piece of columns [u_lo, u_hi) and its lengths.  Its vertices are the
    head (the previous column's foot, or the apex), then each column's foot,
    top and foot, each mapped by ``TileFrame.to_world`` from its frame point."""
    heights = column_heights(wedge, D, r, u_lo, u_hi)
    n = heights.size
    (xx, xy), (yx, yy) = frame.basis()
    ax, ay = frame.apex.x, frame.apex.y
    foot = 0.5 * r

    def build(s0: int, s1: int) -> np.ndarray:
        j0, j1 = s0 // 3, -(-s1 // 3)  # the columns whose frame rows hold vertices s0 to s1
        f = np.empty((3 * (j1 - j0) + 1, 2))
        f[:, 0] = np.repeat((np.arange(u_lo + j0 - 1, u_lo + j1, dtype=np.float64) + 0.5) * r, 3)[2:]
        f[:, 1] = foot
        f[2::3, 1] = (heights[j0:j1].astype(np.float64) + 0.5) * r
        pts = frame.to_world(f[s0 - 3 * j0 : s1 - 3 * j0 + 1])
        if s0 == 0 and u_lo == 0:
            pts[0] = (ax, ay)
        return pts

    def span(qx: float, qy: float, reach: float) -> _Span:
        dx, dy = qx - ax, qy - ay
        fx, fy = dx * xx + dy * xy, dx * yx + dy * yy  # the target in the frame (TileFrame.to_frame)
        lo_col, hi_col = (fx - reach) / r - 0.5, (fx + reach) / r + 0.5
        if not (lo_col <= u_hi and hi_col >= u_lo - 1 and fy >= -reach):
            return None
        # The columns u with lo_col <= u <= hi_col, within reach across ...
        j0 = max(0, math.ceil(max(lo_col, u_lo - 1)) - u_lo)
        j1 = min(n, math.floor(min(hi_col, u_hi)) + 1 - u_lo)
        # ... less those at either end whose top lies out of reach below the target.
        while j0 < j1 and (heights[j0] + 0.5) * r < fy - reach:
            j0 += 1
        while j0 < j1 and (heights[j1 - 1] + 0.5) * r < fy - reach:
            j1 -= 1
        return (3 * j0, 3 * j1) if j0 < j1 else None

    scale = max(1.0, abs(ax) + abs(ay) + 2.0 * (D + 2.0 * r))
    first = u_lo == 0
    totals = _sweep_totals(heights, D, r, first)
    piece = Piece(3 * n, _sweep_corner(frame, r, u_lo), _sweep_corner(frame, r, u_hi), scale, build, span, totals)
    return piece, _sweep_lengths(heights, r, first)


# ---------------------------------------------------------------------------
# The basic traversal: one stream, or one round trip
# ---------------------------------------------------------------------------


def _chunked(n: int, piece: Callable[[int, int], tuple[Piece, np.ndarray]]) -> Iterator[Block]:
    """Blocks of the ``(piece, lengths)`` that ``piece(lo, hi)`` makes over [0, n), in STREAM_CHUNK pieces from 0."""
    for lo in range(0, n, STREAM_CHUNK):
        yield Block.of(*piece(lo, min(lo + STREAM_CHUNK, n)))


def _summed(totals: _Totals, lengths: Callable[[], np.ndarray]) -> tuple[float, float]:
    """``totals`` with each unknown one summed from ``lengths()``, made once:
    forwards as ``Block.of`` sums the way out, reversed as ``flip_block``
    sums the way back."""
    out, back = totals
    if out is None or back is None:
        lens = lengths()
        if out is None:
            out = float(np.cumsum(lens)[-1])
        if back is None:
            back = float(np.cumsum(lens[::-1])[-1])
    return out, back


def _traversal(z: int, w: AdviceString, D: float, r: float, start) -> tuple[int, Callable, Callable, Callable]:
    """Count and makers of the way out: spiral instructions when z <= 1, sweep columns otherwise.

    ``piece(lo, hi)`` makes the piece of [lo, hi) and its lengths,
    ``sums(lo, hi)`` its totals out and back and its segment count without
    the piece, and ``corner(m)`` the point where the piece starting at m
    starts (m = n: where the last ends), with the bits of the built vertex.
    """
    z, r, D = check_advice(z, w), positive_finite("vision radius", r), positive_finite("range bound", D)
    k = column_count(D, r)
    p = as_point(start)
    if z <= 1:
        return (
            4 * k + 1,
            lambda lo, hi: _spiral_piece(p, r, lo, hi),
            lambda lo, hi: (*_summed(_spiral_totals(lo, hi, r), lambda: _spiral_lengths(lo, hi, r)), hi - lo),
            lambda m: _spiral_corner(p, r, m),
        )
    sector = decode_sector(w, p)
    frame = TileFrame(sector.apex, sector.cw_ray_angle, r)
    wedge = sector.wedge_angle

    def sums(lo: int, hi: int) -> tuple[float, float, int]:
        heights, first = column_heights(wedge, D, r, lo, hi), lo == 0
        out, back = _summed(_sweep_totals(heights, D, r, first), lambda: _sweep_lengths(heights, r, first))
        return out, back, 3 * heights.size

    return k, lambda lo, hi: _sweep_piece(frame, wedge, D, r, lo, hi), sums, lambda u: _sweep_corner(frame, r, u)


def basic_traversal(z: int, w: AdviceString, D: float, r: float, start=ORIGIN) -> TrajectoryStream:
    """Aim with the advice sector when z >= 2, otherwise spiral outwards.

    One-way: the stream ends wherever the sweep ends; ``round_trip_blocks``
    walks it out and back.
    """
    n, piece, _, _ = _traversal(z, w, D, r, start)
    return TrajectoryStream(start, lambda: _chunked(n, piece))


def spiral(D: float, r: float, start=ORIGIN) -> TrajectoryStream:
    """The square spiral of pitch r covering the disc of radius D around start."""
    return basic_traversal(0, "", D, r, start)


class Fold(NamedTuple):
    """A round trip's block totals in walking order, and its segment count."""

    totals: tuple[float, ...]
    segments: int


class RoundTrip:
    """``round_trip_blocks(z, w, D, r, start)`` of one cell, as one unit not yet built.

    Every vertex of the cell lies within ``radius`` = sqrt(2) (D + 2r) of
    ``start``: every sweep vertex within sqrt(2) (D + r/2), every spiral
    vertex within sqrt(2) (k + 1) r, where k = ceil(D/r).  ``pieces`` counts
    its way-out pieces, so the walk has 2 * pieces blocks.  A unit stands for
    a run of those blocks, all of them unless it is a part that
    ``prefix_blocks`` cut off; ``first`` and ``last`` are where that run
    starts and ends, with the bits of the built vertices.  ``blocks()`` makes
    the run's blocks, every one tagged a retrace when the unit is
    ``tagged()``, and ``flipped()`` is the run walked backwards, tagged: the
    mirrored run, which for the whole walk is the walk itself.  ``fold()``
    gives the run's totals and segment count without making any piece, flip
    or vertex.  ``lengths`` holds every segment length of the run in walking
    order; it is made anew on each read, for a reader that counts segments as
    it counts a block's.
    """

    __slots__ = ("start", "radius", "pieces", "retrace", "_n", "_piece", "_sums", "_corner", "_run", "_fold")

    def __init__(self, z: int, w: AdviceString, D: float, r: float, start):
        D, r = positive_finite("range bound", D), positive_finite("vision radius", r)
        self._n, self._piece, self._sums, self._corner = _traversal(z, w, D, r, start)
        self.start = as_point(start)
        self.radius = math.sqrt(2.0) * (D + 2.0 * r)
        self.pieces = -(-self._n // STREAM_CHUNK)
        self.retrace = False
        self._run = (0, 2 * self.pieces)
        self._fold: list = [None]  # the whole walk's (totals, segment counts), made once and shared with every copy

    def _at(self, j: int) -> tuple[float, float]:
        """Where the walk stands after j of its blocks."""
        k = j if j <= self.pieces else 2 * self.pieces - j
        return self._corner(min(k * STREAM_CHUNK, self._n))

    @property
    def first(self) -> tuple[float, float]:
        return self._at(self._run[0])

    @property
    def last(self) -> tuple[float, float]:
        return self._at(self._run[1])

    def _part(self, lo: int, hi: int) -> RoundTrip:
        """Blocks [lo, hi) of the walk, as a unit with this one's tag."""
        part = copy.copy(self)
        part._run = (lo, hi)
        return part

    def tagged(self) -> RoundTrip:
        """The same unit tagged a retrace."""
        if self.retrace:
            return self
        twin = copy.copy(self)
        twin.retrace = True
        return twin

    def flipped(self) -> RoundTrip:
        """The run walked backwards, tagged: walking a block backwards repeats the
        block at the mirrored place of the walk, which flips the same piece."""
        lo, hi = self._run
        twin = self._part(2 * self.pieces - hi, 2 * self.pieces - lo)
        twin.retrace = True
        return twin

    def blocks(self) -> Iterator[Block]:
        """The run's blocks: of the walk out, then back over its own pieces.

        The way back flips the last piece as it was made and makes the others
        again with the same ``piece(lo, hi)`` calls, last first, so each way-back
        block is the exact flip of a way-out block; no piece is stored, and a
        piece made again is summed only by its flip.
        """
        n, piece, pieces = self._n, self._piece, self.pieces
        block = None
        for j in range(*self._run):
            if j < pieces:
                lo = j * STREAM_CHUNK
                block = Block.of(*piece(lo, min(lo + STREAM_CHUNK, n)), self.retrace)
            elif j == pieces and block is not None:
                block = flip_block(block)
            else:
                lo = (2 * pieces - 1 - j) * STREAM_CHUNK
                block = flip_block(piece(lo, min(lo + STREAM_CHUNK, n)))
            yield block

    def fold(self) -> Fold:
        """The totals of ``blocks()`` in walking order, and their segment count.

        Each piece's totals are taken as its block and its flip take them: a
        total the piece carries is made without any lengths array (a spiral
        piece from its instruction range, a sweep piece from its column
        heights), and any other is summed with ``np.cumsum`` from the lengths,
        made once, so every total has the bits of its block's.
        """
        whole = self._fold[0]
        if whole is None:
            n, sums = self._n, self._sums
            out, back, sizes = [], [], []
            for lo in range(0, n, STREAM_CHUNK):
                a, b, m = sums(lo, min(lo + STREAM_CHUNK, n))
                out.append(a)
                back.append(b)
                sizes.append(m)
            whole = self._fold[0] = (tuple(out + back[::-1]), tuple(sizes + sizes[::-1]))
        lo, hi = self._run
        return Fold(whole[0][lo:hi], sum(whole[1][lo:hi]))

    @property
    def lengths(self) -> np.ndarray:
        n, pieces, out = self._n, self.pieces, []
        for j in range(*self._run):
            lo = (j if j < pieces else 2 * pieces - 1 - j) * STREAM_CHUNK
            lens = self._piece(lo, min(lo + STREAM_CHUNK, n))[1]
            out.append(lens if j < pieces else lens[::-1])
        return np.concatenate(out)


Step = Union[Block, RoundTrip]


def round_trip_blocks(z: int, w: AdviceString, D: float, r: float, start) -> Iterator[Block]:
    """The size-z basic traversal out, then walked back over its own pieces: ``RoundTrip.blocks()``."""
    yield from RoundTrip(z, w, D, r, start).blocks()


def basic_cost(z: int, D: float, r: float) -> float:
    """Exact one-way length of ``basic_traversal(z, ., D, r)``.

    Folds the stream's per-segment lengths in STREAM_CHUNK pieces, in stream
    order, without building vertices, so it equals the materialized polyline
    length bit for bit.  Spirals past MAX_STREAM_SEGMENTS instructions
    take the closed form; sweeps with more than MAX_COLUMNS columns raise.
    """
    z, r = check_advice(z), positive_finite("vision radius", r)
    if z <= 1:
        k = column_count(D, r)
        n = 4 * k + 1
        if n > MAX_STREAM_SEGMENTS:
            width = 2.0 * float(k) + 1.0
            return width * width * r
        pieces = (_spiral_lengths(lo, min(lo + STREAM_CHUNK, n), r) for lo in range(0, n, STREAM_CHUNK))
    else:
        pieces = (_sweep_lengths(h, r, first=(i == 0)) for i, h in enumerate(sector_columns(z, D, r)))
    total = 0.0
    for lengths in pieces:  # cumsum adds in order, so the piece size cannot change the sum
        total = float(np.cumsum(np.concatenate(([total], lengths)))[-1])
    return total
