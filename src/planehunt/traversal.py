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
A basic traversal's way out is one such unit, a part of its own round trip;
``RoundTrip.split`` cuts it about one target into the spans that target
cannot see, which fold from counts, and the pieces it can.

Lengths add exactly.  Every finite binary64 is a whole number of units of
2^-1074 (``units``), so a block's total and every arc within it are exact
ints in those units, and they add alike in any order and over any block
partition.  A basic traversal walks whole tile sizes r: a piece counts them
from its instruction range or its column heights, plus the sweep's opening
move of r/sqrt(2) as stored, and carries count * units(r) without summing
its lengths.  A cost is rounded once, when it is reported (``rounded``), so
``basic_cost`` is the same count rounded, and a walked round trip costs
exactly ``2 * basic_cost``.
"""

from __future__ import annotations

import bisect
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
# it (``prefix`` keeps that block when it cuts it short).
MAX_STREAM_SEGMENTS = 10**7

_Span = Optional[tuple[int, int]]


def units(x: float) -> int:
    """The finite float x as an exact whole number of units of 2^-1074, the smallest binary64 step."""
    n, d = x.as_integer_ratio()  # d is a power of two, at most 2^1074
    return n << (1075 - d.bit_length())


_ONE = units(1.0)


def rounded(n: int) -> float:
    """The float nearest n units (int division rounds correctly, once); inf past the largest float."""
    try:
        return n / _ONE
    except OverflowError:  # lengths are never negative
        return math.inf


def _box_gap(a: tuple[float, float], b: tuple[float, float], qx: float, qy: float) -> float:
    """The distance from (qx, qy) to the bounding box of the segment from a to b, in floats."""
    (x0, y0), (x1, y1) = a, b
    if x0 > x1:
        x0, x1 = x1, x0
    if y0 > y1:
        y0, y1 = y1, y0
    dx = x0 - qx if qx < x0 else qx - x1 if qx > x1 else 0.0
    dy = y0 - qy if qy < y0 else qy - y1 if qy > y1 else 0.0
    return math.hypot(dx, dy)


class Piece:
    """The vertices of one basic-traversal piece of ``m`` segments, built only when asked.

    ``first`` and ``last`` are its end points as floats, with the bits of the
    built vertices, and ``scale`` (at least 1) bounds the magnitude of every
    coordinate it builds.  ``build(s0, s1)`` makes the vertices of segments
    [s0, s1) of the piece as it was made, ``corner(s)`` its vertex s alone,
    as floats with the same bits, ``span(qx, qy, reach)`` gives the segment
    range [s0, s1) of it that can come within ``reach`` of (qx, qy), or None,
    and ``arc(s)`` the exact length of its first s segments, in units;
    ``total`` is ``arc(m)``.  A flip walks the same rules backwards, keeps the
    total and shares the one whole build, which ``points`` makes once, by
    ``source()`` when one is given (a cut's reads its piece's).
    """

    __slots__ = ("m", "first", "last", "scale", "total", "_build", "_span", "_arc", "_corner", "_whole", "_back",
                 "_source")

    def __init__(self, m: int, first, last, scale: float, total: int, build: Callable[[int, int], np.ndarray],
                 span: Callable[[float, float, float], _Span], arc: Callable[[int], int],
                 corner: Callable[[int], tuple[float, float]], whole: Optional[list] = None, back: bool = False,
                 source: Optional[Callable[[], np.ndarray]] = None):
        self.m, self.first, self.last, self.scale, self.total = m, first, last, scale, total
        self._build, self._span, self._arc, self._corner = build, span, arc, corner
        self._back, self._source = back, source
        self._whole = [None] if whole is None else whole  # the whole forward build, made once

    def flipped(self) -> Piece:
        """The same piece walked backwards, still lazy."""
        return Piece(self.m, self.last, self.first, self.scale, self.total, self._build, self._span, self._arc,
                     self._corner, self._whole, not self._back, self._source)

    def points(self) -> np.ndarray:
        """All (m+1, 2) vertices, built once and shared with every flip."""
        whole = self._whole[0]
        if whole is None:
            whole = self._whole[0] = self._build(0, self.m) if self._source is None else self._source()
        return whole[::-1] if self._back else whole

    def vertices(self, s0: int, s1: int) -> np.ndarray:
        """The vertices of segments [s0, s1): rows s0 to s1 of ``points()``, bit for bit."""
        if self._back:
            s0, s1 = self.m - s1, self.m - s0
        whole = self._whole[0]
        pts = self._build(s0, s1) if whole is None else whole[s0 : s1 + 1]
        return pts[::-1] if self._back else pts

    def vertex(self, s: int) -> tuple[float, float]:
        """Vertex s, walked its way, as floats: row s of ``points()``, bit for bit, built alone."""
        return self._corner(self.m - s if self._back else s)

    def near(self, qx: float, qy: float, reach: float) -> _Span:
        """The segment range [s0, s1) that can come within ``reach`` of (qx, qy), or None."""
        span = self._span(qx, qy, reach)
        if span is None or not self._back:
            return span
        return self.m - span[1], self.m - span[0]

    def arc(self, s: int) -> int:
        """The exact length of its first s segments, walked its way, in units."""
        return self.total - self._arc(self.m - s) if self._back else self._arc(s)

    def cut(self, k: int, end: tuple[float, float], total: int) -> Piece:
        """Its first k segments, walked its way, the last of them ending at ``end`` and all of
        them ``total`` long, still lazy.

        The cut builds its rows with this piece's ``vertices``, ``end`` as its
        last, and its whole build from this piece's shared ``points()``.  Its
        ``near`` is this piece's, clipped to its k segments (the segment cut
        short lies on the one it was cut from), less the segments at either
        end whose own bounding box lies out of reach: the piece's rule cannot
        know where the cut ends.
        """
        last = (float(end[0]), float(end[1]))
        arc, vertices, vertex, points, near = self.arc, self.vertices, self.vertex, self.points, self.near

        def corner(s: int) -> tuple[float, float]:
            return last if s == k else vertex(s)

        def ended(pts: np.ndarray) -> np.ndarray:
            pts = pts.copy()
            pts[-1] = last
            return pts

        def span(qx: float, qy: float, reach: float) -> _Span:
            s = near(qx, qy, reach)
            if s is None or s[0] >= k:
                return None
            s0, s1 = s[0], min(s[1], k)
            a = corner(s0)  # neighbouring segments share a vertex
            while s0 < s1 and _box_gap(a, b := corner(s0 + 1), qx, qy) > reach:
                s0, a = s0 + 1, b
            b = corner(s1)
            while s0 < s1 and _box_gap(a := corner(s1 - 1), b, qx, qy) > reach:
                s1, b = s1 - 1, a
            return (s0, s1) if s0 < s1 else None

        return Piece(k, self.first, last, self.scale, total,
                     lambda s0, s1: ended(vertices(s0, s1)) if s1 == k else vertices(s0, s1), span,
                     lambda s: total if s == k else arc(s), corner, source=lambda: ended(points()[: k + 1]))


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

    ``total`` is the block's exact length, an int in units of 2^-1074: a
    piece's own count, or the exact sum of the stored lengths of any other
    path.  Every field is required: build a block with ``Block.of``.  A flip
    has the same total.  ``arc(s)`` is the exact length of the first s
    segments, the same way.
    """

    path: np.ndarray | Piece
    lengths: np.ndarray
    retrace: bool
    total: int

    @classmethod
    def of(cls, path: np.ndarray | Piece, lengths: np.ndarray, retrace: bool = False) -> Block:
        """The block of this path and these lengths: its total is the piece's own, or the lengths' exact sum."""
        total = path.total if isinstance(path, Piece) else sum(map(units, lengths.tolist()))
        return cls(path, lengths, retrace, total)

    @property
    def points(self) -> np.ndarray:
        """The (m+1, 2) vertices; a piece builds them whole, once."""
        path = self.path
        return path.points() if isinstance(path, Piece) else path

    def tagged(self) -> Block:
        """The block tagged a retrace."""
        return self if self.retrace else self._replace(retrace=True)

    def arc(self, s: int) -> int:
        """The exact length of the first s segments: a piece's count, else the stored lengths' exact sum.
        Either way each stored length is its segment's exact arc, rounded."""
        path = self.path
        return path.arc(s) if isinstance(path, Piece) else sum(map(units, self.lengths[:s].tolist()))

    def reach(self, x: int) -> tuple[int, int, int]:
        """The segment s in which the block's walk reaches x units, x <= total (the
        least s with arc(s + 1) >= x), and the exact arcs at its two ends."""
        path = self.path
        if isinstance(path, Piece):
            s = bisect.bisect_left(range(1, path.m + 1), x, key=path.arc)
            return s, path.arc(s), path.arc(s + 1)
        before = 0
        for s, length in enumerate(self.lengths.tolist()):
            after = before + units(length)
            if after >= x:
                return s, before, after
            before = after


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
        """The stream's own items: blocks, and the units it makes, each whole.

        A round-trip cell of more than one piece is one unit, and a basic
        traversal's way out is one unit, blocks [0, pieces) of its round trip.
        """
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
    """The chain of the blocks, as long as their exact totals' sum, rounded once."""
    blocks = [b for b in blocks if b.lengths.size]
    if not blocks:
        return Polyline(np.array([tuple(as_point(start))]), np.zeros(0))
    verts = np.concatenate([blocks[0].points] + [b.points[1:] for b in blocks[1:]])
    lengths = np.concatenate([b.lengths for b in blocks])
    return Polyline(verts, lengths, rounded(sum(b.total for b in blocks)))


def flip_block(block: Block | tuple[Piece, np.ndarray]) -> Block:
    """The same moves walked backwards (bit-identical vertices, reversed order), tagged a retrace.

    Takes a block or a raw ``(piece, lengths)`` pair; a piece's flip stays
    lazy.  The flip has the block's total: exact lengths add alike both ways.
    """
    path, lengths = block[0], block[1][::-1]
    if isinstance(path, Piece):
        return Block(path.flipped(), lengths, True, path.total)
    return Block(path[::-1], lengths, True, block.total)


def prefix_blocks(blocks: Iterable[Step], arc: float) -> List[Step]:
    """The blocks covering exactly the leading ``arc`` of a block sequence.

    The final segment is split when the cut lands inside it; the split piece
    stores the arc remainder, rounded, as its length, and keeps the block's
    retrace tag.  The arc is cut on exact ints: where a piece is cut, the
    blocks' totals add up to ``arc`` exactly.  A finite sequence shorter than
    ``arc`` is returned whole.  No block past the cut is pulled, and a piece
    cut stays a piece (``Piece.cut``).  A ``RoundTrip`` the arc covers whole
    is kept as it is, the arc dropping by its folded totals one at a time, as
    it drops by its blocks' totals; one the arc ends inside gives the blocks
    before the cut as one unit, a part of it, and the block cut.
    """
    return _prefix(blocks, units(nonnegative_finite("prefix arc", arc)))


def _prefix(blocks: Iterable[Step], remaining: int) -> List[Step]:
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
        out.append(_cut(block, remaining))
        return out
    return out


def _cut(block: Block, x: int) -> Block:
    """The leading x units of the block (x <= total), its last segment split where x ends inside it.

    The split segment stores the remainder rounded, which is at most the whole
    segment's stored length.  Only the two vertices of that segment are read,
    as floats.  A piece's cut is a lazy piece x long exactly (``Piece.cut``);
    an array's is the exact sum of what it stores.
    """
    idx, before, after = block.reach(x)
    path, lengths = block.path, block.lengths[: idx + 1]
    lazy = isinstance(path, Piece)
    (ax, ay), (bx, by) = (path.vertex(idx), path.vertex(idx + 1)) if lazy else path[idx : idx + 2].tolist()
    end = bx, by
    if after != x:
        t = rounded(x - before)
        f = t / float(lengths[idx])
        end = ax + f * (bx - ax), ay + f * (by - ay)
        lengths = np.concatenate([lengths[:idx], [t]])
        after = before + units(t)
    if lazy:
        return Block(path.cut(idx + 1, end, x), lengths, block.retrace, x)
    return Block(np.concatenate([path[: idx + 1], [end]]), lengths, block.retrace, after)


def _flip(item: Step) -> Step:
    """The item walked backwards: ``flip_block`` of a block, ``flipped()`` of a round trip."""
    return item.flipped() if isinstance(item, RoundTrip) else flip_block(item)


def _trip_items(steps: Iterable[Step]) -> Iterator[Step]:
    """The steps, each unit that is a whole way out (a basic traversal's) expanded into its blocks."""
    for item in steps:
        if item.__class__ is RoundTrip and item._run == (0, item.pieces):
            yield from item.blocks()
        else:
            yield item


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
    round trip that is itself.  A unit that is a whole way out (a basic
    traversal's) is read as its blocks.
    """
    # Per stream: an unread tee that keeps every item pulled so far (each copy re-reads them), the tagged copies, the flips.
    state = [(itertools.tee(_trip_items(stream.steps()), 1)[0], [], []) for stream in streams]
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


def _spiral_count(n: int) -> int:
    """The tile sizes of spiral instructions [0, n): instruction i counts (i+2)//2 of them."""
    return (n + 1) ** 2 // 4


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


def _spiral_scale(start: Point2, r: float, hi: int) -> float:
    """A bound on the magnitude of every coordinate of spiral instructions [0, hi)."""
    return max(1.0, max(abs(start.x), abs(start.y)) + ((hi + 2) // 4 + 2) * r)


def _spiral_span(start: Point2, r: float, lo: int, hi: int, qx: float, qy: float, reach: float) -> _Span:
    """The instructions [s0, s1) of [lo, hi), counted from lo, that can come within ``reach`` of (qx, qy), or None.

    A point within reach of a target at L-infinity distance d from the start
    lies at d - reach to d + reach, so only rings c with d - reach <= (c + 1) r
    and c r <= d + reach can hold one.  Rounding is far inside the margin that
    ``reach`` carries.  A distance that overflows reads as far.
    """
    c_lo, c_hi = (lo + 3) // 4, (hi + 2) // 4  # the rings of the first and last instructions
    d = max(abs(qx - start.x), abs(qy - start.y))
    near, far = (d - reach) / r, (d + reach) / r
    if not (near <= c_hi + 1 and far >= c_lo):  # also when either is NaN
        return None
    a, b = max(c_lo, math.ceil(max(near, c_lo)) - 1), math.floor(min(far, c_hi))
    s0, s1 = max(lo, 4 * a - 3) - lo, min(hi, 4 * b + 1) - lo  # ring c holds instructions 4c - 3 to 4c
    return (s0, s1) if s0 < s1 else None


def _spiral_piece(start: Point2, r: float, lo: int, hi: int) -> tuple[Piece, np.ndarray]:
    """The piece of instructions [lo, hi) and its lengths.  Vertex m is start +
    offset(m) * r, so every piece starts where the last one ended, bit for bit."""
    sx, sy = start.x, start.y

    def build(s0: int, s1: int) -> np.ndarray:
        ox, oy = _spiral_offset(np.arange(lo + s0, lo + s1 + 1, dtype=np.int64))
        pts = np.empty((s1 - s0 + 1, 2))
        pts[:, 0] = sx + ox * r  # each integer is converted to float, then scaled, as in _spiral_corner()
        pts[:, 1] = sy + oy * r
        return pts

    size, done = units(r), _spiral_count(lo)

    def arc(s: int) -> int:
        return (_spiral_count(lo + s) - done) * size

    def corner(s: int) -> tuple[float, float]:
        return _spiral_corner(start, r, lo + s)

    span = lambda qx, qy, reach: _spiral_span(start, r, lo, hi, qx, qy, reach)  # noqa: E731
    piece = Piece(hi - lo, corner(0), corner(hi - lo), _spiral_scale(start, r, hi), arc(hi - lo), build, span, arc,
                  corner)
    return piece, _spiral_lengths(lo, hi, r)


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


def _sweep_units(heights: np.ndarray, D: float, r: float, first: bool) -> tuple[int, Callable[[int], int]]:
    """The exact length, in units, of the sweep columns ``heights``, the opening
    piece's when ``first``, and ``arc(s)``, that of their first s segments.

    Column j steps one tile size, rises h_j and comes down h_j; the opening
    piece's first step is the move of r/sqrt(2) from the apex, as stored.
    ``arc`` adds up the tile sizes by each column's end once, on its first
    call.  The heights add in int64 while their sum stays below 2^62 (no
    height reaches D/r + 2), and as Python ints otherwise.
    """
    size = units(r)
    opening = units(math.hypot(0.5 * r, 0.5 * r)) - size if first else 0
    wide = heights.size * (D / r + 2.0) >= 2.0**62
    climbed = sum(heights.tolist()) if wide else int(heights.sum())
    ends = []  # the tile sizes by each column's end

    def arc(s: int) -> int:
        if not ends:
            ends.append(list(itertools.accumulate(2 * h + 1 for h in heights.tolist())) if wide
                        else np.cumsum(2 * heights + 1))
        j, k = divmod(s, 3)
        count = (int(ends[0][j - 1]) if j else 0) + (k and 1 + (k - 1) * int(heights[j]))
        return count * size + (opening if s else 0)

    return (heights.size + 2 * climbed) * size + opening, arc


def _sweep_point(frame: TileFrame, fx: float, fy: float) -> tuple[float, float]:
    """The frame point (fx, fy) in the world, mapped by the operations of ``TileFrame.to_world``."""
    (xx, xy), (yx, yy) = frame.basis()
    return frame.apex.x + fx * xx + fy * yx, frame.apex.y + fx * xy + fy * yy


def _sweep_corner(frame: TileFrame, r: float, u: int) -> tuple[float, float]:
    """Where the sweep stands before column u: the apex for u = 0, else column u - 1's foot."""
    if u == 0:
        return frame.apex.x, frame.apex.y
    return _sweep_point(frame, (float(u - 1) + 0.5) * r, 0.5 * r)


def _sweep_scale(frame: TileFrame, D: float, r: float) -> float:
    """A bound on the magnitude of every coordinate of the sweep."""
    return max(1.0, abs(frame.apex.x) + abs(frame.apex.y) + 2.0 * (D + 2.0 * r))


def _sweep_columns(frame: TileFrame, r: float, u_lo: int, u_hi: int, qx: float, qy: float,
                   reach: float) -> Optional[tuple[int, int, float]]:
    """The columns [j0, j1) of [u_lo, u_hi), counted from u_lo, whose moves lie
    across within ``reach`` of (qx, qy), and the frame height below which a
    column's top lies out of reach; None when no column can come within reach.

    Column u's moves lie at frame x = (u - 1/2) r to (u + 1/2) r and y >= 0.
    A distance that overflows reads as far.
    """
    (xx, xy), (yx, yy) = frame.basis()
    dx, dy = qx - frame.apex.x, qy - frame.apex.y
    fx, fy = dx * xx + dy * xy, dx * yx + dy * yy  # the target in the frame (TileFrame.to_frame)
    lo_col, hi_col = (fx - reach) / r - 0.5, (fx + reach) / r + 0.5
    if not (lo_col <= u_hi and hi_col >= u_lo - 1 and fy >= -reach):  # also when any is NaN
        return None
    # The columns u with lo_col <= u <= hi_col.
    j0 = max(0, math.ceil(max(lo_col, u_lo - 1)) - u_lo)
    j1 = min(u_hi - u_lo, math.floor(min(hi_col, u_hi)) + 1 - u_lo)
    return j0, j1, fy - reach


def _sweep_piece(frame: TileFrame, wedge: float, D: float, r: float, u_lo: int, u_hi: int) -> tuple[Piece, np.ndarray]:
    """The piece of columns [u_lo, u_hi) and its lengths.  Its vertices are the
    head (the previous column's foot, or the apex), then each column's foot,
    top and foot, each mapped by ``TileFrame.to_world`` from its frame point."""
    heights = column_heights(wedge, D, r, u_lo, u_hi)
    n = heights.size
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
        cols = _sweep_columns(frame, r, u_lo, u_hi, qx, qy, reach)
        if cols is None:
            return None
        j0, j1, top = cols
        # Less the columns at either end whose top lies out of reach below the target.
        while j0 < j1 and (heights[j0] + 0.5) * r < top:
            j0 += 1
        while j0 < j1 and (heights[j1 - 1] + 0.5) * r < top:
            j1 -= 1
        return (3 * j0, 3 * j1) if j0 < j1 else None

    def corner(s: int) -> tuple[float, float]:
        j, k = divmod(s, 3)
        if k == 2:  # column j's top
            return _sweep_point(frame, (float(u_lo + j) + 0.5) * r, (float(heights[j]) + 0.5) * r)
        return _sweep_corner(frame, r, u_lo + j + (k == 1))  # the head of column j, or its first foot

    total, arc = _sweep_units(heights, D, r, u_lo == 0)
    piece = Piece(3 * n, corner(0), corner(3 * n), _sweep_scale(frame, D, r), total, build, span, arc, corner)
    return piece, _sweep_lengths(heights, r, u_lo == 0)


# ---------------------------------------------------------------------------
# The basic traversal: one stream, or one round trip
# ---------------------------------------------------------------------------


def _traversal(z: int, w: AdviceString, D: float, r: float, start) -> tuple[int, Callable, Callable, Callable, Callable]:
    """Count and makers of the way out: spiral instructions when z <= 1, sweep columns otherwise.

    ``piece(lo, hi)`` makes the piece of [lo, hi) and its lengths,
    ``sums(lo, hi)`` the total and segment count of the pieces of [lo, hi)
    (lo a piece's start) without making any, ``corner(m)`` the point where the
    piece starting at m starts (m = n: where the last ends), with the bits of
    the built vertex, and ``near(qx, qy, cull)`` the range [i0, i1) of the
    whole way out that can come within reach of (qx, qy), or None.  ``cull``
    maps a scale to that reach; ``near`` asks it at the largest scale among
    the pieces, so the range holds every segment that any piece's own
    ``near`` keeps.
    """
    z, r, D = check_advice(z, w), positive_finite("vision radius", r), positive_finite("range bound", D)
    k = column_count(D, r)
    p = as_point(start)
    if z <= 1:
        n = 4 * k + 1
        return (
            n,
            lambda lo, hi: _spiral_piece(p, r, lo, hi),
            lambda lo, hi: ((_spiral_count(hi) - _spiral_count(lo)) * units(r), hi - lo),
            lambda m: _spiral_corner(p, r, m),
            lambda qx, qy, cull: _spiral_span(p, r, 0, n, qx, qy, cull(_spiral_scale(p, r, n))),
        )
    sector = decode_sector(w, p)
    frame = TileFrame(sector.apex, sector.cw_ray_angle, r)
    wedge = sector.wedge_angle

    def sums(lo: int, hi: int) -> tuple[int, int]:
        total = count = 0
        for u in range(lo, hi, STREAM_CHUNK):  # one column_heights call per piece: bounded arrays
            heights = column_heights(wedge, D, r, u, min(u + STREAM_CHUNK, hi))
            total += _sweep_units(heights, D, r, u == 0)[0]
            count += 3 * heights.size
        return total, count

    def near(qx: float, qy: float, cull: Callable[[float], float]) -> _Span:
        cols = _sweep_columns(frame, r, 0, k, qx, qy, cull(_sweep_scale(frame, D, r)))
        return None if cols is None else cols[:2]

    return k, lambda lo, hi: _sweep_piece(frame, wedge, D, r, lo, hi), sums, lambda u: _sweep_corner(frame, r, u), near


def basic_traversal(z: int, w: AdviceString, D: float, r: float, start=ORIGIN) -> TrajectoryStream:
    """Aim with the advice sector when z >= 2, otherwise spiral outwards.

    One-way: the stream ends wherever the sweep ends; ``round_trip_blocks``
    walks it out and back.  Its ``steps()`` yield the way out as one unit,
    blocks [0, pieces) of its ``RoundTrip``, whose ``blocks()`` are the
    pieces in order; the walker folds the spans of it that a lone target
    cannot see (``RoundTrip.split``).
    """
    trip = RoundTrip(z, w, D, r, start)
    out = trip._part(0, trip.pieces)
    return TrajectoryStream(start, lambda: iter((out,)))


def spiral(D: float, r: float, start=ORIGIN) -> TrajectoryStream:
    """The square spiral of pitch r covering the disc of radius D around start."""
    return basic_traversal(0, "", D, r, start)


class Fold(NamedTuple):
    """A round trip's block totals (exact ints) in walking order, and its segment count."""

    totals: tuple[int, ...]
    segments: int


class RoundTrip:
    """``round_trip_blocks(z, w, D, r, start)`` of one cell, as one unit not yet built.

    Every vertex of the cell lies within ``radius`` = sqrt(2) (D + 2r) of
    ``start``: every sweep vertex within sqrt(2) (D + r/2), every spiral
    vertex within sqrt(2) (k + 1) r, where k = ceil(D/r).  ``pieces`` counts
    its way-out pieces, so the walk has 2 * pieces blocks.  A unit stands for
    a run of those blocks, all of them unless it is a part: a run that
    ``prefix_blocks`` cut off or ``split`` gave, or a basic traversal's way
    out, blocks [0, pieces); ``first`` and ``last`` are where that run
    starts and ends, with the bits of the built vertices.  ``blocks()`` makes
    the run's blocks, every one tagged a retrace when the unit is
    ``tagged()``, and ``flipped()`` is the run walked backwards, tagged: the
    mirrored run, which for the whole walk is the walk itself.  ``fold()``
    gives the run's totals and segment count without making any piece, flip
    or vertex, and ``count()`` their sum.  A run on the way out (``one_way``)
    can be ``split`` about one target into the blocks before those that can
    see it, those blocks, and the blocks after.  ``lengths`` holds every
    segment length of the run in walking order; it is made anew on each read,
    for a reader that counts segments as it counts a block's.
    """

    __slots__ = ("start", "radius", "pieces", "retrace", "_n", "_piece", "_sums", "_corner", "_near", "_run", "_fold")

    def __init__(self, z: int, w: AdviceString, D: float, r: float, start):
        self._n, self._piece, self._sums, self._corner, self._near = _traversal(z, w, D, r, start)
        D, r = positive_finite("range bound", D), positive_finite("vision radius", r)
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

    def _twin(self) -> RoundTrip:
        """A copy of the unit: ``copy.copy`` of its slots, in well under half the time."""
        twin = object.__new__(RoundTrip)
        for name in RoundTrip.__slots__:
            setattr(twin, name, getattr(self, name))
        return twin

    def _part(self, lo: int, hi: int) -> RoundTrip:
        """Blocks [lo, hi) of the walk, as a unit with this one's tag."""
        part = self._twin()
        part._run = (lo, hi)
        return part

    @property
    def one_way(self) -> bool:
        """Whether the run lies on the way out."""
        return self._run[1] <= self.pieces

    def split(self, qx: float, qy: float, cull: Callable[[float], float]) -> tuple[Optional[RoundTrip], ...]:
        """A run on the way out as three runs, each None when empty: the blocks
        before those that can come within reach of (qx, qy), those blocks, and
        the blocks after them.  ``cull(scale)`` is the reach of a target seen
        from coordinates at most ``scale`` in magnitude; it is asked once, at
        the largest scale among the pieces, so the middle run holds every
        segment that any piece's own ``near`` keeps."""
        lo, hi = self._run
        j0 = j1 = hi
        span = self._near(qx, qy, cull)
        if span is not None and span[0] < span[1]:
            j0, j1 = max(lo, span[0] // STREAM_CHUNK), min(hi, -(-span[1] // STREAM_CHUNK))
            if j0 >= j1:
                j0 = j1 = hi
        return tuple(self._part(a, b) if a < b else None for a, b in ((lo, j0), (j0, j1), (j1, hi)))

    def tagged(self) -> RoundTrip:
        """The same unit tagged a retrace."""
        if self.retrace:
            return self
        twin = self._twin()
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
        block is the exact flip of a way-out block; no piece is stored.
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

        Each piece's total is counted as its block's is, from its instruction
        range or its column heights, without making any piece, lengths array
        or vertex; its flip on the way back has the same total.
        """
        whole = self._fold[0]
        if whole is None:
            n, sums = self._n, self._sums
            out = [sums(lo, min(lo + STREAM_CHUNK, n)) for lo in range(0, n, STREAM_CHUNK)]
            out += out[::-1]
            whole = self._fold[0] = (tuple(t for t, _ in out), tuple(m for _, m in out))
        lo, hi = self._run
        return Fold(whole[0][lo:hi], sum(whole[1][lo:hi]))

    def count(self) -> tuple[int, int]:
        """The run's exact length, in units, and its segment count: ``fold()``
        added up.  A run on the way out whose fold is not made yet is counted
        without making it: a spiral run in O(1), a sweep run from one
        ``column_heights`` call per piece."""
        lo, hi = self._run
        if self._fold[0] is None and self.one_way:
            return self._sums(lo * STREAM_CHUNK, min(hi * STREAM_CHUNK, self._n))
        fold = self.fold()
        return sum(fold.totals), fold.segments

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
    """Exact one-way length of ``basic_traversal(z, ., D, r)``, rounded once.

    The spiral counts (2k+1)^2 tile sizes, for k = ceil(D/r); a sweep counts
    its columns' moves (``_sweep_units``) from their heights, with its opening
    move.  No vertex or length is built, and sweeps with more than
    MAX_COLUMNS columns raise.
    """
    z, r, D = check_advice(z), positive_finite("vision radius", r), positive_finite("range bound", D)
    if z <= 1:
        return rounded(_spiral_count(4 * column_count(D, r) + 1) * units(r))
    return rounded(sum(_sweep_units(h, D, r, i == 0)[0] for i, h in enumerate(sector_columns(z, D, r))))
