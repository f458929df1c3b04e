"""Lazy basic-traversal pieces: a spiral or sweep piece builds its vertices
only when asked, and gives the walker the segment range that can come within
reach of a target.

These tests check that ``near`` never leaves out a segment on which the
detection kernel sees the target (on spiral ring edges, sweep column edges
and the height steps between columns, for non-dyadic r, starts out to 1e6 and
flipped pieces), that ``vertices(s0, s1)`` gives the rows of the whole build
bit for bit, that a piece's end points are its first and last vertex, and
that a walk over flipped pieces with their tags cleared equals the plain walk.
A piece cut by ``prefix_blocks`` stays lazy: its rows and its whole build are
checked against rows cut from the whole build, its ``near`` against the
kernel, and phase trips that cut long pieces walk as the plain walk.
"""

import math

import numpy as np
import pytest

from _oracles import plain_walk
from planehunt import TileFrame, TrajectoryStream, basic_traversal, encode_advice, phase_trips, round_trip_blocks, run
from planehunt.advice import decode_sector
from planehunt.geom import detection_lengths
from planehunt.tiling import STREAM_CHUNK
from planehunt.traversal import Piece, _prefix, flip_block, prefix_blocks, rounded, units

# (name, z, D, r, start): spirals of several pieces and sweeps of several columns per piece.
CASES = [
    ("spiral", 0, 2100.0, 0.1, (0.0, 0.0)),
    ("spiral far", 1, 900.0, 0.07, (1e6, -1e6)),
    ("spiral dyadic", 0, 1100.0, 0.5, (123.456, -7.89)),
    ("sweep", 3, 900.0, 0.07, (0.0, 0.0)),
    ("sweep far", 2, 700.0, 0.13, (-1e6, 3e5)),
    ("sweep thin", 6, 500.0, 0.09, (17.0, 4.0)),
]
IDS = [c[0] for c in CASES]


def _advice(z, start):
    """Advice for a treasure to the north-east of the start."""
    return encode_advice(start, (start[0] + 3.0, start[1] + 5.0), z) if z >= 2 else "0" * z


def _pieces(z, D, r, start):
    """The stream's blocks: a lazy piece each."""
    blocks = list(basic_traversal(z, _advice(z, start), D, r, start).blocks())
    assert len(blocks) >= 2 and all(isinstance(b.path, Piece) for b in blocks)
    return blocks


def _reach(piece, q, r):
    """The walker's cull margin for a lone target: r + 1e-9 * max(the piece's scale, |q|)."""
    return r + 1e-9 * max(piece.scale, abs(q[0]), abs(q[1]))


def _edge_targets(z, D, r, start, piece, lengths, lo, rng, n):
    """Targets at and around the edges of the piece's near rule.

    A third lie around the piece's vertices, at about r from a corner.
    Spiral pieces: on the L-infinity rings of their instructions, a ring width
    either way, give or take a few ulps.  Sweep pieces: across column edges
    at half a tile, a tile and a tile and a half from a column's line, and at
    and above the tops of columns, where the heights step.
    """
    eps = [0.0, 1e-12, -1e-12, 1e-9 * piece.scale, -1e-9 * piece.scale]
    corners = piece.points()[rng.integers(0, piece.m + 1, n // 3)]
    ang = rng.uniform(0.0, math.tau, n // 3)
    rho = r * rng.choice([0.5, 1.0, 1.5], n // 3) + rng.choice(eps, n // 3)
    around = corners + np.column_stack((rho * np.cos(ang), rho * np.sin(ang)))
    n -= n // 3
    out = []
    if z <= 1:
        c_lo, c_hi = (lo + 3) // 4, (lo + piece.m + 2) // 4
        for _ in range(n):
            c = int(rng.integers(max(0, c_lo - 2), c_hi + 3))
            d = c * r + float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])) * r + float(rng.choice(eps))
            along = rng.uniform(-d - r, d + r)
            side = int(rng.integers(4))
            x, y = [(d, along), (along, -d), (-d, along), (along, d)][side]
            out.append((start[0] + x, start[1] + y))
        return np.concatenate([around, out])
    sector = decode_sector(_advice(z, start), start)
    frame = TileFrame(sector.apex, sector.cw_ray_angle, r)
    heights = np.round(lengths[1::3] / r).astype(np.int64)  # rise lengths are exact multiples of r
    u_lo = lo
    f = []
    for _ in range(n):
        j = int(rng.integers(-2, heights.size + 2))
        h = int(heights[min(max(j, 0), heights.size - 1)])
        fx = (u_lo + j + 0.5) * r + float(rng.choice([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])) * r
        if rng.random() < 0.5:  # at or above a column's top
            fy = (h + 0.5) * r + float(rng.choice([-0.5, 0.0, 0.5, 1.0])) * r
        else:
            fy = rng.uniform(-1.5 * r, (h + 1.5) * r)
        f.append((fx + float(rng.choice(eps)), fy + float(rng.choice(eps))))
    return np.concatenate([around, frame.to_world(np.array(f))])


@pytest.mark.parametrize("name, z, D, r, start", CASES, ids=IDS)
def test_near_keeps_every_detecting_segment(name, z, D, r, start):
    """No segment outside ``near``'s range sees a target, forwards or flipped,
    and the range stays a few rings (or columns) long."""
    rng = np.random.default_rng(sum(map(ord, name)))
    blocks = _pieces(z, D, r, start)
    lo = 0
    checked = hits = 0
    widest = 0
    for block in blocks:
        piece, pts = block.path, block.points
        targets = _edge_targets(z, D, r, start, piece, block.lengths, lo, rng, 700)
        seen = ~np.isnan(detection_lengths(pts, targets, r))  # (segments, targets)
        back = piece.flipped()
        for j, q in enumerate(targets.tolist()):
            segs = np.flatnonzero(seen[:, j])
            for p, at in ((piece, segs), (back, piece.m - 1 - segs)):
                span = p.near(q[0], q[1], _reach(p, q, r))
                if span is None:
                    assert not at.size, (name, q)
                    continue
                s0, s1 = span
                assert 0 <= s0 < s1 <= p.m
                assert ((s0 <= at) & (at < s1)).all(), (name, q, span, at)
                widest = max(widest, s1 - s0)
            checked += 1
            hits += bool(segs.size)
        lo += piece.m // 3 if z >= 2 else piece.m
    assert checked == 700 * len(blocks) and hits > checked // 10
    # reach is r and a hair, so a span holds at most four rings or four columns
    assert widest <= (16 if z <= 1 else 12)


@pytest.mark.parametrize("name, z, D, r, start", CASES, ids=IDS)
def test_vertices_are_rows_of_the_whole_build(name, z, D, r, start):
    """A range or a vertex built alone, before or after the whole piece,
    forwards or flipped, has the bits of the same rows of the whole build."""
    rng = np.random.default_rng(7)
    for alone, block in zip(_pieces(z, D, r, start), _pieces(z, D, r, start)):
        whole = block.points
        piece = alone.path
        assert piece._whole == [None]  # nothing built yet
        m = piece.m
        ranges = [(0, m), (0, 1), (m - 1, m)] + [tuple(sorted(rng.choice(m + 1, 2, replace=False))) for _ in range(20)]
        for s0, s1 in ranges:
            assert piece.vertices(s0, s1).tobytes() == whole[s0 : s1 + 1].tobytes()
            assert piece.flipped().vertices(s0, s1).tobytes() == whole[::-1][s0 : s1 + 1].tobytes()
        for s in range(m + 1):
            assert np.array(piece.vertex(s)).tobytes() == whole[s].tobytes()
            assert np.array(piece.flipped().vertex(m - s)).tobytes() == whole[s].tobytes()
        assert piece._whole == [None]  # ranges and vertices built alone leave the memo empty
        assert piece.points().tobytes() == whole.tobytes()
        assert piece.flipped().points().base is piece.points()  # one whole build, shared with the flip


@pytest.mark.parametrize("name, z, D, r, start", CASES, ids=IDS)
def test_end_points_are_the_first_and_last_vertex(name, z, D, r, start):
    blocks = _pieces(z, D, r, start)
    for block in blocks:
        piece, pts = block.path, block.points
        assert np.array(piece.first).tobytes() == pts[0].tobytes()
        assert np.array(piece.last).tobytes() == pts[-1].tobytes()
        assert all(type(c) is float for c in piece.first + piece.last)
        back = piece.flipped()
        assert (back.first, back.last) == (piece.last, piece.first)
    assert [b.path.last for b in blocks[:-1]] == [b.path.first for b in blocks[1:]]  # the pieces chain exactly
    assert blocks[0].path.first == start  # the spiral's start, or the sweep's apex


@pytest.mark.parametrize("name, z, D, r, start", CASES, ids=IDS)
def test_flipped_pieces_walk_untagged_as_the_plain_walk(name, z, D, r, start):
    """A round trip with every tag cleared sends the walker's lone target
    through ``near`` on flipped pieces too; it finds what the plain walk finds."""
    w = _advice(z, start)
    blocks = list(round_trip_blocks(z, w, D, r, start))
    half = len(blocks) // 2
    cleared = [b._replace(retrace=False) for b in blocks]
    stream = TrajectoryStream(start, lambda: iter(cleared))
    back = TrajectoryStream(blocks[half].path.first, lambda: iter(cleared[half:]))
    rng = np.random.default_rng(11)
    pts = np.concatenate([b.points for b in blocks[:half]])
    for _ in range(6):
        v = pts[rng.integers(pts.shape[0])]
        ang = rng.uniform(0.0, math.tau)
        q = (float(v[0] + 1.01 * r * math.cos(ang)), float(v[1] + 1.01 * r * math.sin(ang)))
        for s in (stream, back):
            out = run(s, q, r, 1e12)
            assert out == plain_walk(s, [q], r, 1e12)[0]


def test_flip_block_keeps_a_piece_lazy():
    block = next(iter(basic_traversal(0, "", 1000.0, 0.1).blocks()))
    flipped = flip_block(block)
    assert isinstance(flipped.path, Piece) and flipped.retrace
    assert flipped.path._whole is block.path._whole and block.path._whole == [None]
    assert flipped.total == block.total == (4096 + 1) ** 2 // 4 * units(0.1)  # instructions [0, 4096), counted


def _cut_arcs(piece, rng):
    """Arcs that end inside the piece, as floats through ``prefix_blocks``, and
    at segment ends, as exact ints through ``_prefix`` (the cutter past the arc rule)."""
    m, total = piece.m, piece.total
    ends = [1, 2, m // 2, m - 1, m] + rng.integers(1, m, 4).tolist()
    floats = [rounded(piece.arc(1)) / 3.0] + rng.uniform(0.0, rounded(total), 6).tolist()
    floats += [rounded(piece.arc(s)) for s in ends[:4]]
    return [(prefix_blocks, a) for a in floats] + [(_prefix, piece.arc(s)) for s in ends]


def _whole_cut(block, x):
    """The rows of the block's leading x units, cut from its whole build: its
    rows to the segment x ends in, that segment's end moved where x ends, in
    numpy on the built rows."""
    if x >= block.total:
        return block.points
    idx, before, after = block.reach(x)
    pts = block.points[: idx + 2].copy()
    if after != x:
        a, b = pts[idx], pts[idx + 1]
        pts[idx + 1] = a + rounded(x - before) / float(block.lengths[idx]) * (b - a)
    return pts


def _cuts(z, D, r, start, rng):
    """(cut of a piece not built, cut of the same piece built whole, the rows of
    ``_whole_cut``, the piece's lazy block, its forward block, the index of its
    first instruction or column): every piece of the stream, and each flipped,
    cut at ``_cut_arcs``."""
    lazy, built = _pieces(z, D, r, start), _pieces(z, D, r, start)
    out = []
    for i in range(len(lazy)):
        for flip in (False, True):
            a, b = (flip_block(x) if flip else x for x in (lazy[i], built[i]))
            b.points
            for cut, arc in _cut_arcs(a.path, rng):
                (la,), (bu,) = cut([a], arc), cut([b], arc)
                rows = _whole_cut(b, units(arc) if cut is prefix_blocks else arc)
                out.append((la, bu, rows, a, built[i], i * STREAM_CHUNK))
    return out


@pytest.mark.parametrize("name, z, D, r, start", CASES, ids=IDS)
def test_lazy_cuts_are_rows_of_the_whole_build_cut(name, z, D, r, start):
    """A cut of a piece not yet built builds none of it: its ranges and vertices,
    forwards and flipped, and then its whole build, have the bits of the rows cut
    from the whole build, as has the cut of the built piece, and the whole build
    is read from the piece's one shared build."""
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    cuts = _cuts(z, D, r, start, rng)
    for lazy, built, rows, block, _, _ in cuts:
        assert isinstance(lazy.path, Piece) and isinstance(built.path, Piece)
        assert built.points.tobytes() == rows.tobytes()
        k = lazy.path.m
        assert (k, lazy.total, lazy.retrace) == (built.path.m, built.total, built.retrace)
        assert lazy.lengths.tobytes() == built.lengths.tobytes()
        assert (lazy.path.first, lazy.path.last) == (built.path.first, built.path.last)
        assert np.array([lazy.path.vertex(s) for s in (0, k - 1, k)]).tobytes() == rows[[0, k - 1, k]].tobytes()
        for s0, s1 in [(0, k), (0, 1), (k - 1, k)] + [tuple(sorted(rng.choice(k + 1, 2, replace=False))) for _ in range(6)]:
            if s0 < s1:
                assert lazy.path.vertices(s0, s1).tobytes() == rows[s0 : s1 + 1].tobytes()
                assert lazy.path.flipped().vertices(s0, s1).tobytes() == rows[::-1][s0 : s1 + 1].tobytes()
        assert [lazy.path.arc(s) for s in range(0, k + 1, max(1, k // 7))] == [
            built.path.arc(s) for s in range(0, k + 1, max(1, k // 7))]
        assert block.path._whole == [None]  # a range of a cut builds only its rows
    for lazy, _, rows, block, _, _ in cuts:
        assert lazy.points.tobytes() == rows.tobytes()
        assert block.path._whole[0] is not None  # read from the piece's shared whole build
        assert lazy.path.flipped().points().tobytes() == rows[::-1].tobytes()


@pytest.mark.parametrize("name, z, D, r, start", CASES, ids=IDS)
def test_near_of_a_lazy_cut_keeps_every_detecting_segment(name, z, D, r, start):
    """The near rule of a cut, of a piece built or not, forwards or flipped,
    keeps every segment of the cut on which the kernel sees a target: targets
    about the piece's rule edges, and about the cut's own end.  The segments
    at either end of its range lie within reach by their own bounding boxes,
    so a cut whose whole box lies out of reach gives None."""
    rng = np.random.default_rng(sum(map(ord, name)) + 2)
    hits = 0
    cuts = _cuts(z, D, r, start, rng)
    for lazy, built, _, block, forward, lo in cuts[:: len(cuts) // 20]:
        piece = built.path
        targets = _edge_targets(z, D, r, start, forward.path, forward.lengths, lo, rng, 45)
        ang = rng.uniform(0.0, math.tau, 15)
        around = np.array(piece.last) + r * rng.uniform(0.5, 1.5, (15, 1)) * np.column_stack((np.cos(ang), np.sin(ang)))
        targets = np.concatenate([targets, around])
        seen = ~np.isnan(detection_lengths(built.points, targets, r))
        for j, q in enumerate(targets.tolist()):
            segs = np.flatnonzero(seen[:, j])
            hits += bool(segs.size)
            back = piece.m - 1 - segs
            for p, at in ((lazy.path, segs), (piece, segs), (lazy.path.flipped(), back), (piece.flipped(), back)):
                span = p.near(q[0], q[1], _reach(p, q, r))
                if span is None:
                    assert not at.size, (name, q)
                else:
                    assert 0 <= span[0] < span[1] <= p.m
                    assert ((span[0] <= at) & (at < span[1])).all(), (name, q, span, at)
                    for s in (span[0], span[1] - 1) if lazy is not block else ():  # an arc past the piece: no cut
                        (x0, y0), (x1, y1) = np.sort(p.vertices(s, s + 1), axis=0).tolist()
                        gap = math.hypot(max(x0 - q[0], q[0] - x1, 0.0), max(y0 - q[1], q[1] - y1, 0.0))
                        assert gap <= _reach(p, q, r), (name, q, span, s)
    assert hits > 50


@pytest.mark.parametrize("name, z, D, r, start", CASES, ids=IDS)
def test_phase_trips_that_cut_long_pieces_walk_as_the_plain_walk(name, z, D, r, start, monkeypatch):
    """Doubling trips that end inside pieces of thousands of segments cut them
    lazily, and ``run`` on the trips finds what the plain walk finds, which
    builds every block whole."""
    w = _advice(z, start)
    first = next(iter(basic_traversal(z, w, D, r, start).blocks()))
    total = rounded(first.total)
    arcs = [total * 0.7**i for i in range(9, 0, -1)]  # every trip ends inside the first piece
    stream = TrajectoryStream(start, lambda: phase_trips([basic_traversal(z, w, D, r, start)], arcs))
    lazy = []
    cut = Piece.cut
    monkeypatch.setattr(Piece, "cut", lambda self, *a: lazy.append((self.m, self._whole[0] is None)) or cut(self, *a))
    blocks = list(stream.blocks())
    assert len(lazy) == len(arcs) and all(m > 1000 and unbuilt for m, unbuilt in lazy)
    pts = np.concatenate([b.points for b in blocks])
    rng = np.random.default_rng(sum(map(ord, name)) + 3)
    ends = [stream.start] + [tuple(pts[i]) for i in rng.integers(1, pts.shape[0], 10)]
    ang = rng.uniform(0.0, math.tau, len(ends))
    targets = [(x + 1.01 * r * math.cos(a), y + 1.01 * r * math.sin(a)) for (x, y), a in zip(ends, ang)]
    targets.append((start[0] + 3 * D, start[1]))  # never seen: the walk runs out
    monkeypatch.setattr(Piece, "cut", cut)
    for q in targets:
        out = run(stream, q, r, 1e12)
        assert out == plain_walk(stream, [q], r, 1e12)[0], (name, q)
