"""Reach culling: the walker sends the detection kernel only the targets
within reach of each block's bounding box, and of a long block with many
near targets only those within reach of each run's box, run by run.  A lone
target on a basic-traversal piece goes to the kernel with only the segments
the piece's ``near`` rule keeps.

These tests check that a withheld (segment, target) pair never has a kernel
hit, that every kernel call is a contiguous slice of the block, that a target
within reach of a run's box (or of a piece's span) is tested there, that the
walker agrees bit for bit with a plain walk that tests every block against
every unseen target, and that targets far beyond any block never reach the
kernel's arithmetic.
"""

import math
import warnings

import numpy as np
import pytest

import planehunt.sim as sim
from _oracles import plain_walk
from planehunt import (
    Block,
    Point2,
    TrajectoryStream,
    adversarial_placement,
    basic_traversal,
    encode_advice,
    medium_vision,
    run,
    small_vision,
    spiral,
    universal,
)
from planehunt.geom import DETECTION_TOL, detection_lengths
from planehunt.traversal import Piece, rounded
from test_retrace import _STRATEGY_STREAMS, _walked_blocks


def _spy_kernel(monkeypatch):
    """Record the (points, targets) of every kernel call the walker makes."""
    calls = []
    kernel = sim.detection_lengths

    def spy(points, targets, r):
        calls.append((points, targets.copy()))
        return kernel(points, targets, r)

    monkeypatch.setattr(sim, "detection_lengths", spy)
    return calls


def _slice_at(points, base):
    """The row of ``base`` where ``points`` starts as a contiguous slice of it: the
    one such row, found by memory when they share it and by value otherwise."""
    if np.shares_memory(points, base):
        first = (points.__array_interface__["data"][0] - base.__array_interface__["data"][0]) // base.strides[0]
        assert np.array_equal(points, base[first : first + points.shape[0]])
        return int(first)
    n = points.shape[0]
    rows = [i for i in np.flatnonzero((base[: base.shape[0] - n + 1] == points[0]).all(axis=1))
            if np.array_equal(base[i : i + n], points)]
    assert len(rows) == 1, rows
    return int(rows[0])


def _tested(calls, block, targets):
    """(targets, segments): was the target tested on that segment of ``block``,
    over kernel calls on contiguous slices of the block's points?"""
    base = block.points
    index = {}
    for j, q in enumerate(map(tuple, targets.tolist())):
        index.setdefault(q, []).append(j)
    out = np.zeros((targets.shape[0], block.lengths.size), dtype=bool)
    for points, passed in calls:
        first = _slice_at(points, base)
        rows = [j for q in map(tuple, passed.tolist()) for j in index[q]]
        out[np.ix_(rows, range(first, first + points.shape[0] - 1))] = True
    return out


def _piece_span(block, q, r):
    """The segments of ``block`` the walker tests against a lone live target q:
    its piece's ``near`` span at the cull margin r + 1e-9 * max(the piece's
    scale, |q|), as a list of at most one range."""
    path = block.path
    qx, qy = float(q[0]), float(q[1])
    span = path.near(qx, qy, r + 1e-9 * max(path.scale, abs(qx), abs(qy)))
    return [] if span is None else [span]


def _near_runs(points, targets, r):
    """The walker's reach test on an untagged block, for each of the (k, 2)
    ``targets``: the (first, end) segment ranges of the block's runs of
    ``_RUN_LEN`` segments whose bounding box lies within r + 1e-9 * max(1,
    |coordinates of the block and the target|) of it; none when the block's
    own box lies farther."""
    m = points.shape[0] - 1
    spans = [(lo, min(lo + sim._RUN_LEN, m)) for lo in range(0, m, sim._RUN_LEN)]
    boxes = np.array([(p.min(axis=0), p.max(axis=0)) for p in [points[lo : hi + 1] for lo, hi in spans] + [points]])
    gaps = np.maximum(np.maximum(boxes[:, :1] - targets, targets - boxes[:, 1:]), 0.0)  # (runs + 1, k, 2)
    scale = np.maximum(np.abs(targets).max(axis=1), max(1.0, float(np.abs(points).max())))
    within = np.hypot(gaps[..., 0], gaps[..., 1]) <= r + 1e-9 * scale
    return [[s for s, w in zip(spans, within[:-1, j]) if w] if within[-1, j] else [] for j in range(len(targets))]


def _margin_targets(points, scale, r, rng, n):
    """Targets around the bounding box of ``points`` at gaps just inside, at and
    just beyond the cull margin r + 1e-9 * scale, and a few well within r."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    margin = 1e-9 * scale
    gaps = np.array([0.5 * r, r, r + 0.5 * margin, r + margin, r + 1.001 * margin, r + 2.0 * margin, r + 1e-12])
    out = []
    for _ in range(n):
        gap = gaps[rng.integers(0, gaps.size)] * (1.0 + rng.choice([-1e-15, 0.0, 1e-15]))
        side = rng.integers(0, 6)
        if side < 4:  # off one edge of the box, level with it
            axis, sign = divmod(side, 2)
            q = lo + rng.uniform(size=2) * (hi - lo)
            q[axis] = lo[axis] - gap if sign == 0 else hi[axis] + gap
        else:  # off a corner, in its quadrant
            ang = rng.uniform(0.0, math.pi / 2.0)
            corner = np.array([lo[0] if side == 4 else hi[0], lo[1]])
            q = corner + gap * np.array([math.cos(ang) * (-1.0 if side == 4 else 1.0), -math.sin(ang)])
        out.append(q)
    return np.array(out)


def _assert_culls_soundly(calls, block, targets, r, step=1):
    """Walk the one-block stream with all ``targets`` at once and with every
    ``step``-th alone.  Every kernel call is a contiguous slice of the block.
    Up to a target's first detection, a segment withheld from the kernel never
    detects it, and every segment of a run within reach of it is tested (for a
    lone target on a piece, every segment of the piece's ``near`` span); no
    kernel call holds more than ``_CAND_SLAB`` targets.  Returns the counts of
    withheld and tested (segment, target) pairs, and of kernel calls on one
    run of the block in the walks with all targets."""
    m = block.lengths.size
    start = block.points[0]
    targets = targets[np.hypot(*(targets - start).T) > r + DETECTION_TOL]  # seen before the walk starts
    hit = ~np.isnan(detection_lengths(block.points, targets, r))
    first = np.where(hit.any(axis=0), hit.argmax(axis=0), m - 1)  # the last segment each target needs
    stream = TrajectoryStream(tuple(start), lambda: iter([block]))
    cap = 2.0 * rounded(block.total) + 1.0
    near = _near_runs(block.points, targets, r)
    withheld = tested = runs = 0
    for cols in [np.arange(targets.shape[0])] + [[j] for j in range(0, targets.shape[0], step)]:
        calls.clear()
        walk = sim._walk(stream, targets[cols], r, cap)
        assert walk.found.tolist() == hit[:, cols].any(axis=0).tolist()
        assert (walk.segments[walk.found] == first[cols][walk.found] + 1).all()
        assert all(0 < passed.shape[0] <= sim._CAND_SLAB for _, passed in calls)
        alone = len(cols) == 1 and isinstance(block.path, Piece)
        if len(cols) > 1:
            runs += sum(points.shape[0] <= sim._RUN_LEN + 1 < block.points.shape[0] for points, _ in calls)
        given = _tested(calls, block, targets)
        for j in cols:
            upto = np.arange(m) <= first[j]
            got = given[j] & upto
            assert not hit[upto & ~got, j].any(), targets[j]
            for lo, hi in _piece_span(block, targets[j], r) if alone else near[j]:
                assert got[lo : min(hi, first[j] + 1)].all(), (targets[j], lo)
            withheld += int((upto & ~got).sum())
            tested += int(got.sum())
    return withheld, tested, runs


@pytest.mark.parametrize("name, make, r, segments", _STRATEGY_STREAMS, ids=[s[0] for s in _STRATEGY_STREAMS])
def test_culling_is_sound(monkeypatch, name, make, r, segments):
    """Culling against block and run boxes withholds no (segment, target) pair
    that detects, and withholds none within reach, on the one-target path and
    the many-target path alike.  Each block has enough near targets to go run
    by run when it is long enough."""
    fresh = [b for b in _walked_blocks(make(), segments) if not b.retrace]
    rng = np.random.default_rng(2025)
    blocks = [fresh[i] for i in rng.choice(len(fresh), size=min(12, len(fresh)), replace=False)]
    calls = _spy_kernel(monkeypatch)
    withheld = tested = runs = 0
    for block in blocks:
        pts = block.points
        scale = max(1.0, float(np.abs(pts).max()) + r)
        lo = int(rng.integers(0, block.lengths.size)) // sim._RUN_LEN * sim._RUN_LEN  # one of its runs
        n = sim._RUN_TARGETS
        targets = np.concatenate([_margin_targets(pts, scale, r, rng, n),
                                  _margin_targets(pts[lo : lo + sim._RUN_LEN + 1], scale, r, rng, n)])
        w, t, u = _assert_culls_soundly(calls, block, targets, r, step=5)
        withheld, tested, runs = withheld + w, tested + t, runs + u
    assert withheld > 0 and tested > 0
    assert runs > 0 or all(b.lengths.size < 2 * sim._RUN_LEN for b in blocks)


@pytest.mark.parametrize("offset", [(0.0, 0.0), (3e5, -7e5)])
def test_run_box_holds_the_run_last_vertex(monkeypatch, offset):
    """The last segment of the first run climbs to the second run's first
    vertex.  Targets at the cull margin around that climb and that vertex lie
    within reach of the first run's box only because the box holds the run's
    last vertex; each is tested on the climb, and the walk equals the plain
    walk.  Targets along the later runs make the block go run by run."""
    r = 0.5
    steps = [(0.5, 0.0)] * 15 + [(0.0, 4.0)] + [(0.5, 0.0)] * (2 * sim._RUN_LEN)
    pts = np.asarray(offset) + np.concatenate([[(0.0, 0.0)], np.cumsum(steps, axis=0)])
    block = Block.of(pts, np.hypot(*np.diff(pts, axis=0).T))
    top = pts[16]  # the climb's end: the second run's first vertex
    scale = max(1.0, float(np.abs(pts).max()) + r)
    margin = 1e-9 * scale
    gaps = np.array([0.5 * r, r - 1e-12, r, r + 1e-12, r + 0.5 * margin, r + margin, r + 2.0 * margin])
    rng = np.random.default_rng(16)
    targets = np.concatenate([
        top + np.column_stack((np.zeros_like(gaps), gaps)),  # above the climb's end
        top + np.column_stack((-gaps, rng.uniform(-3.0, -0.5, gaps.size))),  # beside the climb
        top + np.column_stack((gaps, rng.uniform(-3.0, -0.5, gaps.size))),
        top + gaps[:, None] * np.array([[-0.6, 0.8]]),  # off the vertex, up and back
        top + np.column_stack((rng.uniform(4.5, 15.5, sim._RUN_TARGETS), np.full(sim._RUN_TARGETS, -0.25))),
    ])
    calls = _spy_kernel(monkeypatch)
    withheld, tested, runs = _assert_culls_soundly(calls, block, targets, r)
    assert withheld > 0 and tested > 0 and runs > 0
    stream = TrajectoryStream(tuple(pts[0]), lambda: iter([block]))
    for cols in [np.arange(targets.shape[0])] + [[j] for j in range(targets.shape[0])]:
        _assert_walk_is_plain(sim._walk(stream, targets[cols], r, 1e3), stream, targets[cols], r, 1e3)


def _assert_walk_is_plain(walk, stream, targets, r, cap):
    """The walker's outcomes equal the plain walk's, bit for bit; return the plain ones."""
    plain = plain_walk(stream, targets, r, cap)
    assert [o.found for o in plain] == walk.found.tolist()
    assert [o.cost for o in plain] == walk.cost.tolist()
    assert [o.segments_executed for o in plain] == walk.segments.tolist()
    return plain


def _assert_plain(stream_factory, treasure, r, cap=1e9):
    out = run(stream_factory(), treasure, r, cap)
    assert [out] == plain_walk(stream_factory(), [treasure], r, cap)
    return out


class TestPlainWalk:
    """The walker equals a walk with no culling and no tag skipping, bit for bit."""

    @pytest.mark.parametrize("z, treasure", [(0, (1.3, -0.7)), (3, (1.3, 0.4))])
    def test_small_vision(self, z, treasure):
        w = encode_advice((0.0, 0.0), treasure, z)
        assert _assert_plain(lambda: small_vision(z, w), treasure, 2.0**-12).found

    def test_medium_vision(self):
        w = encode_advice((0.0, 0.0), (30.0, -21.0), 2)
        assert _assert_plain(lambda: medium_vision(2, w, 0.5, 3), (30.0, -21.0), 4.0).found

    def test_universal(self):
        w = encode_advice((0.0, 0.0), (-5.0, 3.0), 2)
        assert _assert_plain(lambda: universal(2, w, 0.5, 3), (-5.0, 3.0), 0.3).found

    @pytest.mark.parametrize("sx, sy", [(1e6, 1e6), (-1e6, 1e6), (1e6, -1e6), (-1e6, -1e6)])
    def test_far_start_non_dyadic_basic_traversal(self, sx, sy):
        start = (sx, sy)
        q = (sx - 300.0, sy + 170.0)
        w = encode_advice(start, q, 3)
        out = _assert_plain(lambda: basic_traversal(3, w, 400.0, 0.07, start), q, 0.07)
        assert out.found
        unfound = (sx + 300.0, sy + 170.0)  # outside the advised sector
        assert not _assert_plain(lambda: basic_traversal(3, w, 400.0, 0.07, start), unfound, 0.07).found

    def test_adversary_grid_placement(self, monkeypatch):
        """Every group walk of a 20,080-candidate search, and its winner."""
        walks = []
        walk = sim._walk

        def spy(stream, targets, r, cap):
            result = walk(stream, targets, r, cap)
            walks.append((stream, targets, r, cap, result))
            return result

        monkeypatch.setattr(sim, "_walk", spy)
        start = (2.364324940051347, 90.09273926518705)
        best = adversarial_placement(lambda w: small_vision(3, w, start), 3, 10.0, 0.5, 0.125)
        assert sum(t.shape[0] for _, t, *_ in walks) == 20080
        cands, costs = [], []
        for stream, targets, r, cap, result in walks:
            plain = _assert_walk_is_plain(result, stream, targets, r, cap)
            cands += [tuple(q) for q in targets.tolist()]
            costs += [o.cost if o.found else cap for o in plain]
        top = max(costs)
        assert best == (Point2(*min(c for c, v in zip(cands, costs) if v == top)), top)


def _line_block(a, b, n):
    """One block walking straight from ``a`` to ``b`` in ``n`` equal steps."""
    pts = np.linspace(a, b, n + 1)
    return Block.of(pts, np.hypot(*np.diff(pts, axis=0).T))


class TestOneCullPerBlock:
    """The walker culls all its live targets once per block, then sends the
    kernel only the near ones, at most ``_CAND_SLAB`` at a time; a block with
    many near targets is culled once more per run of ``_RUN_LEN`` segments."""

    def test_near_targets_meet_in_one_kernel_call(self, monkeypatch):
        # Only the first and the last of 300 targets lie within reach of the
        # block; one kernel call on that block must carry both.
        targets = np.column_stack((np.arange(300.0), np.full(300, 50.0)))
        targets[0], targets[299] = (3.0, 0.5), (7.0, -0.5)
        block = _line_block((0.0, 0.0), (10.0, 0.0), 20)
        stream = TrajectoryStream((0.0, 0.0), lambda: iter([block]))
        calls = _spy_kernel(monkeypatch)
        walk = sim._walk(stream, targets, 1.0, 1e3)
        assert len(calls) == 1
        assert calls[0][0] is block.points
        assert calls[0][1].tolist() == targets[[0, 299]].tolist()
        assert np.flatnonzero(walk.found).tolist() == [0, 299]
        _assert_walk_is_plain(walk, stream, targets, 1.0, 1e3)

    def test_many_near_targets_go_in_slabs(self, monkeypatch):
        # 700 targets lie within reach of the first block's first run and are
        # all seen there, and 60 only of the third block.  The first block goes
        # run by run, the third, with fewer than _RUN_TARGETS near targets,
        # whole; each kernel call holds at most _CAND_SLAB targets, all within
        # reach of its points.
        rng = np.random.default_rng(13)
        near = np.column_stack((rng.uniform(1.0, 7.9, 700), rng.uniform(-0.9, 0.9, 700)))
        high = np.column_stack((rng.uniform(1.0, 40.0, 60), rng.uniform(6.5, 7.5, 60)))
        targets = rng.permutation(np.concatenate((near, high)))
        blocks = [_line_block((0.0, 0.0), (40.0, 0.0), 80), _line_block((40.0, 0.0), (40.0, 7.0), 7),
                  _line_block((40.0, 7.0), (0.0, 7.0), 80)]
        stream = TrajectoryStream((0.0, 0.0), lambda: iter(blocks))
        r = 1.0
        calls = _spy_kernel(monkeypatch)
        walk = sim._walk(stream, targets, r, 1e3)
        assert walk.found.all()
        for points, passed in calls:
            assert 0 < passed.shape[0] <= sim._CAND_SLAB
            lo, hi = points.min(axis=0), points.max(axis=0)
            gap = np.hypot(*np.maximum(np.maximum(lo - passed, passed - hi), 0.0).T)
            assert (gap <= r + 1e-9 * max(1.0, float(np.abs(points).max()), float(np.abs(passed).max()))).all()
        first = [(points.shape[0], passed.shape[0]) for points, passed in calls
                 if np.shares_memory(points, blocks[0].points)]
        assert first == [(sim._RUN_LEN + 1, 256), (sim._RUN_LEN + 1, 256), (sim._RUN_LEN + 1, 188)]
        third = [passed.shape[0] for points, passed in calls if np.shares_memory(points, blocks[2].points)]
        assert len(third) == 1 and 0 < third[0] <= 60
        assert calls[-1][0] is blocks[2].points
        _assert_walk_is_plain(walk, stream, targets, r, 1e3)


class TestFarTargets:
    """Targets far beyond every block are culled before the kernel's squares."""

    def test_run_is_unfound_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run(spiral(10.0, 0.5), (1e300, 3.0), 0.5, 1e4)
        assert not out.found and out.detection_point is None

    def test_many_target_walk_is_unfound_without_overflow(self):
        targets = np.array([[1e300, 3.0], [2e300, -1.0], [-1e300, 2e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            walk = sim._walk(spiral(10.0, 0.5), targets, 0.5, 1e4)
        assert not walk.found.any()
