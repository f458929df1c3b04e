"""Reach culling: the walker sends the detection kernel only the targets
within reach of each block's bounding box.

These tests check that a culled (block, target) pair never has a kernel hit,
that the walker agrees bit for bit with a plain walk that tests every block
against every unseen target, and that targets far beyond any block never
reach the kernel's arithmetic.
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


def _margin_targets(block, r, rng, n):
    """Targets around the block's box at gaps just inside, at and just beyond the
    cull margin r + 1e-9 * max(1, |coords|), and a few well within r."""
    lo, hi = block.points.min(axis=0), block.points.max(axis=0)
    margin = 1e-9 * max(1.0, float(np.abs(block.points).max()) + r)
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


@pytest.mark.parametrize("name, make, r, segments", _STRATEGY_STREAMS, ids=[s[0] for s in _STRATEGY_STREAMS])
def test_culling_is_sound(monkeypatch, name, make, r, segments):
    """A (block, target) pair the walker culls never has a kernel hit, on the
    one-target path and the many-target path alike."""
    fresh = [b for b in _walked_blocks(make(), segments) if not b.retrace]
    rng = np.random.default_rng(2025)
    blocks = [fresh[i] for i in rng.choice(len(fresh), size=min(12, len(fresh)), replace=False)]
    calls = _spy_kernel(monkeypatch)
    culled = kept = 0
    for block in blocks:
        targets = _margin_targets(block, r, rng, 24)
        start = block.points[0]
        targets = targets[np.hypot(*(targets - start).T) > r + DETECTION_TOL]  # seen before the walk starts
        lo, hi = block.points.min(axis=0), block.points.max(axis=0)
        within_r = {tuple(q) for q in targets[np.hypot(*np.maximum(np.maximum(lo - targets, targets - hi), 0.0).T) <= r]}
        cap = 2.0 * float(block.lengths.sum()) + 1.0
        stream = TrajectoryStream(tuple(start), lambda: iter([block]))
        for xy in [targets] + [targets[i : i + 1] for i in range(targets.shape[0])]:
            calls.clear()
            sim._walk(stream, xy, r, cap)
            given = {tuple(q) for _, passed in calls for q in passed}
            cut = np.array([q for q in xy if tuple(q) not in given]).reshape(-1, 2)
            if cut.size:
                assert np.isnan(detection_lengths(block.points, cut, r)).all(), (name, cut[:3])
            assert within_r & {tuple(q) for q in xy} <= given
            culled += cut.shape[0]
            kept += len(given)
    assert culled > 0 and kept > 0


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
    kernel only the near ones, at most ``_CAND_SLAB`` at a time."""

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
        # 700 targets lie within reach of the first block and 60 only of the
        # second: each kernel call holds at most _CAND_SLAB targets, all near.
        rng = np.random.default_rng(13)
        near = np.column_stack((rng.uniform(1.0, 40.0, 700), rng.uniform(-0.9, 0.9, 700)))
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
        first = [passed.shape[0] for points, passed in calls if points is blocks[0].points]
        assert first == [256, 256, 188]
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
