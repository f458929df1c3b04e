"""Retrace tags: blocks that repeat earlier geometry are folded but not tested.

The walker skips the detection kernel on blocks tagged ``retrace``.  These
tests check that the skip changes no reported outcome (tagged and untagged
streams give equal ``RunOutcome``s), that every tag the strategies set is
sound (a tagged block never sees a target no earlier block saw), that the
walker still chains, caps and counts tagged blocks, and they pin the one
rounding band where the two walks differ.
"""

import math

import numpy as np
import pytest

import planehunt.sim as sim
from planehunt import (
    Block,
    Point2,
    RunOutcome,
    StreamChainError,
    TrajectoryStream,
    adversarial_placement,
    encode_advice,
    large_vision,
    medium_vision,
    out_and_back_blocks,
    run,
    small_vision,
    universal,
)
from planehunt.geom import detection_lengths
from planehunt.tiling import STREAM_CHUNK
from test_sim import one_segment_stream


def _untagged(stream):
    """The same stream with every retrace tag cleared: the walker tests every block."""
    return TrajectoryStream(stream.start, lambda: (b._replace(retrace=False) for b in stream.blocks()))


def _walked_blocks(stream, segments):
    """The leading blocks of ``stream`` that cover its first ``segments`` segments."""
    out, seen = [], 0
    for block in stream.blocks():
        if seen >= segments:
            break
        out.append(block)
        seen += block.lengths.size
    return out


def _assert_equivalent(stream_factory, treasure, r, cap=1e9):
    tagged = run(stream_factory(), treasure, r, cap)
    assert tagged == run(_untagged(stream_factory()), treasure, r, cap)
    return tagged


class TestEquivalence:
    @pytest.mark.parametrize("z, treasure", [(0, (1.3, -0.7)), (3, (1.3, 0.4))])
    def test_small_vision_through_a_multi_piece_cell(self, z, treasure):
        w = encode_advice((0.0, 0.0), treasure, z)
        out = _assert_equivalent(lambda: small_vision(z, w), treasure, 2.0**-12)
        assert out.found
        # The detection comes after two untagged full pieces in a row: a cell of
        # more than STREAM_CHUNK columns (z = 3) or instructions (z = 0).
        piece = 3 * STREAM_CHUNK if z >= 2 else STREAM_CHUNK
        walked = _walked_blocks(small_vision(z, w), out.segments_executed)
        assert any(
            a.lengths.size == piece and not a.retrace and not b.retrace for a, b in zip(walked, walked[1:])
        )

    def test_small_medium_large_pinned_and_seeded(self):
        w2 = encode_advice((0.0, 0.0), (30.0, -21.0), 2)
        assert _assert_equivalent(lambda: medium_vision(2, w2, 0.5, 3), (30.0, -21.0), 4.0).found
        assert _assert_equivalent(large_vision, (70.0, 20.0), 66.0).found
        rng = np.random.default_rng(808)
        for _ in range(12):
            z = int(rng.integers(0, 6))
            ang = rng.uniform(0.0, math.tau)
            d = 10.0 ** rng.uniform(0.3, 1.5)
            q = (-d * math.sin(ang), d * math.cos(ang))
            w = encode_advice((0.0, 0.0), q, z)
            _assert_equivalent(lambda: small_vision(z, w), q, 2.0 ** rng.uniform(-5, 0), cap=1e7)
            _assert_equivalent(lambda: medium_vision(z, w, 0.5, 3), q, d * rng.uniform(0.2, 0.8), cap=1e7)
            _assert_equivalent(large_vision, q, d * rng.uniform(0.9, 0.99), cap=1e7)

    def test_universal_found_after_rewalks(self):
        q = (-5.0, 3.0)
        w = encode_advice((0.0, 0.0), q, 2)
        out = _assert_equivalent(lambda: universal(2, w, 0.5, 3), q, 0.3)
        assert out.found and out.cost > 6.0 * (2.0 + 4.0)  # past phases 1 and 2
        walked = _walked_blocks(universal(2, w, 0.5, 3), out.segments_executed)
        tagged = sum(b.lengths.size for b in walked if b.retrace)
        # Flips alone tag at most half of what was walked; the rest is rewalk.
        assert 2 * tagged > sum(b.lengths.size for b in walked)

    def test_adversarial_placement(self):
        tagged = adversarial_placement(lambda w: small_vision(3, w), 3, 6.0, 0.5, 0.5)
        untagged = adversarial_placement(lambda w: _untagged(small_vision(3, w)), 3, 6.0, 0.5, 0.5)
        assert tagged == untagged


# (name, stream, vision radius, segments walked)
_STRATEGY_STREAMS = [
    ("small z=0", lambda: small_vision(0, ""), 0.01, 200_000),
    ("small z=3", lambda: small_vision(3, "010"), 0.01, 200_000),
    ("medium s=3", lambda: medium_vision(2, "11", 0.5, 3), 1.5, 200_000),
    ("large", large_vision, 3.0, 2_000),  # doubling rays overflow past ~1000 rounds
    ("universal z=2", lambda: universal(2, "11", 0.5, 3), 0.3, 200_000),
]


@pytest.mark.parametrize("name, make, r, segments", _STRATEGY_STREAMS, ids=[s[0] for s in _STRATEGY_STREAMS])
def test_tags_are_sound(name, make, r, segments):
    """A tagged block never sees a target that no earlier block saw."""
    blocks = _walked_blocks(make(), segments)
    verts = np.concatenate([b.points for b in blocks])
    rng = np.random.default_rng(2024)
    n = 2000
    ang = rng.uniform(0.0, math.tau, n)
    rho = 2.0 * r * np.sqrt(rng.uniform(size=n))
    targets = verts[rng.integers(0, verts.shape[0], n)] + np.column_stack((rho * np.cos(ang), rho * np.sin(ang)))
    unseen = np.ones(n, dtype=bool)
    for block in blocks:
        lo = block.points.min(axis=0) - 2.0 * r
        hi = block.points.max(axis=0) + 2.0 * r
        near = np.flatnonzero(unseen & (targets >= lo).all(axis=1) & (targets <= hi).all(axis=1))
        if not near.size:
            continue
        sees = ~np.isnan(detection_lengths(block.points, targets[near], r)).all(axis=0)
        if block.retrace:
            assert not sees.any(), (name, targets[near[sees]][:3])
        unseen[near[sees]] = False
    assert unseen.sum() < n // 2  # most targets lie on the walked ground
    if name != "large":
        assert sum(b.lengths.size for b in blocks if b.retrace) > segments // 4


class TestWalker:
    def test_kernel_sees_only_untagged_segments(self, monkeypatch):
        given = []
        kernel = sim.detection_lengths

        def counting(points, targets, r):
            given.append(points)
            return kernel(points, targets, r)

        monkeypatch.setattr(sim, "detection_lengths", counting)
        w = encode_advice((0.0, 0.0), (1.3, 0.4), 3)
        out = run(small_vision(3, w), (1.3, 0.4), 2.0**-12, 1e9)
        walked = _walked_blocks(small_vision(3, w), out.segments_executed)
        fresh = [b for b in walked if not b.retrace]
        assert len(given) == len(fresh) < len(walked)
        for points, block in zip(given, fresh):
            assert np.array_equal(points, block.points)
        assert sum(p.shape[0] - 1 for p in given) < out.segments_executed // 2

    def test_tagged_block_off_the_chain_raises(self):
        def blocks():
            yield Block(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0]))
            yield Block(np.array([[1.0, 1e-9], [0.0, 0.0]]), np.array([1.0]), True)

        with pytest.raises(StreamChainError):
            run(TrajectoryStream((0.0, 0.0), blocks), (50.0, 0.0), 0.5, 100.0)

    def test_tagged_block_crossing_the_cap_stops_the_walk(self):
        stream = TrajectoryStream(
            (0.0, 0.0), lambda: out_and_back_blocks(one_segment_stream((0.0, 0.0), (4.0, 0.0)), 10.0)
        )
        tagged = run(stream, (50.0, 0.0), 0.5, 6.5)
        assert tagged == run(_untagged(stream), (50.0, 0.0), 0.5, 6.5)
        assert tagged == RunOutcome(False, 6.5, None, 2)


def test_reverse_only_detection_band():
    """A target a few ulps outside the kernel's reach from the way out is seen
    only from the way back, which starts at the turning point.  The walker
    skips that tagged retrace, so the hunt ends unfound where testing every
    block would report it at the turn."""
    a, b, r = (0.0, 0.0), (0.7, 1.1), 0.5
    q = (1.1330127018930853, 1.3500000000005)
    pts = np.array([a, b])
    assert np.isnan(detection_lengths(pts, np.array([q]), r)).all()
    assert detection_lengths(pts[::-1], np.array([q]), r)[0, 0] == 0.0
    stream = TrajectoryStream(a, lambda: out_and_back_blocks(one_segment_stream(a, b), 10.0))
    length = math.hypot(0.7, 1.1)
    assert run(stream, q, r, 100.0) == RunOutcome(False, 2.0 * length, None, 2)
    assert run(_untagged(stream), q, r, 100.0) == RunOutcome(True, length, Point2(0.7, 1.1), 2)
