"""Traversal tests: spiral instruction sequence, sector sweep geometry, the
exact cost calculator, and stream mechanics (prefix, reverse, determinism)."""

import math

import numpy as np
import pytest

from planehunt import (
    BudgetExceededError,
    Point2,
    PreconditionError,
    TileFrame,
    basic_cost,
    basic_traversal,
    column_count,
    out_and_back_blocks,
    prefix_blocks,
    round_trip_blocks,
    spiral,
    sweep_cost_bound,
)
from planehunt.traversal import blocks_to_polyline

RT2 = math.sqrt(2.0)


class TestSpiral:
    def test_k2_instruction_sequence(self):
        p = spiral(2.0, 1.0).materialize()
        assert p.segment_count == 9
        deltas = np.diff(p.vertices, axis=0)
        expected = [
            (1, 0), (0, -1), (-2, 0), (0, 2), (3, 0), (0, -3), (-4, 0), (0, 4), (5, 0),
        ]
        assert np.array_equal(deltas, np.array(expected, dtype=float))
        assert p.length == 25.0

    def test_closed_form_lengths(self):
        assert spiral(4.0, 1.0).materialize().length == 81.0
        assert spiral(1.5, 1.0).materialize().length == 25.0
        assert basic_cost(0, 4.0, 1.0) == 81.0
        assert basic_cost(0, 1.5, 1.0) == 25.0
        assert basic_cost(0, 16.0, 4.0) == 324.0
        assert basic_cost(0, 64.0, 8.0) == 2312.0

    def test_tile_size_above_range_rejected(self):
        with pytest.raises(PreconditionError):
            spiral(1.0, 1.1)

    def test_tile_size_equal_to_range_is_one_loop(self):
        p = spiral(1.0, 1.0).materialize()
        assert p.segment_count == 5
        assert p.length == 9.0

    def test_covers_the_centered_square(self):
        rng = np.random.default_rng(2)
        for d, r in ((2.0, 1.0), (5.0, 0.75), (3.0, 0.5)):
            k = math.ceil(d / r)
            p = spiral(d, r).materialize()
            pts = rng.uniform(-k * r, k * r, (300, 2))
            for q in pts:
                dmin = _min_distance_to_polyline(p, q)
                assert dmin <= r + 1e-9, (d, r, q)

    def test_starts_at_start(self):
        p = spiral(3.0, 1.0, start=(2.0, -1.0)).materialize()
        assert tuple(p.vertices[0]) == (2.0, -1.0)


def _min_distance_to_polyline(poly, q):
    a = poly.vertices[:-1]
    b = poly.vertices[1:]
    d = b - a
    seg2 = (d**2).sum(axis=1)
    w = np.asarray(q) - a
    t = np.clip(np.where(seg2 > 0, (w * d).sum(axis=1) / np.where(seg2 > 0, seg2, 1), 0.0), 0, 1)
    c = a + t[:, None] * d
    return float(np.hypot(c[:, 0] - q[0], c[:, 1] - q[1]).min())


class TestSectorSweep:
    def test_quarter_disc_vertex_sequence(self):
        stream = basic_traversal(2, "00", 2.0, 1.0)
        poly = stream.materialize()
        frame = TileFrame(Point2(0.0, 0.0), 0.0, 1.0)
        got = frame.to_frame(poly.vertices)
        want = [(0, 0), (0.5, 0.5), (0.5, 1.5), (0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (1.5, 0.5)]
        assert np.allclose(got, want, atol=1e-12)
        assert poly.length == 5.0 + math.hypot(0.5, 0.5)

    def test_one_way(self):
        poly = basic_traversal(4, "0110", 6.0, 0.7).materialize()
        assert not np.array_equal(poly.vertices[-1], poly.vertices[0])

    def test_passes_through_every_tile_center(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            z = int(rng.integers(2, 7))
            j = int(rng.integers(0, 1 << z))
            r = 10.0 ** rng.uniform(-1, 1)
            d = r * rng.uniform(1.2, 12.0)
            w = format(j, f"0{z}b")
            poly = basic_traversal(z, w, d, r).materialize()
            frame = TileFrame(Point2(0.0, 0.0), j * math.tau / (1 << z), r)
            fverts = frame.to_frame(poly.vertices)
            fpoly = type(poly)(fverts, validate=False)
            from planehunt.tiling import column_heights

            heights = column_heights(math.tau / (1 << z), d, r, 0, column_count(d, r))
            for u, vmax in enumerate(heights):
                for v in range(vmax + 1):
                    center = ((u + 0.5) * r, (v + 0.5) * r)
                    assert _min_distance_to_polyline(fpoly, center) <= 1e-9

    def test_zero_height_columns_emit_zero_length_moves(self):
        # A thin wedge has v_max = 0 everywhere: the up-and-back moves collapse.
        poly = basic_traversal(10, "1" * 10, 5.0, 1.0).materialize()
        assert (poly.seg_lengths == 0.0).any()
        assert poly.length == basic_cost(10, 5.0, 1.0)


class TestBasicTraversalDispatch:
    def test_low_advice_takes_the_spiral(self):
        a = basic_traversal(0, "", 4.0, 1.0).materialize()
        b = basic_traversal(1, "1", 4.0, 1.0).materialize()
        c = spiral(4.0, 1.0).materialize()
        assert np.array_equal(a.vertices, c.vertices)
        assert np.array_equal(b.vertices, c.vertices)

    def test_mismatched_advice_length_rejected(self):
        with pytest.raises(PreconditionError):
            basic_traversal(3, "01", 4.0, 1.0)

    def test_infinite_range_rejected(self):
        # One D/r check (tiling.column_count) serves the spiral, the sweep and the calculator.
        for z, w in ((0, ""), (2, "01")):
            with pytest.raises(PreconditionError):
                basic_traversal(z, w, math.inf, 1.0)
            with pytest.raises(PreconditionError):
                basic_cost(z, math.inf, 1.0)

    def test_cost_bound_examples(self):
        assert basic_cost(0, 4.0, 1.0) == 81.0 <= 138 * (16 + 4)
        assert basic_cost(2, 2.0, 1.0) == pytest.approx(5 + RT2 / 2)
        assert basic_cost(2, 2.0, 1.0) <= 138 * (4 / 4 + 2)


class TestCostCalculator:
    def test_matches_materialized_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            z = int(rng.integers(0, 13))
            r = 10.0 ** rng.uniform(-3, 3)
            d = r * rng.uniform(1.0, 400.0)
            w = format(rng.integers(0, 1 << z), f"0{z}b") if z else ""
            cost = basic_cost(z, d, r)
            poly = basic_traversal(z, w, d, r).materialize()
            assert cost == poly.length, (z, d, r)
        # Past one STREAM_CHUNK piece: a spiral of 8801 instructions and a sweep of 4500 columns.
        for z, w, d, r in ((0, "", 1100.0, 0.5), (3, "101", 4500.0, 1.0)):
            assert basic_cost(z, d, r) == basic_traversal(z, w, d, r).materialize().length, (z, d, r)

    def test_cost_is_advice_value_independent(self):
        for j in range(8):
            assert basic_cost(3, 7.5, 0.4) == basic_traversal(3, format(j, "03b"), 7.5, 0.4).materialize().length

    def test_sweep_bound_holds(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            z = int(rng.integers(0, 13))
            r = 10.0 ** rng.uniform(-3, 3)
            d = r * 10.0 ** rng.uniform(math.log10(1.001), math.log10(2000.0))
            assert basic_cost(z, d, r) <= sweep_cost_bound(z, d, r)

    def test_column_guard(self):
        with pytest.raises(BudgetExceededError):
            basic_cost(2, 2.5e7, 1.0)

    def test_huge_spiral_uses_closed_form(self):
        k = math.ceil(2.0**40)
        assert basic_cost(0, 2.0**40, 1.0) == (2.0 * k + 1.0) ** 2


class TestTraversalCoverage:
    def test_every_covered_placement_is_detected(self):
        # 1000 random treasures inside the guaranteed region (the sector
        # truncation for aimable advice, the disc otherwise) are all found
        # before the stream ends.
        from planehunt import run
        from planehunt.advice import decode_sector
        from planehunt.tiling import TileFrame

        rng = np.random.default_rng(71)
        placements = 0
        while placements < 1000:
            z = int(rng.integers(0, 8))
            r = 10.0 ** rng.uniform(-1, 1)
            d = r * rng.uniform(1.05, 25.0)
            w = format(rng.integers(0, 1 << z), f"0{z}b") if z else ""
            stream = basic_traversal(z, w, d, r)
            cap = basic_cost(z, d, r) + 1.0
            for _ in range(25):
                rho = d * math.sqrt(rng.uniform())
                if z >= 2:
                    sector = decode_sector(w, (0.0, 0.0))
                    ang = rng.uniform(0.0, sector.wedge_angle)
                    frame = TileFrame(Point2(0.0, 0.0), sector.cw_ray_angle, r)
                    world = frame.to_world(
                        np.array([[rho * math.cos(ang), rho * math.sin(ang)]])
                    )
                    q = (world[0, 0], world[0, 1])
                else:
                    ang = rng.uniform(0.0, math.tau)
                    q = (-rho * math.sin(ang), rho * math.cos(ang))
                outcome = run(stream, q, r, cap)
                assert outcome.found, (z, d, r, q)
                placements += 1


class TestStreamMechanics:
    def test_regeneration_is_bit_identical(self):
        stream = basic_traversal(3, "101", 9.0, 0.3)
        a = stream.materialize()
        b = stream.materialize()
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.seg_lengths, b.seg_lengths)

    def test_reverse_blocks_retrace_exactly(self):
        _assert_round_trip(0, "", 5.0, 0.8)
        _assert_round_trip(4, "1011", 6.0, 0.45)
        _assert_round_trip(0, "", 1100.0, 0.5)  # 8801 spiral instructions: three pieces each way
        _assert_round_trip(3, "110", 4500.0, 1.0)  # 4500 sweep columns: two pieces each way

    @pytest.mark.xfail(strict=True, reason="spiral pieces restart at the closed-form offset, "
                       "not where the previous piece's running sum ended (non-dyadic r)")
    def test_non_dyadic_spiral_retraces_exactly_across_pieces(self):
        _assert_round_trip(0, "", 1000.0, 0.1)

    def test_prefix_splits_exactly(self):
        stream = spiral(4.0, 1.0)
        p = stream.prefix(7.5)
        assert p.length == 7.5
        assert p.segment_count == 5
        full = stream.materialize()
        assert np.array_equal(p.vertices[:-1], full.vertices[: p.segment_count])

    def test_prefix_at_segment_boundary(self):
        p = spiral(4.0, 1.0).prefix(2.0)
        assert p.length == 2.0
        assert p.segment_count == 2

    def test_prefix_of_finite_stream_saturates(self):
        p = spiral(2.0, 1.0).prefix(1e9)
        assert p.length == 25.0

    def test_out_and_back_returns_to_start(self):
        stream = basic_traversal(2, "10", 8.0, 0.5, start=(3.0, 4.0))
        blocks = _assert_out_and_back(stream, 11.25, 0, 1)
        poly = blocks_to_polyline(blocks, (3.0, 4.0))
        assert tuple(poly.vertices[-1]) == (3.0, 4.0)
        assert poly.length == pytest.approx(22.5, rel=1e-12)

    def test_longer_trips_tag_what_the_last_trip_walked(self):
        # Past one STREAM_CHUNK piece: 8801 spiral instructions, 4500 sweep columns.
        for stream in (spiral(1100.0, 0.5, (1.0, 2.0)), basic_traversal(3, "110", 4500.0, 1.0, (1.0, 2.0))):
            whole = list(stream.blocks())
            first, second = (float(np.cumsum(b.lengths)[-1]) for b in whole[:2])
            walked = 0  # the last block out is never counted, cut or not
            for arc, pieces in ((0.5 * first, 1), (first, 1), (first + 0.5 * second, 2), (1e12, len(whole))):
                _assert_out_and_back(stream, arc, walked, pieces)
                walked = pieces - 1

    def test_materialize_guard(self):
        with pytest.raises(BudgetExceededError):
            spiral(1e5, 1.0).materialize(max_segments=10)


def _assert_out_and_back(stream, arc, walked, pieces):
    """One trip: the first ``walked`` of ``pieces`` blocks out are tagged, the way back is."""
    trip = out_and_back_blocks(stream, arc, walked)
    blocks = []
    while True:
        try:
            blocks.append(next(trip))
        except StopIteration as stop:
            count = stop.value
            break
    out, back = blocks[:pieces], blocks[pieces:]
    assert len(back) == pieces and count == pieces - 1
    assert [b.retrace for b in out] == [i < walked for i in range(pieces)]
    assert all(b.retrace for b in back)
    for a, b in zip(out, prefix_blocks(stream, arc)):
        assert np.array_equal(a.points, b.points) and np.array_equal(a.lengths, b.lengths)
    for a, b in zip(back, reversed(out)):
        assert np.array_equal(a.points, b.points[::-1]) and np.array_equal(a.lengths, b.lengths[::-1])
    return blocks


def _assert_round_trip(z, w, d, r, start=(1.0, 2.0)):
    blocks = list(round_trip_blocks(z, w, d, r, start))
    half = len(blocks) // 2
    assert not any(b.retrace for b in blocks[:half])
    assert all(b.retrace for b in blocks[half:])
    if half == 1:  # one piece: the way back is the piece just built, flipped
        assert np.shares_memory(blocks[0].points, blocks[1].points)
    fwd = blocks_to_polyline(blocks[:half], start)
    back = blocks_to_polyline(blocks[half:], start)
    one_way = basic_traversal(z, w, d, r, start).materialize()
    assert np.array_equal(fwd.vertices, one_way.vertices)
    assert np.array_equal(fwd.seg_lengths, one_way.seg_lengths)
    assert np.array_equal(back.vertices, fwd.vertices[::-1])
    assert np.array_equal(back.seg_lengths, fwd.seg_lengths[::-1])
