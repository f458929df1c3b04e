"""Traversal tests: spiral instruction sequence, sector sweep geometry, the
exact cost calculator, stream mechanics (prefix, reverse, determinism) and
phase trips."""

import itertools
import math

import numpy as np
import pytest

import planehunt.traversal as traversal
from planehunt import (
    Block,
    BudgetExceededError,
    Point2,
    PreconditionError,
    TileFrame,
    TrajectoryStream,
    basic_cost,
    basic_traversal,
    column_count,
    decode_sector,
    hypothesis_sweep,
    large_vision,
    medium_vision,
    phase_trips,
    prefix_blocks,
    round_trip_blocks,
    small_vision,
    spiral,
    sweep_cost_bound,
    universal,
)
from planehunt.strategies import _ray_blocks
from planehunt.traversal import blocks_to_polyline, rounded
from _oracles import regenerated_phase_trips
from test_sim import one_segment_stream

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
            fpoly = type(poly)(fverts)
            from planehunt.tiling import column_heights

            heights = column_heights(math.tau / (1 << z), d, r, 0, column_count(d, r))
            for u, vmax in enumerate(heights):
                for v in range(vmax + 1):
                    center = ((u + 0.5) * r, (v + 0.5) * r)
                    assert _min_distance_to_polyline(fpoly, center) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_each_chunk_vertex_is_its_frame_point_mapped_alone(self, seed):
        """Every vertex of a sweep piece, its head included, is ``to_world`` of
        its own frame point (the apex for the first piece), bit for bit."""
        from planehunt.tiling import column_heights

        rng = np.random.default_rng(seed)
        apex = Point2(*rng.uniform(-1e3, 1e3, size=2))
        frame = TileFrame(apex, float(rng.uniform(0.0, math.tau)), 0.1 + float(rng.uniform(0.0, 0.2)))
        r, wedge = frame.tile_size, math.tau / 8.0
        D = r * 9000.5
        for u_lo, u_hi in ((0, 300), (4096, 4100), (int(rng.integers(1, 8000)), 9000)):
            pts = traversal._sweep_piece(frame, wedge, D, r, u_lo, u_hi)[0].points()
            heights = column_heights(wedge, D, r, u_lo, u_hi)
            want = [(apex.x, apex.y)] if u_lo == 0 else [((u_lo - 1 + 0.5) * r, 0.5 * r)]
            for u, v in zip(range(u_lo, u_hi), heights):
                want += [((u + 0.5) * r, 0.5 * r), ((u + 0.5) * r, (v + 0.5) * r), ((u + 0.5) * r, 0.5 * r)]
            assert pts.shape == (len(want), 2)
            for i, point in enumerate(want):
                alone = np.array(point) if i == 0 and u_lo == 0 else frame.to_world(np.array([point]))[0]
                assert pts[i].tobytes() == alone.tobytes()

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


def assert_calculator_matches(cost, z, w, d, r):
    """``basic_cost`` against the materialized traversal.  It is the exact sum of
    the blocks' totals, rounded once, bit for bit, and so is the materialized
    ``Polyline.length``; the stored lengths, each rounded, summed left to right
    lie within the fold's rounding bound, 2^-52 of the cost per segment."""
    stream = basic_traversal(z, w, d, r)
    blocks = list(stream.blocks())
    assert cost == rounded(sum(b.total for b in blocks)), (z, d, r)
    poly = blocks_to_polyline(blocks, stream.start)
    assert cost == poly.length == stream.materialize().length, (z, d, r)
    folded = float(np.cumsum(poly.seg_lengths)[-1])
    assert abs(folded - cost) <= poly.segment_count * 2.0**-52 * cost, (z, d, r)
    return poly


class TestCostCalculator:
    def test_matches_materialized_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            z = int(rng.integers(0, 13))
            r = 10.0 ** rng.uniform(-3, 3)
            d = r * rng.uniform(1.0, 400.0)
            w = format(rng.integers(0, 1 << z), f"0{z}b") if z else ""
            assert_calculator_matches(basic_cost(z, d, r), z, w, d, r)
        # Past one STREAM_CHUNK piece: a spiral of 8801 instructions and a sweep of 4500 columns.
        for z, w, d, r in ((0, "", 1100.0, 0.5), (3, "101", 4500.0, 1.0)):
            assert_calculator_matches(basic_cost(z, d, r), z, w, d, r)

    def test_cost_is_advice_value_independent(self):
        lengths = {assert_calculator_matches(basic_cost(3, 7.5, 0.4), 3, format(j, "03b"), 7.5, 0.4).length
                   for j in range(8)}
        assert lengths == {basic_cost(3, 7.5, 0.4)} == {115.48284271247462}  # the stored lengths sum to ...464

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

    def test_spiral_from_a_non_dyadic_start_retraces_exactly(self):
        # The start is added before each piece's running sum, so a way back cut
        # into other pieces than the way out rounds differently.
        _assert_round_trip(0, "", 1100.0, 0.5, (123.456, -7.89))

    def test_non_dyadic_spiral_retraces_each_piece_exactly(self):
        _assert_flips_piecewise(0, "", 1000.0, 0.1, (1.0, 2.0))

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

    @pytest.mark.parametrize("arc", [math.nan, math.inf, -1.0])
    def test_prefix_arc_must_be_finite_and_nonnegative(self, arc):
        with pytest.raises(PreconditionError):
            large_vision().prefix(arc)

    def test_out_and_back_returns_to_start(self):
        stream = basic_traversal(2, "10", 8.0, 0.5, start=(3.0, 4.0))
        blocks = _assert_trips(stream, [(11.25, 1)])
        poly = blocks_to_polyline(blocks, (3.0, 4.0))
        assert tuple(poly.vertices[-1]) == (3.0, 4.0)
        assert poly.length == pytest.approx(22.5, rel=1e-12)

    def test_longer_trips_tag_what_the_last_trip_walked(self):
        # Past one STREAM_CHUNK piece: 8801 spiral instructions, 4500 sweep columns.
        for stream in (spiral(1100.0, 0.5, (1.0, 2.0)), basic_traversal(3, "110", 4500.0, 1.0, (1.0, 2.0))):
            whole = list(stream.blocks())
            first, second = (float(np.cumsum(b.lengths)[-1]) for b in whole[:2])
            _assert_trips(stream, [(0.5 * first, 1), (first, 1), (first + 0.5 * second, 2), (1e12, len(whole))])

    def test_materialize_guard(self, monkeypatch):
        monkeypatch.setattr(traversal, "MAX_STREAM_SEGMENTS", 10)
        with pytest.raises(BudgetExceededError):
            spiral(1e5, 1.0).materialize()

    def test_prefix_guard(self, monkeypatch):
        """``prefix`` pulls no more than the segment budget, plus the block that crosses it."""
        monkeypatch.setattr(traversal, "MAX_STREAM_SEGMENTS", 1000)
        pulled = []

        def counted():
            for block in small_vision(2, "11").blocks():
                pulled.append(block.lengths.size)
                yield block

        with pytest.raises(BudgetExceededError, match="exceeds 1000 segments"):
            TrajectoryStream((0.0, 0.0), counted).prefix(1e12)
        assert sum(pulled[:-1]) <= 1000 < sum(pulled)
        assert small_vision(2, "11").prefix(100.0).length == 100.0  # a short prefix stays in budget

    def test_a_prefix_that_cuts_the_crossing_block_is_kept(self, monkeypatch):
        """The budget is checked when a further block is asked for, so the block that crosses it, cut short,
        is kept, and ``materialize`` is still refused for a stream that ends with that block."""
        whole = spiral(30.0, 1.0).materialize()  # 121 instructions in one block
        monkeypatch.setattr(traversal, "MAX_STREAM_SEGMENTS", 100)
        cut = spiral(30.0, 1.0).prefix(0.5 * whole.length)
        assert 0 < cut.segment_count < whole.segment_count and cut.length == 0.5 * whole.length
        with pytest.raises(BudgetExceededError, match="exceeds 100 segments"):
            spiral(30.0, 1.0).materialize()


class TestPhaseTrips:
    def test_each_stream_is_walked_once(self):
        """One ``blocks()`` call for the whole walk, and after each trip the
        stream has yielded exactly the blocks that trip's way out touched."""
        calls, pulled = [], []

        def keep(blocks):
            for block in blocks:
                pulled.append(block)
                yield block

        def blocks():
            calls.append(None)
            return keep(inner.blocks())

        inner = spiral(4000.0, 0.5)  # 32001 instructions: eight pieces
        ends = np.cumsum([float(np.cumsum(b.lengths)[-1]) for b in inner.blocks()])
        trips = [(0.5 * ends[0], 1), (ends[0], 1), (ends.take([0, 1]).mean(), 2),
                 (ends.take([2, 3]).mean(), 4), (ends.take([4, 5]).mean(), 6), (1e12, 8)]
        walk, after = [], []

        def arcs():
            for arc, _ in trips:
                yield arc
                after.append((len(walk), len(pulled)))  # asked for the next arc: the trip is done

        walk.extend(phase_trips([TrajectoryStream(inner.start, blocks)], arcs()))
        assert len(calls) == 1
        done = 0
        for (_, pieces), (end, seen) in zip(trips, after):
            out = walk[done : done + pieces]
            assert end - done == 2 * pieces and seen == pieces
            for a, b in zip(out[:-1], pulled):
                assert a.points is b.points
            last = out[-1].points
            assert np.array_equal(last[:-1], pulled[pieces - 1].points[: last.shape[0] - 1])
            done = end
        assert len(after) == len(trips)

    def test_every_way_back_goes_through_flip_block(self, monkeypatch):
        """Every way-back block is made by ``flip_block``, which runs once per
        whole block a trip walks and once per trip for the trip's last piece.

        The spiral's first 4096-instruction piece ends near arc 2.1e6, so the
        trips past it walk that piece whole and yield its one flip again."""
        flipped = []
        flip = traversal.flip_block

        def counting(block):
            flipped.append(flip(block))
            return flipped[-1]

        monkeypatch.setattr(traversal, "flip_block", counting)
        streams = [spiral(1100.0, 0.5), one_segment_stream((0.0, 0.0), (3.0, 4.0))]
        arcs = [1.0, 10.0, 1e5, 3e6, 5e6, 1e12, 1e12]
        walk = list(phase_trips(streams, arcs))
        ids = {id(b) for b in flipped}
        runs = [(back, list(g)) for back, g in itertools.groupby(walk, key=lambda b: id(b) in ids)]
        assert [back for back, _ in runs] == [False, True] * (2 * len(arcs))
        whole = sum(max(len(prefix_blocks(s.blocks(), arc)) - 1 for arc in arcs) for s in streams)
        assert whole == 2  # the spiral's first two pieces; its third ends the stream
        assert len(flipped) == whole + len(streams) * len(arcs)
        for (_, out), (_, back) in zip(runs[::2], runs[1::2]):
            assert len(back) == len(out)
            for a, b in zip(back, reversed(out)):
                assert np.array_equal(a.points, b.points[::-1]) and a.retrace

    def test_a_walk_that_stops_on_the_way_out_flips_only_earlier_trips(self, monkeypatch):
        """The flips of the blocks a trip newly walks whole are made when its way back begins."""
        flipped = []
        flip = traversal.flip_block

        def counting(block):
            flipped.append(block)
            return flip(block)

        monkeypatch.setattr(traversal, "flip_block", counting)
        pieces = list(spiral(1100.0, 0.5).blocks())  # the first piece ends near arc 2.1e6
        walk = phase_trips([TrajectoryStream((0.0, 0.0), lambda: iter(pieces))], [1.0, 3e6])
        first_out, _, whole, cut = itertools.islice(walk, 4)  # trip 1 out and back, then trip 2 out
        assert whole is pieces[0] and [b is first_out for b in flipped] == [True]
        next(walk)  # trip 2's way back begins
        assert [b is pieces[0] or b is cut for b in flipped] == [False, True, True]

    @pytest.mark.parametrize("name", ["small z=3", "universal z=2", "two streams"])
    def test_matches_regenerated_trips(self, name):
        """The same blocks, tags included, as cutting every trip from the start."""

        def doubling():
            return (2.0**k for k in itertools.count(1))

        def regenerated_small(z, w):
            origin = Point2(0.0, 0.0)
            ray = TrajectoryStream(origin, lambda: _ray_blocks(origin, decode_sector(w, origin).cw_ray_angle))
            return TrajectoryStream(origin, lambda: regenerated_phase_trips([hypothesis_sweep(z, w), ray], doubling()))

        if name == "small z=3":
            stream, oracle, segments = small_vision(3, "010"), regenerated_small(3, "010"), 200_000
        elif name == "universal z=2":
            parts = [regenerated_small(2, "11"), medium_vision(2, "11", 0.5, 3), large_vision()]
            stream, segments = universal(2, "11", 0.5, 3), 200_000
            oracle = TrajectoryStream((0.0, 0.0), lambda: regenerated_phase_trips(parts, doubling()))
        else:
            parts = [spiral(1100.0, 0.5), one_segment_stream((0.0, 0.0), (3.0, 4.0))]
            arcs = [0.5, 5.0, 300.0, 1e5, 1e7, 1e12, 1e12]
            stream = TrajectoryStream((0.0, 0.0), lambda: phase_trips(parts, arcs))
            oracle = TrajectoryStream((0.0, 0.0), lambda: regenerated_phase_trips(parts, arcs))
            segments = math.inf
        seen = 0
        for a, b in itertools.zip_longest(stream.blocks(), oracle.blocks()):
            assert a is not None and b is not None
            assert np.array_equal(a.points, b.points) and np.array_equal(a.lengths, b.lengths)
            assert (a.retrace, a.total) == (b.retrace, b.total)
            seen += a.lengths.size
            if seen >= segments:
                break
        assert seen >= min(segments, 2 * 8801)  # the finite walk went out and back over the whole spiral

    def test_an_arc_that_shrinks_is_refused_before_its_trip(self):
        parts = [spiral(1100.0, 0.5), one_segment_stream((0.0, 0.0), (3.0, 4.0))]
        grown = list(phase_trips(parts, [0.0, 3e6, 3e6]))
        walk = phase_trips(parts, [0.0, 3e6, 3e6, 2e6, 1e12])
        yielded = list(itertools.islice(walk, len(grown)))
        with pytest.raises(PreconditionError, match="must not shrink"):
            next(walk)
        for a, b in zip(yielded, grown):
            assert np.array_equal(a.points, b.points) and (a.retrace, a.total) == (b.retrace, b.total)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams_and_growing_arcs_match_regenerated_trips(self, seed):
        """User-built streams of random block sizes, cut by
        random non-decreasing arcs (repeats, 0.0, and cuts exactly on a block
        end among them), give the same blocks as cutting every trip afresh."""
        rng = np.random.default_rng(seed)
        streams, ends = [], []
        for _ in range(rng.integers(1, 4)):
            blocks, at, walked = [], np.zeros(2), 0.0
            for _ in range(rng.integers(0, 7)):
                # Axis moves of dyadic length, so every block end is an exact arc.
                lengths = rng.integers(1, 9, size=rng.integers(1, 6)) * 0.25
                axis = rng.integers(0, 2, size=lengths.size)
                steps = np.zeros((lengths.size, 2))
                steps[np.arange(lengths.size), axis] = lengths * rng.choice([-1.0, 1.0], size=lengths.size)
                points = np.concatenate([at[None, :], at + np.cumsum(steps, axis=0)])
                blocks.append(Block.of(points, lengths))
                at, walked = points[-1], walked + float(lengths.sum())
                ends.append(walked)
            streams.append(TrajectoryStream((0.0, 0.0), lambda blocks=blocks: iter(blocks)))
        picks = [0.0, 0.0] + ends + list(rng.uniform(0.0, 1.2 * max(ends, default=1.0), size=6))
        arcs = sorted(float(a) for a in rng.choice(picks, size=10))
        walk = list(phase_trips(streams, arcs))
        oracle = list(regenerated_phase_trips(streams, arcs))
        assert len(walk) == len(oracle)
        for a, b in zip(walk, oracle):
            assert np.array_equal(a.points, b.points) and np.array_equal(a.lengths, b.lengths)
            assert (a.retrace, a.total) == (b.retrace, b.total)


def _assert_trips(stream, trips):
    """One ``phase_trips`` walk over ``trips``, a list of (arc, blocks out).

    Each trip's blocks out are the stream's prefix, the first ones that the
    previous trip walked whole are tagged, and the way back is them flipped.
    """
    blocks = list(phase_trips([stream], [arc for arc, _ in trips]))
    rest = blocks
    walked = 0  # the last block out is never counted, cut or not
    for arc, pieces in trips:
        out, back, rest = rest[:pieces], rest[pieces : 2 * pieces], rest[2 * pieces :]
        assert len(back) == pieces
        assert [b.retrace for b in out] == [i < walked for i in range(pieces)]
        assert all(b.retrace for b in back)
        for a, b in zip(out, prefix_blocks(stream.blocks(), arc)):
            assert np.array_equal(a.points, b.points) and np.array_equal(a.lengths, b.lengths)
        for a, b in zip(back, reversed(out)):
            assert np.array_equal(a.points, b.points[::-1]) and np.array_equal(a.lengths, b.lengths[::-1])
        walked = pieces - 1
    assert not rest
    return blocks


def _assert_flips_piecewise(z, w, d, r, start):
    """Each way-back block is its way-out block flipped, bit for bit; the first is the last one built."""
    blocks = list(round_trip_blocks(z, w, d, r, start))
    half = len(blocks) // 2
    assert not any(b.retrace for b in blocks[:half])
    assert all(b.retrace for b in blocks[half:])
    assert np.shares_memory(blocks[half - 1].points, blocks[half].points)
    for out, back in zip(blocks[:half], reversed(blocks[half:])):
        assert np.array_equal(back.points, out.points[::-1])
        assert np.array_equal(back.lengths, out.lengths[::-1])
    return blocks


def _assert_round_trip(z, w, d, r, start=(1.0, 2.0)):
    blocks = _assert_flips_piecewise(z, w, d, r, start)
    half = len(blocks) // 2
    fwd = blocks_to_polyline(blocks[:half], start)
    back = blocks_to_polyline(blocks[half:], start)
    one_way = basic_traversal(z, w, d, r, start).materialize()
    assert np.array_equal(fwd.vertices, one_way.vertices)
    assert np.array_equal(fwd.seg_lengths, one_way.seg_lengths)
    assert np.array_equal(back.vertices, fwd.vertices[::-1])
    assert np.array_equal(back.seg_lengths, fwd.seg_lengths[::-1])
