"""Blocks carry their exact totals.

Every block the library builds holds ``total``, its exact length as an int in
units of 2^-1074, set once when the block is made.  A basic-traversal piece
counts it in whole tile sizes (plus the sweep's opening move, as stored), any
other block adds its stored lengths exactly, and every stored length is its
segment's exact arc, rounded.  A flip has the same total.  No length is
summed with ``np.cumsum``: not by the pieces, their flips, round-trip folds,
prefix cuts, nor the walker, which adds exact totals and rounds a cost once.
A stream whose blocks are rebuilt with ``Block.of`` from their stored lengths
walks alike, bit for bit, wherever those lengths are the exact arcs.
"""

import itertools
import math

import numpy as np
import pytest

import planehunt.sim as sim
import planehunt.traversal as traversal
from planehunt import (
    Block,
    Point2,
    TrajectoryStream,
    adversarial_placement,
    basic_traversal,
    encode_advice,
    large_vision,
    medium_vision,
    phase_trips,
    prefix_blocks,
    round_trip_blocks,
    run,
    small_vision,
    spiral,
    universal,
)
from planehunt.geom import detection_lengths
from planehunt.strategies import _ray_blocks
from planehunt.tiling import STREAM_CHUNK, column_heights
from planehunt.traversal import RoundTrip, _spiral_piece, basic_cost, flip_block, rounded, units
from test_retrace import _walked_blocks
from test_sim import one_segment_stream

FAR = (1e6, -1e6)


def _sampled(m: int):
    """Segment counts to read a block's arcs at: all of a short block, about 40 of a long one, both ends included."""
    return range(m + 1) if m <= 64 else sorted({0, m, *range(1, m, m // 40), m - 1})


def _assert_totals(blocks) -> list:
    """Each block's total is an int, its arc over all its segments, and each
    stored length is the exact arc of its segment, rounded."""
    blocks = list(blocks)
    for b in blocks:
        m = b.lengths.size
        assert type(b.total) is int and b.arc(0) == 0 and b.arc(m) == b.total
        for s in _sampled(m):
            if s < m:
                assert rounded(b.arc(s + 1) - b.arc(s)) == b.lengths[s], s
    return blocks


def _counted(lengths: np.ndarray, r: float) -> int:
    """The exact length that stored lengths stand for: a whole number of tile
    sizes r counts exactly, any other length (the sweep's opening move) as stored."""
    k = np.rint(lengths / r)
    whole = np.abs(lengths / r - k) < 1e-9
    return int(k[whole].sum()) * units(r) + sum(map(units, lengths[~whole].tolist()))


def _resummed(stream):
    """The same stream with every block rebuilt by ``Block.of``, as a user-built stream makes them."""
    return TrajectoryStream(stream.start, lambda: (Block.of(b.points, b.lengths, b.retrace) for b in stream.blocks()))


def _doubling():
    return (2.0**k for k in itertools.count(1))


class TestEveryBlockCarriesItsTotal:
    @pytest.mark.parametrize("D, r, start", [(1100.0, 0.5, (0.0, 0.0)), (700.0, 0.1, (123.456, -7.89))])
    def test_spiral_pieces(self, D, r, start):
        blocks = _assert_totals(spiral(D, r, start).blocks())
        assert len(blocks) >= 2 and all(b.total == _counted(b.lengths, r) for b in blocks)

    def test_sweep_pieces(self):
        w = encode_advice(FAR, (FAR[0] - 300.0, FAR[1] + 170.0), 3)
        blocks = _assert_totals(basic_traversal(3, w, 400.0, 0.07, FAR).blocks())
        assert len(blocks) == 2 and all(b.total == _counted(b.lengths, 0.07) for b in blocks)
        # Each stored length of 0.07 is rounded: their exact sum is another number than the count.
        assert blocks[1].total != sum(map(units, blocks[1].lengths.tolist()))

    @pytest.mark.parametrize("z, w, D, r, start", [
        (0, "", 1100.0, 0.5, (0.0, 0.0)),
        (0, "", 700.0, 0.1, (123.456, -7.89)),
        (3, "010", 400.0, 0.07, (0.0, 0.0)),
    ])
    def test_both_halves_of_a_round_trip(self, z, w, D, r, start):
        blocks = _assert_totals(round_trip_blocks(z, w, D, r, start))
        half = len(blocks) // 2
        assert half >= 2
        # Each flip has its way-out block's total, for any r: exact lengths add alike both ways.
        assert all(a.total == b.total for a, b in zip(blocks[:half], reversed(blocks[half:])))

    @pytest.mark.parametrize("stream", [
        spiral(1100.0, 0.5),
        spiral(700.0, 0.1, (123.456, -7.89)),
        one_segment_stream((0.0, 0.0), (3.0, 4.0)),
    ], ids=["dyadic", "non-dyadic", "user-built"])
    def test_prefix_cuts_exact_and_split(self, stream):
        first = next(iter(stream.blocks()))
        whole = rounded(first.total)
        length = sum(b.total for b in stream.blocks())
        cs = np.cumsum(first.lengths)
        for arc in (0.0, float(cs[0]), float(cs[len(cs) // 2]), 0.3 * whole, 0.7 * whole, whole, 1.7 * whole, 1e12):
            cut = _assert_totals(prefix_blocks(stream.blocks(), arc))
            assert sum(b.total for b in cut) == min(units(arc), length), arc

    @pytest.mark.parametrize("name, make, segments", [
        ("small z=0", lambda: small_vision(0, ""), 200_000),
        ("small z=3", lambda: small_vision(3, "010"), 200_000),
        ("medium s=3", lambda: medium_vision(2, "11", 0.5, 3), 200_000),
        ("universal z=2", lambda: universal(2, "11", 0.5, 3), 200_000),
        ("large", large_vision, 2_000),
    ])
    def test_strategy_streams(self, name, make, segments):
        assert len(_assert_totals(_walked_blocks(make(), segments))) > 20

    def test_universal_yields_each_kept_flip_again(self):
        blocks = _assert_totals(_walked_blocks(universal(2, "11", 0.5, 3), 200_000))
        seen = {}
        for b in blocks:
            seen[id(b)] = seen.get(id(b), 0) + 1
        assert max(seen.values()) > 2  # a kept block or flip, yielded on several trips

    def test_every_field_is_required(self):
        points, lengths = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0])
        with pytest.raises(TypeError):
            Block(points, lengths)
        with pytest.raises(TypeError):
            Block(points, lengths, True)

    @pytest.mark.parametrize("angle", [0.0, math.pi / 6.0, 2.0])
    def test_ray_probe(self, angle):
        assert len(_assert_totals(itertools.islice(_ray_blocks(Point2(0.3, -0.1), angle), 60))) == 60


def _assert_same_run(make, treasure, r, cap=1e9):
    out = run(make(), treasure, r, cap)
    assert out == run(_resummed(make()), treasure, r, cap)
    return out


class TestResummedStreamsWalkAlike:
    @pytest.mark.parametrize("z, treasure", [(0, (1.3, -0.7)), (3, (1.3, 0.4))])
    def test_small_vision(self, z, treasure):
        w = encode_advice((0.0, 0.0), treasure, z)
        assert _assert_same_run(lambda: small_vision(z, w), treasure, 2.0**-12).found

    def test_medium_large_and_basic(self):
        w = encode_advice((0.0, 0.0), (30.0, -21.0), 2)
        assert _assert_same_run(lambda: medium_vision(2, w, 0.5, 3), (30.0, -21.0), 4.0).found
        assert _assert_same_run(large_vision, (70.0, 20.0), 66.0).found
        q = (FAR[0] - 300.0, FAR[1] + 170.0)
        w = encode_advice(FAR, q, 3)
        assert _assert_same_run(lambda: basic_traversal(3, w, 400.0, 0.07, FAR), q, 0.07).found

    def test_rounded_stored_lengths_walk_their_own_sum(self):
        # Of r = 0.07 the stored lengths are rounded, and a block rebuilt from them
        # carries their exact sum, not the count.  Both walks find the treasure on
        # the same segment at the same point, and each costs the arc to that
        # segment, its own, rounded once, plus the arc along it (here the two
        # roundings agree, as ``test_medium_large_and_basic`` shows).
        q = (FAR[0] - 300.0, FAR[1] + 170.0)
        w = encode_advice(FAR, q, 3)
        make = lambda: basic_traversal(3, w, 400.0, 0.07, FAR)  # noqa: E731
        counted, resummed = run(make(), q, 0.07, 1e9), run(_resummed(make()), q, 0.07, 1e9)
        assert counted.found and resummed.found
        assert (counted.detection_point, counted.segments_executed) == (resummed.detection_point, resummed.segments_executed)
        for stream, out in ((make(), counted), (_resummed(make()), resummed)):
            walked, s = 0, out.segments_executed - 1
            for b in stream.blocks():
                if s < b.lengths.size:
                    break
                walked, s = walked + b.total, s - b.lengths.size
            t = detection_lengths(b.points[s : s + 2], np.array([q]), 0.07)[0, 0]
            assert out.cost == rounded(walked + b.arc(s)) + t

    def test_universal_with_resummed_components(self):
        q = (-5.0, 3.0)
        w = encode_advice((0.0, 0.0), q, 2)
        parts = (small_vision(2, w), medium_vision(2, w, 0.5, 3), large_vision())
        bare = [_resummed(p) for p in parts]
        out = _assert_same_run(lambda: universal(2, w, 0.5, 3), q, 0.3)
        assert out.found
        assert out == run(TrajectoryStream((0.0, 0.0), lambda: phase_trips(bare, _doubling())), q, 0.3, 1e9)

    @pytest.mark.parametrize("cap", [0.75, 1234.5, 98765.4321])
    def test_cap_inside_a_block(self, cap):
        out = _assert_same_run(lambda: small_vision(3, "010"), (500.0, 500.0), 0.01, cap)
        assert not out.found and out.cost == cap

    def test_adversarial_placement(self):
        with_totals = adversarial_placement(lambda w: small_vision(3, w), 3, 6.0, 0.5, 0.5)
        assert with_totals == adversarial_placement(lambda w: _resummed(small_vision(3, w)), 3, 6.0, 0.5, 0.5)


class _CountingNumpy:
    """numpy, with its ``cumsum`` calls on lengths (floats) counted."""

    def __init__(self):
        self.cumsums = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cumsum(self, a, *args, **kwargs):
        self.cumsums += np.asarray(a).dtype.kind == "f"
        return np.cumsum(a, *args, **kwargs)


@pytest.fixture
def counting(monkeypatch):
    """numpy with its ``cumsum`` calls on lengths counted, as ``sim`` and ``traversal`` see it.
    (A sweep piece adds up its integer column counts once, where an arc inside it is asked for.)"""
    counting = _CountingNumpy()
    monkeypatch.setattr(sim, "np", counting)
    monkeypatch.setattr(traversal, "np", counting)
    return counting


class TestNothingIsCumsummed:
    def test_the_walker_adds_totals(self, counting):
        q = (-5.0, 3.0)
        w = encode_advice((0.0, 0.0), q, 2)
        found = run(universal(2, w, 0.5, 3), q, 0.3, 1e9)
        assert found.found and counting.cumsums == 0
        assert len(_walked_blocks(universal(2, w, 0.5, 3), found.segments_executed)) > 100
        capped = run(universal(2, w, 0.5, 3), (900.0, 900.0), 0.3, 5e4)
        assert not capped.found and capped.cost == 5e4 and counting.cumsums == 0

    @pytest.mark.parametrize("z, w", [(0, ""), (3, "110")])
    def test_basic_traversals_of_any_r(self, counting, z, w):
        q = (FAR[0] + 9000.0, FAR[1] + 40.0)  # out of sight
        for r in (0.3, 0.5):
            out = run(basic_traversal(z, w, 3000.0, r, FAR), q, r, 1e12)
            blocks = list(basic_traversal(z, w, 3000.0, r, FAR).blocks())
            fold = RoundTrip(z, w, 3000.0, r, FAR).fold()
            assert len(blocks) >= 2 and fold.totals == tuple(b.total for b in blocks + blocks[::-1])
            assert not out.found and out.cost == basic_cost(z, 3000.0, r) == rounded(sum(b.total for b in blocks))
        assert counting.cumsums == 0

    def test_phase_trips_cut_and_flip(self, counting):
        arcs = [1.0, 10.0, 1e5, 3e6, 5e6, 1e12, 1e12]
        for r in (0.3, 0.5):
            trips = list(phase_trips([spiral(1100.0, r)], arcs))
            assert len(trips) > 2 * len(arcs)
            _assert_totals(trips)
        assert counting.cumsums == 0

    def test_round_trip_blocks(self, counting):
        blocks = list(round_trip_blocks(3, "101", 4500.0, 0.1, (1.0, 2.0)))
        assert len(blocks) == 2 * 11  # 11 pieces out, their 11 flips back
        assert counting.cumsums == 0


def _draws(seed, count):
    """Derandomized cells, half of them of power-of-two r: (z, advice, D, r, start), D a multiple of r or not."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        z = int(rng.choice([0, 1, 2, 3, 5, 8]))
        r = 2.0 ** int(rng.integers(-12, 7))
        if i % 4 >= 2:
            r *= float(rng.uniform(1.0, 2.0))
        ratio = int(np.exp(rng.uniform(0.0, math.log(2e5))))  # up to 49 sweep and 196 spiral pieces
        D = ratio * r if i % 2 else (ratio + float(rng.uniform(0.01, 0.99))) * r
        start = tuple(float(c) for c in rng.uniform(-2000.0, 2000.0, 2))
        yield z, "".join(rng.choice(["0", "1"], z)), D, r, start


class TestPiecesCarryExactTotals:
    @pytest.mark.parametrize("seed", range(6))
    def test_totals_are_counted_both_ways(self, seed):
        for z, w, D, r, start in _draws(seed, 40):
            blocks = list(basic_traversal(z, w, D, r, start).blocks())
            for b in blocks:
                m = b.lengths.size
                assert b.total == b.path.total == _counted(b.lengths, r), (z, D, r)
                flip = flip_block(b)
                assert flip.total == b.total and flip.path.total == b.total
                assert all(flip.arc(s) == b.total - b.arc(m - s) for s in _sampled(m))
            trip = RoundTrip(z, w, D, r, start)
            fold = trip.fold()
            assert list(fold.totals) == [b.total for b in trip.blocks()]
            assert fold.segments == 2 * sum(b.lengths.size for b in blocks)

    def test_a_round_trip_folds_without_lengths(self, counting, monkeypatch):
        def refused(*args):
            raise AssertionError("a lengths array was made")

        monkeypatch.setattr(traversal, "_spiral_lengths", refused)
        monkeypatch.setattr(traversal, "_sweep_lengths", refused)
        for z, w, D, r, pieces in ((0, "", 4096.0, 0.3, 14), (3, "110", 10000.0, 0.5, 5)):
            trip = RoundTrip(z, w, D, r, FAR)
            walked = sum(trip.fold().totals)
            assert trip.pieces == pieces and walked % 2 == 0 and rounded(walked // 2) == basic_cost(z, D, r)
        assert counting.cumsums == 0

    def test_units_are_exact(self):
        assert units(1.0) == 2**1074 and units(0.5) == 2**1073 and units(5e-324) == 1 and units(0.0) == 0
        assert units(2.0**1023) == 2**2097 and units(0.1) == 3602879701896397 * 2**1019
        for x in (0.1, 1.0 / 3.0, 5e-324, 2.2250738585072014e-308, 1e300, math.pi):
            assert rounded(units(x)) == x and rounded(3 * units(x)) == 3.0 * x
        assert rounded(2 * units(1.7976931348623157e308)) == math.inf

    def test_counts_past_two_to_the_53_stay_exact(self, counting):
        # Three instructions from lo count 3 lo / 2 + 4 tile sizes for an even lo, (3 lo + 7) / 2 for an odd one.
        for lo, count in (((2**54 - 10) // 3, 2**53 - 1), ((2**54 - 7) // 3, 2**53), ((2**54 - 4) // 3, 2**53 + 2)):
            assert sum((i + 2) // 2 for i in range(lo, lo + 3)) == count
            block = Block.of(*_spiral_piece(Point2(0.0, 0.0), 1.0, lo, lo + 3))
            assert block.total == count * units(1.0) and rounded(block.total) == float(count)
            assert flip_block(block).total == block.total
        assert counting.cumsums == 0

    def test_sweeps_whose_heights_could_wrap_int64_are_added_exactly(self):
        D, r = 2.0**56, 1.0  # 4096 heights near 2^56 add up past 2^63
        frame = traversal.TileFrame(Point2(0.0, 0.0), 0.0, r)
        piece, lengths = traversal._sweep_piece(frame, math.pi / 2.0, D, r, 4096, 8192)
        heights = column_heights(math.pi / 2.0, D, r, 4096, 8192)
        assert int(heights.sum()) != sum(heights.tolist())  # int64 wraps
        assert piece.total == (4096 + 2 * sum(heights.tolist())) * units(r)
        assert Block.of(piece, lengths).total == flip_block((piece, lengths)).total == piece.total
        assert piece.arc(3 * 4096) == piece.total and piece.arc(3 * 100 + 2) == (101 + 2 * sum(heights[:100].tolist())
                                                                                  + int(heights[100])) * units(r)


class TestSpiralCost:
    @staticmethod
    def _folded(k, r):
        """The spiral's lengths folded left to right, piece after piece."""
        n, total = 4 * k + 1, 0.0
        for lo in range(0, n, STREAM_CHUNK):
            lengths = traversal._spiral_lengths(lo, min(lo + STREAM_CHUNK, n), r)
            total = float(np.cumsum(np.concatenate(([total], lengths)))[-1])
        return total

    @pytest.mark.parametrize("k, r", [
        (1, 1.0), (2, 0.5), (1024, 2.0**-12), (1025, 64.0), (123457, 0.25),
        ((traversal.MAX_STREAM_SEGMENTS - 1) // 4, 2.0**-3),
    ])
    def test_basic_cost_is_the_exact_length(self, k, r):
        # Of power-of-two r every partial sum is exact, so the float fold agrees too.
        for D in {k * r, max(k - 0.5, 1.0) * r}:  # ceil(D / r) = k
            assert basic_cost(0, D, r) == float((2 * k + 1) ** 2) * r == self._folded(k, r)
            assert basic_cost(1, D, r) == basic_cost(0, D, r)

    def test_long_spirals_cost_their_count_rounded_once(self):
        for k in ((traversal.MAX_STREAM_SEGMENTS - 1) // 4 + 1, 10**8, 2**40):
            width = 2.0 * float(k) + 1.0
            assert basic_cost(0, k * 0.5, 0.5) == width * width * 0.5 == rounded((2 * k + 1) ** 2 * units(0.5))

    @pytest.mark.parametrize("D, r", [(1500.0, 1.0), (700.3, 0.125), (20.0, 2.0**-9), (5.0, 2.0), (700.3, 0.1), (20.0, 0.003)])
    def test_a_walked_round_trip_costs_twice_the_basic_cost(self, D, r):
        trip = lambda: iter([RoundTrip(0, "", D, r, FAR)])  # noqa: E731
        for stream in (TrajectoryStream(FAR, trip), TrajectoryStream(FAR, lambda: round_trip_blocks(0, "", D, r, FAR))):
            out = run(stream, (FAR[0] + 1e5, FAR[1]), r, 1e12)
            assert not out.found and out.cost == 2 * basic_cost(0, D, r)
