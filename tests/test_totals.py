"""Blocks carry their totals.

Every block the library builds holds ``total``, the left-to-right sum of its
lengths (the last entry of their cumsum), set once when the block is made.
Every field of a block is required; ``Block.of`` takes the total a piece
carries, and sums it otherwise.  A basic-traversal piece of power-of-two r
carries its totals out and back, counted in whole multiples of r, and they
must have the bits of the cumsum.  The walker folds those totals and sums a
block's lengths only where a target is seen or the cap falls; a stream whose
blocks are rebuilt with ``Block.of`` gives the same answers, bit for bit.
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
from planehunt.strategies import _ray_blocks
from planehunt.tiling import STREAM_CHUNK
from planehunt.traversal import RoundTrip, _exact, _spiral_piece, basic_cost, flip_block
from test_retrace import _walked_blocks
from test_sim import one_segment_stream

FAR = (1e6, -1e6)


def _left_sum(lengths) -> float:
    return float(np.cumsum(lengths)[-1]) if lengths.size else 0.0


def _assert_totals(blocks) -> list:
    """Each block's total is a float with the bits of its lengths' left-to-right sum."""
    blocks = list(blocks)
    for b in blocks:
        assert type(b.total) is float
        assert b.total.hex() == _left_sum(b.lengths).hex()
    return blocks


def _resummed(stream):
    """The same stream with every block rebuilt by ``Block.of``, as a user-built stream makes them."""
    return TrajectoryStream(stream.start, lambda: (Block.of(b.points, b.lengths, b.retrace) for b in stream.blocks()))


def _doubling():
    return (2.0**k for k in itertools.count(1))


class TestEveryBlockCarriesItsTotal:
    @pytest.mark.parametrize("D, r, start", [(1100.0, 0.5, (0.0, 0.0)), (700.0, 0.1, (123.456, -7.89))])
    def test_spiral_pieces(self, D, r, start):
        assert len(_assert_totals(spiral(D, r, start).blocks())) >= 2

    def test_sweep_pieces(self):
        w = encode_advice(FAR, (FAR[0] - 300.0, FAR[1] + 170.0), 3)
        assert len(_assert_totals(basic_traversal(3, w, 400.0, 0.07, FAR).blocks())) == 2

    @pytest.mark.parametrize("z, w, D, r, start", [
        (0, "", 1100.0, 0.5, (0.0, 0.0)),
        (0, "", 700.0, 0.1, (123.456, -7.89)),
        (3, "010", 400.0, 0.07, (0.0, 0.0)),
    ])
    def test_both_halves_of_a_round_trip(self, z, w, D, r, start):
        blocks = _assert_totals(round_trip_blocks(z, w, D, r, start))
        half = len(blocks) // 2
        assert half >= 2
        # Each flip sums its own reversed lengths, which rounds differently for a non-dyadic r.
        differ = any(a.total != b.total for a, b in zip(blocks[:half], reversed(blocks[half:])))
        assert differ == (r != 0.5)

    @pytest.mark.parametrize("stream", [
        spiral(1100.0, 0.5),
        spiral(700.0, 0.1, (123.456, -7.89)),
        one_segment_stream((0.0, 0.0), (3.0, 4.0)),
    ], ids=["dyadic", "non-dyadic", "user-built"])
    def test_prefix_cuts_exact_and_split(self, stream):
        first = next(iter(stream.blocks()))
        cs = np.cumsum(first.lengths)
        whole = _left_sum(first.lengths)
        for arc in (0.0, float(cs[0]), float(cs[len(cs) // 2]), 0.3 * whole, 0.7 * whole, whole, 1.7 * whole, 1e12):
            cut = prefix_blocks(stream.blocks(), arc)
            _assert_totals(cut)

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
    """numpy, with its ``cumsum`` calls counted."""

    def __init__(self):
        self.cumsums = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cumsum(self, *args, **kwargs):
        self.cumsums += 1
        return np.cumsum(*args, **kwargs)


class TestSummedOnlyWhereNeeded:
    def test_walker_sums_only_the_detecting_or_capped_block(self, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr(sim, "np", counting)
        q = (-5.0, 3.0)
        w = encode_advice((0.0, 0.0), q, 2)
        found = run(universal(2, w, 0.5, 3), q, 0.3, 1e9)
        assert found.found and counting.cumsums == 1
        assert len(_walked_blocks(universal(2, w, 0.5, 3), found.segments_executed)) > 100
        counting.cumsums = 0
        capped = run(universal(2, w, 0.5, 3), (900.0, 900.0), 0.3, 5e4)
        assert not capped.found and counting.cumsums == 1

    def test_phase_trips_sum_cuts_and_new_flips_only(self, monkeypatch):
        arcs = [1.0, 10.0, 1e5, 3e6, 5e6, 1e12, 1e12]
        counting = _CountingNumpy()

        def sums(r):
            pieces = list(spiral(1100.0, r).blocks())  # built, and summed, before counting
            stream = TrajectoryStream((0.0, 0.0), lambda: iter(pieces))
            counting.cumsums = 0
            with monkeypatch.context() as patch:
                patch.setattr(traversal, "np", counting)
                list(phase_trips([stream], arcs))
            return len(pieces), counting.cumsums

        # Per trip one cut and one flip of its last piece; once, the flip of each
        # of the three pieces later trips walk whole.  Whole trips cut nothing.
        pieces, summed = sums(0.3)
        assert pieces == 4 and summed == 2 * len(arcs) - 2 + (pieces - 1)
        # A power-of-two r: a piece and its flip carry their totals, and so does the flip
        # of the first trip's cut block, of two lengths.  The five cuts and the other
        # four cut blocks' flips are summed.
        pieces, summed = sums(0.5)
        assert pieces == 3 and summed == 5 + 4

    def test_way_back_pieces_are_summed_only_by_their_flips(self, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr(traversal, "np", counting)
        # A sweep cell: spiral pieces also cumsum their coordinates.
        blocks = list(round_trip_blocks(3, "101", 4500.0, 0.1, (1.0, 2.0)))
        assert len(blocks) == 2 * 11  # 11 pieces out, their 11 flips back
        # One sum per piece out and one per flip; a rebuilt piece's forward total is never made.
        assert counting.cumsums == 2 * 11


def _draws(seed, count):
    """Derandomized cells of power-of-two r: (z, advice, D, r, start), D a multiple of r or not."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        z = int(rng.choice([0, 1, 2, 3, 5, 8]))
        r = 2.0 ** int(rng.integers(-12, 7))
        ratio = int(np.exp(rng.uniform(0.0, math.log(2e5))))  # up to 49 sweep and 196 spiral pieces
        D = ratio * r if i % 2 else (ratio + float(rng.uniform(0.01, 0.99))) * r
        start = tuple(float(c) for c in rng.uniform(-2000.0, 2000.0, 2))
        yield z, "".join(rng.choice(["0", "1"], z)), D, r, start


class TestPowerOfTwoPiecesCarryExactTotals:
    @pytest.mark.parametrize("seed", range(6))
    def test_totals_match_the_cumsum_both_ways(self, seed):
        for z, w, D, r, start in _draws(seed, 40):
            blocks = list(basic_traversal(z, w, D, r, start).blocks())
            for j, b in enumerate(blocks):
                out, back = b.path.totals
                assert back is not None and (out is None) == (z >= 2 and j == 0), (z, D, r, j)
                assert b.total.hex() == _left_sum(b.lengths).hex()
                flip = flip_block(b)
                assert flip.path.totals == (back, out)
                assert flip.total.hex() == _left_sum(b.lengths[::-1]).hex()
            trip = RoundTrip(z, w, D, r, start)
            fold = trip.fold()
            assert [t.hex() for t in fold.totals] == [_left_sum(b.lengths).hex() for b in trip.blocks()]
            assert fold.segments == 2 * sum(b.lengths.size for b in blocks)

    def test_a_round_trip_folds_without_lengths(self, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr(traversal, "np", counting)
        spiral_trip = RoundTrip(0, "", 4096.0, 0.25, FAR)  # 17 pieces
        sweep_trip = RoundTrip(3, "110", 10000.0, 0.5, FAR)  # 5 pieces
        assert spiral_trip.pieces == 17 and sweep_trip.pieces == 5
        spiral_trip.fold()
        assert counting.cumsums == 0
        sweep_trip.fold()
        assert counting.cumsums == 1  # the way out of the opening piece, with its r/sqrt(2) move

    def test_r_of_no_power_of_two_is_summed(self, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr(traversal, "np", counting)
        for z, w in ((0, ""), (3, "110")):
            blocks = list(basic_traversal(z, w, 3000.0, 0.3, FAR).blocks())
            assert all(b.path.totals == (None, None) for b in blocks)
            _assert_totals(blocks)
            counting.cumsums = 0
            RoundTrip(z, w, 3000.0, 0.3, FAR).fold()
            assert counting.cumsums == 2 * len(blocks)

    def test_counts_from_two_to_the_53_are_summed(self, monkeypatch):
        assert _exact(2**53 - 1, 0.5) == (2**53 - 1) * 0.5 and _exact(2**53, 0.5) is None
        assert _exact(5, 0.3) is None and _exact(5, 3.0) is None
        assert _exact(1, 2.0**1023) == 2.0**1023 and _exact(3, 2.0**1023) is None  # 3 * 2^1023 overflows
        assert _exact(3, 5e-324) == 1.5e-323
        counting = _CountingNumpy()
        monkeypatch.setattr(traversal, "np", counting)
        # Three instructions from lo count 3 lo / 2 + 4 tile sizes for an even lo, (3 lo + 7) / 2 for an odd one.
        for lo, count, known in (((2**54 - 10) // 3, 2**53 - 1, True), ((2**54 - 7) // 3, 2**53, False)):
            assert sum((i + 2) // 2 for i in range(lo, lo + 3)) == count
            counting.cumsums = 0
            block = Block.of(*_spiral_piece(Point2(0.0, 0.0), 1.0, lo, lo + 3))
            assert (block.path.totals[0] is not None) == known and counting.cumsums == (not known)
            _assert_totals([block, flip_block(block)])

    def test_sweeps_whose_heights_could_wrap_int64_are_summed(self):
        D, r = 2.0**56, 1.0  # 4096 heights near 2^56 add up past 2^63
        frame = traversal.TileFrame(Point2(0.0, 0.0), 0.0, r)
        piece, lengths = traversal._sweep_piece(frame, math.pi / 2.0, D, r, 4096, 8192)
        assert piece.totals == (None, None)
        _assert_totals([Block.of(piece, lengths), flip_block((piece, lengths))])


class TestPowerOfTwoSpiralCost:
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
        ((traversal.MAX_STREAM_SEGMENTS - 1) // 4, 2.0**-3),  # the longest spiral that is folded
    ])
    def test_basic_cost_is_the_exact_length(self, k, r):
        for D in {k * r, max(k - 0.5, 1.0) * r}:  # ceil(D / r) = k
            assert basic_cost(0, D, r) == float((2 * k + 1) ** 2) * r == self._folded(k, r)
            assert basic_cost(1, D, r) == basic_cost(0, D, r)

    def test_past_the_guard_it_is_the_closed_form(self):
        for k in ((traversal.MAX_STREAM_SEGMENTS - 1) // 4 + 1, 10**8, 2**40):
            width = 2.0 * float(k) + 1.0
            assert basic_cost(0, k * 0.5, 0.5) == width * width * 0.5

    @pytest.mark.parametrize("D, r", [(1500.0, 1.0), (700.3, 0.125), (20.0, 2.0**-9), (5.0, 2.0)])
    def test_a_walked_round_trip_costs_twice_the_basic_cost(self, D, r):
        trip = lambda: iter([RoundTrip(0, "", D, r, FAR)])  # noqa: E731
        for stream in (TrajectoryStream(FAR, trip), TrajectoryStream(FAR, lambda: round_trip_blocks(0, "", D, r, FAR))):
            out = run(stream, (FAR[0] + 1e5, FAR[1]), r, 1e12)
            assert not out.found and out.cost == 2 * basic_cost(0, D, r)
