"""Blocks carry their totals.

Every block the library builds holds ``total``, the left-to-right sum of its
lengths (the last entry of their cumsum), set once when the block is made.
The walker folds those totals and sums a block's lengths only where a target
is seen or the cap falls; a stream whose blocks carry no total gives the same
answers, bit for bit.
"""

import itertools
import math

import numpy as np
import pytest

import planehunt.sim as sim
import planehunt.traversal as traversal
from planehunt import (
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


def _totalless(stream):
    """The same stream with every block's total dropped, as a user-built stream has none."""
    return TrajectoryStream(stream.start, lambda: (b._replace(total=None) for b in stream.blocks()))


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
            # A user-built block passes whole without a total; every block made here has one.
            made = _assert_totals(b for b in cut if b.lengths is not first.lengths)
            assert arc >= whole or made[-1] is cut[-1]

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

    @pytest.mark.parametrize("angle", [0.0, math.pi / 6.0, 2.0])
    def test_ray_probe(self, angle):
        assert len(_assert_totals(itertools.islice(_ray_blocks(Point2(0.3, -0.1), angle), 60))) == 60


def _assert_same_run(make, treasure, r, cap=1e9):
    out = run(make(), treasure, r, cap)
    assert out == run(_totalless(make()), treasure, r, cap)
    return out


class TestTotallessStreamsWalkAlike:
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

    def test_universal_with_totalless_components(self):
        q = (-5.0, 3.0)
        w = encode_advice((0.0, 0.0), q, 2)
        parts = (small_vision(2, w), medium_vision(2, w, 0.5, 3), large_vision())
        bare = [_totalless(p) for p in parts]
        out = _assert_same_run(lambda: universal(2, w, 0.5, 3), q, 0.3)
        assert out.found
        assert out == run(TrajectoryStream((0.0, 0.0), lambda: phase_trips(bare, _doubling())), q, 0.3, 1e9)

    @pytest.mark.parametrize("cap", [0.75, 1234.5, 98765.4321])
    def test_cap_inside_a_block(self, cap):
        out = _assert_same_run(lambda: small_vision(3, "010"), (500.0, 500.0), 0.01, cap)
        assert not out.found and out.cost == cap

    def test_adversarial_placement(self):
        with_totals = adversarial_placement(lambda w: small_vision(3, w), 3, 6.0, 0.5, 0.5)
        assert with_totals == adversarial_placement(lambda w: _totalless(small_vision(3, w)), 3, 6.0, 0.5, 0.5)


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
        pieces = list(spiral(1100.0, 0.5).blocks())  # built, and summed, before counting
        stream = TrajectoryStream((0.0, 0.0), lambda: iter(pieces))
        counting = _CountingNumpy()
        monkeypatch.setattr(traversal, "np", counting)
        arcs = [1.0, 10.0, 1e5, 3e6, 5e6, 1e12, 1e12]
        list(phase_trips([stream], arcs))
        # Per trip one cut and one flip of its last piece; once, the flip of each
        # of the two pieces later trips walk whole.  Whole trips cut nothing.
        assert counting.cumsums == 2 * len(arcs) - 2 + 2

    def test_way_back_pieces_are_summed_only_by_their_flips(self, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr(traversal, "np", counting)
        # A sweep cell: spiral pieces also cumsum their coordinates.
        blocks = list(round_trip_blocks(3, "101", 4500.0, 0.1, (1.0, 2.0)))
        assert len(blocks) == 2 * 11  # 11 pieces out, their 11 flips back
        # One sum per piece out and one per flip; a rebuilt piece's forward total is never made.
        assert counting.cumsums == 2 * 11
