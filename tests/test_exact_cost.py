"""One exact cost: the walked arc is an exact int, rounded once when it is reported.

Every basic traversal walks whole tile sizes, so its length is its count times
r (plus the sweep's opening move), and a walk adds the exact totals of its
blocks.  The block partition then cannot change an answer: a hunt gives the
same outcome, bit for bit, whatever ``STREAM_CHUNK`` cuts its traversals into.
A walked round trip costs exactly ``2 * basic_cost`` for any r, and phase p of
``universal`` walks exactly 6 * 2^p.
"""

import math

import numpy as np
import pytest

import planehunt.tiling as tiling
import planehunt.traversal as traversal
from planehunt import (
    RoundTrip,
    TrajectoryStream,
    basic_cost,
    basic_traversal,
    encode_advice,
    large_vision,
    medium_vision,
    phase_trips,
    round_trip_blocks,
    run,
    small_vision,
)
from planehunt.strategies import _round_trips

CHUNKS = (4096, 1000, 257)

START = (12.345, -67.89)


def _outcome(out):
    """A run's outcome with every float by its bits."""
    point = None if out.detection_point is None else (out.detection_point.x.hex(), out.detection_point.y.hex())
    return out.found, out.cost.hex(), point, out.segments_executed


def _across_chunks(monkeypatch, call):
    """``call()`` under each block size of ``CHUNKS``, as tiling's and traversal's chunker see it."""
    got = []
    for chunk in CHUNKS:
        with monkeypatch.context() as patch:
            patch.setattr(tiling, "STREAM_CHUNK", chunk)
            patch.setattr(traversal, "STREAM_CHUNK", chunk)
            got.append(call())
    return got


def _hunts(seed, count):
    """Derandomized non-dyadic basic hunts, z 0 to 6: (z, advice, D, r, treasure), each near the range."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = int(rng.integers(0, 7))
        D = float(rng.uniform(40.0, 160.0))
        r = float(rng.uniform(0.02, 0.2))
        ang = float(rng.uniform(0.0, math.tau))
        dist = float(rng.uniform(0.5, 1.0)) * D
        q = (START[0] - dist * math.sin(ang), START[1] + dist * math.cos(ang))
        yield z, encode_advice(START, q, z), D, r, q


class TestThePartitionDoesNotMatter:
    @pytest.mark.parametrize("seed", range(3))
    def test_basic_traversals(self, monkeypatch, seed):
        for z, w, D, r, q in _hunts(seed, 8):
            def hunt():
                found = run(basic_traversal(z, w, D, r, START), q, r, 1e12)
                capped = run(basic_traversal(z, w, D, r, START), q, r, 0.6 * found.cost)  # inside a block
                return _outcome(found), _outcome(capped), basic_cost(z, D, r).hex()

            outcomes = _across_chunks(monkeypatch, hunt)
            assert outcomes[0][0][0] and not outcomes[0][1][0], (z, D, r)
            assert outcomes[1:] == outcomes[:1] * 2, (z, D, r)

    def test_round_trip_folds(self, monkeypatch):
        # Cells of several pieces at the smallest block size, walked out of sight (folded) and through.
        cells = [(30.0, 0.013), (45.0, 0.07), (20.0, 0.011)]
        for z in (0, 3):
            w = "101"[:z]
            q_far, q_near = (START[0] + 500.0, START[1]), (START[0] + 15.3, START[1] - 8.1)

            def hunt():
                folds = []
                for q in (q_far, q_near):
                    stream = _round_trips(z, w, START, lambda: iter(cells))
                    folds.append(_outcome(run(stream, q, 0.05, 1e12)))
                trip = RoundTrip(z, w, *cells[0], START)
                return folds, sum(trip.fold().totals), trip.pieces

            outcomes = _across_chunks(monkeypatch, hunt)
            assert outcomes[-1][2] > 1  # the first cell is a round trip of several pieces
            assert [o[:2] for o in outcomes[1:]] == [outcomes[0][:2]] * 2
            (far, near), _, _ = outcomes[0]
            assert not far[0] and near[0]

    def test_a_medium_vision_stream(self, monkeypatch):
        q, r = (1400.5, -700.25), 3.0
        w = encode_advice((0.0, 0.0), q, 2)
        outcomes = _across_chunks(monkeypatch, lambda: _outcome(run(medium_vision(2, w, 0.5, 3), q, r, 1e12)))
        assert outcomes[0][0] and outcomes[1:] == outcomes[:1] * 2


def _round_trip_cells(seed, count):
    """Derandomized cells of non-dyadic r, z 0 to 6: (z, advice, D, r)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = int(rng.integers(0, 7))
        r = 2.0 ** float(rng.uniform(-6.0, 2.0))
        D = r * float(rng.uniform(1.0, 3000.0))
        yield z, "".join(rng.choice(["0", "1"], z)), D, r


class TestExactnessGates:
    @pytest.mark.parametrize("seed", range(3))
    def test_a_walked_round_trip_costs_twice_the_basic_cost(self, seed):
        for z, w, D, r in _round_trip_cells(seed, 12):
            assert math.frexp(r)[0] != 0.5
            far = (START[0] + 1e4, START[1])
            for stream in (TrajectoryStream(START, lambda: iter([RoundTrip(z, w, D, r, START)])),
                           TrajectoryStream(START, lambda: round_trip_blocks(z, w, D, r, START))):
                out = run(stream, far, r, 1e12)
                assert not out.found and out.cost == 2 * basic_cost(z, D, r), (z, D, r)

    @pytest.mark.parametrize("z", [0, 2, 5])
    def test_a_universal_phase_costs_six_times_its_arc(self, z):
        # The components and arcs of ``universal``, stopped after each number of phases.
        w = encode_advice((0.0, 0.0), (3.0, 1.0), z)
        parts = (small_vision(z, w), medium_vision(z, w, 0.5, 3), large_vision())
        for phases in range(1, 13):
            arcs = [2.0**p for p in range(1, phases + 1)]
            stream = TrajectoryStream((0.0, 0.0), lambda: phase_trips(parts, arcs))
            out = run(stream, (1e6, 1e6), 0.5, 1e15)
            assert not out.found and out.cost == sum(6.0 * a for a in arcs), phases

    def test_basic_cost_of_a_non_dyadic_spiral_is_rounded_once(self):
        # (2 * 10000 + 1)^2 tile sizes of 0.1; the former fold of its stored lengths gave 40004000.099999994.
        assert basic_cost(0, 1000.0, 0.1) == 40004000.1 == traversal.rounded(20001**2 * traversal.units(0.1))
