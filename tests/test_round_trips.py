"""Round-trip units: a cell of more than one piece is one ``RoundTrip`` step.

The unit's fold must give its blocks' totals and segment count bit for bit,
and so must every part of it (a run of its blocks, which ``prefix_blocks``
cuts off); every vertex it builds must lie within its ``radius``; and a walk
of ``steps()``, which folds far and tagged units without building them, must
equal a walk of the expanded ``blocks()`` in every reported field.
"""

import itertools
import math

import numpy as np
import pytest

import planehunt.sim as sim
import planehunt.traversal as traversal
from planehunt import (
    Block,
    RoundTrip,
    StreamChainError,
    TrajectoryStream,
    adversarial_placement,
    encode_advice,
    medium_vision,
    phase_trips,
    prefix_blocks,
    round_trip_blocks,
    run,
    small_vision,
    universal,
)
from planehunt.strategies import _round_trips
from planehunt.tiling import STREAM_CHUNK

FAR = (1234.5, -987.25)

# (z, advice, D, r, start, pieces): spiral and sweep cells of 2, 3 and 40 pieces,
# dyadic and non-dyadic r, at the origin and away from it.
CELLS = [
    (0, "", 1500.0, 1.0, (0.0, 0.0), 2),
    (1, "1", 450.0, 0.3, FAR, 2),
    (0, "", 2500.0, 1.0, FAR, 3),
    (0, "", 700.0, 0.28, (0.0, 0.0), 3),
    (0, "", 40000.0, 1.0, (0.0, 0.0), 40),
    (0, "", 12000.0, 0.3, FAR, 40),
    (3, "101", 6000.0, 1.0, (0.0, 0.0), 2),
    (2, "01", 1800.0, 0.3, FAR, 2),
    (3, "011", 10000.0, 1.0, FAR, 3),
    (5, "10110", 3000.0, 0.3, (0.0, 0.0), 3),
    (3, "110", 160000.0, 1.0, FAR, 40),
    (4, "0111", 48000.0, 0.3, (0.0, 0.0), 40),
]
CELL_IDS = [f"z{z} D{D:g} r{r:g} {p} pieces" for z, _, D, r, _, p in CELLS]


def _expanded(stream):
    """The same stream with every unit expanded into its blocks: the block-by-block walk."""
    return TrajectoryStream(stream.start, stream.blocks)


def _units(*cells, start=(0.0, 0.0), z=0, w=""):
    """A stream of one round trip per (D, r) cell, units and one-piece blocks as the strategies make them."""
    return _round_trips(z, w, start, lambda: iter(cells))


class _Folds:
    """Counts the units the walker finds out of sight of every live target."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = sim._out_of_sight

        def counting(trip, live, r):
            far = original(trip, live, r)
            self.count += far
            return far

        monkeypatch.setattr(sim, "_out_of_sight", counting)


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_fold_is_the_blocks_totals(cell):
    z, w, D, r, start, pieces = cell
    trip = RoundTrip(z, w, D, r, start)
    blocks = list(round_trip_blocks(z, w, D, r, start))
    assert trip.pieces == pieces and len(blocks) == 2 * pieces
    fold = trip.fold()
    assert list(fold.totals) == [b.total for b in blocks]
    assert fold.segments == sum(b.lengths.size for b in blocks)
    assert trip.lengths.tobytes() == np.concatenate([b.lengths for b in blocks]).tobytes()
    tagged = trip.tagged()
    assert tagged.retrace and not trip.retrace and tagged.fold() == fold
    assert tagged._fold is trip._fold and trip.flipped()._fold is trip._fold  # one fold for every copy


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_every_vertex_lies_within_the_radius(cell):
    z, w, D, r, start, _ = cell
    trip = RoundTrip(z, w, D, r, start)
    assert trip.radius == math.sqrt(2.0) * (D + 2.0 * r)
    far = max(float(np.hypot(*(b.points - start).T).max()) for b in trip.blocks())
    assert far < trip.radius


def test_blocks_are_round_trip_blocks_and_the_flip_is_the_tagged_unit():
    z, w, D, r, start = 3, "011", 10000.0, 1.0, FAR
    trip = RoundTrip(z, w, D, r, start)
    blocks = list(trip.blocks())
    for a, b in zip(blocks, round_trip_blocks(z, w, D, r, start)):
        assert a.points.tobytes() == b.points.tobytes() and a.total == b.total and a.retrace == b.retrace
    flipped = [traversal.flip_block(b) for b in reversed(blocks)]
    tagged = list(trip.tagged().blocks())
    assert all(b.retrace for b in tagged)
    for a, b in zip(tagged, flipped):
        assert a.points.tobytes() == b.points.tobytes()
        assert a.lengths.tobytes() == b.lengths.tobytes() and a.total == b.total


@pytest.mark.parametrize("cell", [CELLS[2], CELLS[8]], ids=[CELL_IDS[2], CELL_IDS[8]])
def test_every_part_is_its_run_of_blocks(cell):
    z, w, D, r, start, pieces = cell
    trip = RoundTrip(z, w, D, r, start)
    blocks = list(trip.blocks())
    for lo in range(2 * pieces):
        for hi in range(lo + 1, 2 * pieces + 1):
            part = trip._part(lo, hi)
            run = blocks[lo:hi]
            assert part.fold().totals == tuple(b.total for b in run)
            assert part.fold().segments == sum(b.lengths.size for b in run)
            assert part.first == tuple(run[0].points[0]) and part.last == tuple(run[-1].points[-1])
            built = list(part.blocks())
            assert [b.total for b in built] == [b.total for b in run]
            assert all(a.points.tobytes() == b.points.tobytes() for a, b in zip(built, run))
            back = list(part.flipped().blocks())
            flips = [traversal.flip_block(b) for b in reversed(run)]
            assert all(b.retrace for b in back) and len(back) == len(flips)
            for a, b in zip(back, flips):
                assert a.points.tobytes() == b.points.tobytes() and a.total == b.total
            assert part.lengths.tobytes() == np.concatenate([b.lengths for b in run]).tobytes()


def test_a_folded_unit_builds_no_piece(monkeypatch):
    def refused(*args):
        raise AssertionError("a piece was built")

    stream = _units((64.0, 2.0**-6))  # 16,385 instructions: five pieces
    monkeypatch.setattr(traversal, "_spiral_piece", refused)
    folds = _Folds(monkeypatch)
    out = run(stream, (200.0, 5.0), 0.5, 1e9)
    assert not out.found and out.segments_executed == 2 * 16385 and folds.count == 1


@pytest.mark.parametrize("arc", [0.1, 1e3, 2e5, 4.7e5, 1e6, 1e12])
def test_prefix_cuts_a_unit_where_it_cuts_its_blocks(arc):
    trip = RoundTrip(0, "", 64.0, 2.0**-6, FAR)  # five pieces out, their five flips back
    got = [b for item in prefix_blocks([trip], arc) for b in (item.blocks() if isinstance(item, RoundTrip) else [item])]
    want = prefix_blocks(trip.blocks(), arc)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.points.tobytes() == b.points.tobytes()
        assert a.lengths.tobytes() == b.lengths.tobytes() and a.total == b.total and a.retrace == b.retrace
    assert (prefix_blocks([trip], arc) == [trip]) == (traversal.units(arc) > sum(trip.fold().totals))


def test_an_arc_ending_on_a_unit_end_ends_the_prefix_there():
    trip = RoundTrip(0, "", 64.0, 2.0**-6, (0.0, 0.0))  # every length a multiple of 2^-6: the sums are exact
    after = Block.of(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0]))
    arc = traversal.rounded(sum(trip.fold().totals))
    assert traversal.units(arc) == sum(trip.fold().totals)
    got = [b for item in prefix_blocks([trip, after], arc) for b in (item.blocks() if isinstance(item, RoundTrip) else [item])]
    want = prefix_blocks([*trip.blocks(), after], arc)
    assert len(got) == len(want) == 2 * trip.pieces
    assert [b.total for b in got] == [b.total for b in want]


def test_phase_trips_over_units_walk_the_blocks_of_phase_trips_over_blocks():
    cells = [(4.0, 0.5), (64.0, 2.0**-6), (8.0, 2.0**-10), (2.0, 0.25)]
    arcs = [2.0**k for k in range(1, 24)]
    units = TrajectoryStream((0.0, 0.0), lambda: phase_trips([_units(*cells)], arcs)).blocks()
    plain = phase_trips([_expanded(_units(*cells))], arcs)
    n = 0
    for a, b in itertools.zip_longest(units, plain):
        assert a.points.tobytes() == b.points.tobytes()
        assert a.lengths.tobytes() == b.lengths.tobytes() and a.total == b.total
        n += 1
    assert n > 100
    # Each unit is walked whole and untagged once, on the first trip that walks it whole; every flip and later
    # trip is tagged.  A trip that ends inside a unit walks the blocks before its cut as one untagged part.
    units = [step for step in phase_trips([_units(*cells)], arcs) if isinstance(step, RoundTrip)]
    whole = [unit for unit in units if len(unit.fold().totals) == 2 * unit.pieces]
    assert len(whole) > 4 and sum(not unit.retrace for unit in whole) == 2
    assert any(not unit.retrace for unit in units if unit not in whole)


# (name, stream factory, treasure, r, cap): walks that fold units, far and tagged, each
# capped at about four times the cost it finds the treasure at.
WALKS = [
    ("small z=0", lambda: small_vision(0, ""), (30.1234, -20.0457), 0.001, 2.5e8),
    ("small z=0 near", lambda: small_vision(0, ""), (5.1234, -2.0457), 0.0005, 1.3e7),
    ("small z=3", lambda: small_vision(3, encode_advice((0.0, 0.0), (3.3, 1.1), 3)), (3.3, 1.1), 5e-05, 8e7),
    ("medium s=3", lambda: medium_vision(0, encode_advice((0.0, 0.0), (20000.5, 7000.3), 0), 0.5, 3), (20000.5, 7000.3), 3.0, 6e9),
    ("universal", lambda: universal(3, encode_advice((0.0, 0.0), (3.1234, 1.0457), 3), 0.5, 3), (3.1234, 1.0457), 1e-4, 2.2e8),
]


@pytest.mark.parametrize("name, make, treasure, r, cap", WALKS, ids=[w[0] for w in WALKS])
def test_walking_steps_is_walking_blocks(monkeypatch, name, make, treasure, r, cap):
    folds = _Folds(monkeypatch)
    out = run(make(), treasure, r, cap)
    assert out.found and folds.count > 0
    assert out == run(_expanded(make()), treasure, r, cap)


def _cap_inside_first_fold(stream, q, r, tagged):
    """A cap halfway through the first unit of ``stream`` that the walker would
    fold for the target ``q``, the first tagged one or the first far untagged one."""
    walked = 0
    for step in stream.steps():
        if isinstance(step, RoundTrip):
            if step.retrace == tagged and (tagged or sim._out_of_sight(step, np.array([q]), r)):
                return traversal.rounded(walked + sum(step.fold().totals) // 2)
            walked += sum(step.fold().totals)
        else:
            walked += step.total


@pytest.mark.parametrize("tagged", [False, True])
def test_a_cap_inside_a_folded_unit(tagged):
    q, r = (3.3, 1.1), 5e-05
    make = lambda: small_vision(3, encode_advice((0.0, 0.0), q, 3))  # noqa: E731
    cap = _cap_inside_first_fold(make(), q, r, tagged)
    out = run(make(), q, r, cap)
    assert not out.found and out.cost == cap
    assert out == run(_expanded(make()), q, r, cap)


def _reach(trip, r):
    """The distance from the trip's start past which a target no farther than
    the trip's own coordinates from the origin is out of its sight."""
    s = trip.start
    return trip.radius + sim._cull_radius(r, max(1.0, abs(s.x) + trip.radius, abs(s.y) + trip.radius))


@pytest.mark.parametrize("start", [(0.0, 0.0), (3.5, -2.25)])
def test_treasures_just_inside_and_just_outside_the_reach(monkeypatch, start):
    cell, r = (64.0, 2.0**-6), 0.5
    trip = RoundTrip(0, "", *cell, start)
    d = _reach(trip, r)
    for factor, far in ((1.0 + 1e-12, True), (1.0 - 1e-12, False)):
        q = (start[0] - 0.6 * d * factor, start[1] + 0.8 * d * factor)
        assert max(abs(q[0]), abs(q[1])) < trip.radius  # so the trip's coordinates set the cull's scale
        assert sim._out_of_sight(trip, np.array([q]), r) is far
        assert sim._out_of_sight(trip, np.array([q, (start[0] - 2.0 * d, start[1])]), r) is far
        folds = _Folds(monkeypatch)
        out = run(_units(cell, start=start), q, r, 1e9)
        assert out == run(_expanded(_units(cell, start=start)), q, r, 1e9)
        assert not out.found and folds.count == far


def test_an_overflowing_distance_reads_as_far():
    trip = RoundTrip(0, "", 64.0, 2.0**-6, (-1e308, 0.0))
    assert sim._out_of_sight(trip, np.array([[1.7e308, 0.0]]), 0.5)


@pytest.mark.parametrize("tagged", [False, True])
def test_a_unit_off_the_chain_is_refused(tagged):
    trip = RoundTrip(0, "", 64.0, 2.0**-6, (5.0, 5.0))
    trip = trip.tagged() if tagged else trip
    with pytest.raises(StreamChainError):
        run(TrajectoryStream((0.0, 0.0), lambda: iter([trip])), (900.0, 900.0), 0.5, 1e9)
    first = Block.of(np.array([[0.0, 0.0], [5.0, 4.0]]), np.array([math.hypot(5.0, 4.0)]))
    with pytest.raises(StreamChainError):
        run(TrajectoryStream((0.0, 0.0), lambda: iter([first, trip])), (900.0, 900.0), 0.5, 1e9)


def test_adversarial_placement_walks_steps_as_blocks(monkeypatch):
    # A coarse cell sees the near candidates; the many-piece cell (2 / 2^-12 =
    # 8192 columns) then lies out of sight of all that are left; a finer cell
    # sees the rest.
    cells = [(3.0, 0.25), (2.0, 2.0**-12), (6.0, 0.125)]
    assert RoundTrip(3, "000", *cells[1], (0.0, 0.0)).pieces == 2
    folds = _Folds(monkeypatch)
    units = adversarial_placement(lambda w: _round_trips(3, w, (0.0, 0.0), lambda: iter(cells)), 3, 6.0, 0.5, 0.5)
    assert folds.count > 0
    blocks = adversarial_placement(lambda w: _expanded(_round_trips(3, w, (0.0, 0.0), lambda: iter(cells))), 3, 6.0, 0.5, 0.5)
    assert units == blocks


def test_one_piece_cells_stay_blocks():
    # Spirals of 4k + 1 instructions: k = 8, then k = 1023 (4093, one piece), then k = 1024 (4097, two).
    stream = _units((4.0, 0.5), ((STREAM_CHUNK // 4 - 1) * 0.25, 0.25), (STREAM_CHUNK // 4 * 0.25, 0.25))
    kinds = [type(step).__name__ for step in stream.steps()]
    assert kinds == ["Block"] * 4 + ["RoundTrip"]
