"""Shared sweep streams: rows whose streams read equal values walk one generated
stream, each row through ``run`` alone and in row order, so a sweep gives the
rows, and raises the errors, of a loop that runs ``harness.hunt`` row by row."""

import itertools
import math

import pytest

from planehunt import TrajectoryStream, harness, parse_config, sweep
from planehunt.geom import ORIGIN
from planehunt.harness import SweepRow

# Per strategy: the cells of a sweep whose z values repeat advice (z = 0 has one advice, z = 1 two).
CELLS = {
    "small": "z = 0 1 2\nD = list 2 3 4\nr = list 0.25 0.5\n",
    "medium": "z = 0 1\nD = list 8 10\nr = list 1.5 2\ns = 3\n",
    "large": "z = 0 1\nD = list 12 13\nr = list 11.75 12\n",
    "universal": "z = 0 1 2\nD = list 4 8\nr = list 0.5 3.5\ns = 3\n",
    "basic": "z = 0 1 2\nD = list 4 8\nr = list 0.5 1\n",
}
PLACEMENTS = {"random": "random 11", "explicit": "explicit 1.5 -2", "explicit at the start": "explicit 0 0"}


def _config(strategy: str, placement: str):
    return parse_config(f"[sweep]\nstrategy = {strategy}\n{CELLS[strategy]}placement = {PLACEMENTS[placement]}\n")


def _row_by_row(config) -> list:
    """The sweep as a loop of ``harness.hunt`` calls, one fresh stream per row, drawing as it goes."""
    rng, rows = harness.Lcg64(config.seed), []
    for z, D, r in itertools.product(config.z_values, config.d_values, config.r_values):
        point = config.treasure if config.placement == "explicit" else harness._random_placement(rng, D)
        _, bound, out = harness.hunt(config.strategy, z, D, r, config.alpha, config.s, config.cap_mult, ORIGIN, point)
        ratio = out.cost / bound if bound > 0 else math.inf
        rows.append(SweepRow(config.strategy, z, D, r, config.alpha, config.s, config.seed,
                             ORIGIN.distance_to(point), out.found, out.cost, bound, ratio))
    return rows


@pytest.mark.parametrize("placement", list(PLACEMENTS))
@pytest.mark.parametrize("strategy", list(harness.STRATEGIES))
def test_a_shared_stream_sweep_is_the_row_by_row_loop(strategy, placement, monkeypatch):
    config = _config(strategy, placement)
    want = _row_by_row(config)
    builds, real = [], harness.build_stream
    monkeypatch.setattr(harness, "build_stream", lambda *args: builds.append(args) or real(*args))
    assert sweep(config) == want
    keys = {tuple(harness._stream_args(*args).values()) for args in builds}  # the values each stream reads
    assert len(keys) == len(builds)  # one build per key
    if strategy != "basic":  # basic streams read D and r, so each of its rows is a key of its own
        assert len(builds) < len(want)


def _broken_at(k: int, pulled: list):
    """``harness.build_stream``, but each stream raises on its k-th step; ``pulled`` gets the number of each step pulled."""
    real = harness.build_stream

    def build_stream(*args):
        built = real(*args)

        def steps():
            for i, item in enumerate(built.steps(), 1):
                pulled.append(i)
                if i == k:
                    raise RuntimeError(f"step {k}")
                yield item

        return TrajectoryStream(built.start, steps)

    return build_stream


@pytest.mark.parametrize("k", [1, 2, 5, 20, 40, 60, 150])
def test_an_error_on_the_kth_step_comes_from_the_row_by_row_row(k, monkeypatch):
    """The sweep raises the broken step's error after the same rows as the loop, or both finish alike."""
    config = parse_config("[sweep]\nstrategy = universal\nz = 0 1 2\nD = list 4 8 16\nr = list 0.5 0.9\ns = 3\n"
                          "placement = random 11\n")
    real_run = harness.run
    monkeypatch.setattr(harness, "build_stream", _broken_at(k, []))

    def outcome(call):
        rows = []  # the treasure of each run call
        monkeypatch.setattr(harness, "run", lambda stream, treasure, *rest: rows.append(treasure) or real_run(stream, treasure, *rest))
        try:
            return call(), rows
        except RuntimeError as exc:
            return str(exc), rows

    assert outcome(lambda: sweep(config)) == outcome(lambda: _row_by_row(config))


def test_a_later_row_of_a_key_can_be_the_one_that_raises(monkeypatch):
    """The key's first row stops before the broken step, and its next row reaches it through the shared steps."""
    config = parse_config("[sweep]\nstrategy = universal\nz = 0\nD = list 4 8\nr = list 0.5 0.9\ns = 3\n"
                          "placement = random 11\n")
    pulled, runs, real_run = [], [], harness.run
    monkeypatch.setattr(harness, "build_stream", _broken_at(40, pulled))
    monkeypatch.setattr(harness, "run", lambda *args: runs.append(len(pulled)) or real_run(*args))
    with pytest.raises(RuntimeError, match="step 40"):
        sweep(config)
    # One build, read once: rows 2 and 3 re-read row 1's 31 steps, and row 3 pulls on to the 40th.
    assert runs == [0, 31, 31] and pulled == list(range(1, 41))
