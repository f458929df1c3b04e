"""One reading per parameter: every public function that applies a rule reads
a numpy integer or the text of an integer as that integer (the advice size z,
s, every count and the sector index), and the text of a number as that number
(D, r, alpha, the cost cap, the cap multiplier, the grid step, a figure's radii,
a prefix arc and each coordinate of a point), and goes on with what its rule
read.  A bool is none of these: it is refused with a PreconditionError."""

import itertools
import math
from collections.abc import Iterator

import numpy as np
import pytest

from planehunt import (
    Block,
    DegenerateInputError,
    Point2,
    PreconditionError,
    TrajectoryStream,
    adversarial_placement,
    basic_cost,
    basic_traversal,
    bound_for,
    column_count,
    count_tiles,
    decode_sector,
    dots_of_column,
    encode_advice,
    fill_events,
    harness,
    hypothesis_sweep,
    lower_bounds,
    medium_regime_lower_bound,
    medium_schedule,
    medium_vision,
    multi_agent_stream,
    round_trip_blocks,
    run,
    sector_index,
    small_vision,
    special_dot,
    spiral,
    sweep_cost_bound,
    tile_count_bound,
    universal,
)
from planehunt.advice import check_advice, sector_advice, sector_indices
from planehunt.bounds import branch_count, medium_ceiling, small_ceiling
from planehunt.errors import as_integer, nonnegative_finite, positive_finite, positive_int
from planehunt.geom import as_point
from planehunt.sim import disc_grid_candidates, shaded_tile_candidates
from planehunt.tiling import sector_columns

# The integer parameters; every other one is a positive finite number.
INTEGERS = {"z", "s", "j", "c", "k", "label", "max_phases", "count"}

ORIGIN = (0.0, 0.0)

# name: (the call, its parameters read by a rule with their plain values)
CASES = {
    "positive_int": (lambda count: positive_int("count", count), {"count": 7}),
    "positive_finite": (lambda D: positive_finite("range bound", D), {"D": 2.5}),
    "nonnegative_finite": (lambda arc: nonnegative_finite("prefix arc", arc), {"arc": 2.5}),
    "as_point": (lambda x, y: as_point((x, y)), {"x": 1.5, "y": -2.0}),
    "Point2": (Point2, {"x": 1.5, "y": -2.0}),
    "check_advice": (check_advice, {"z": 3}),
    "sector_advice": (sector_advice, {"j": 5, "z": 3}),
    "sector_index": (lambda z: sector_index(ORIGIN, (3.0, 4.0), z), {"z": 3}),
    "sector_indices": (lambda z: sector_indices(ORIGIN, np.array([[3.0, 4.0], [-1.0, -2.0]]), z), {"z": 3}),
    "encode_advice": (lambda z: encode_advice(ORIGIN, (3.0, 4.0), z), {"z": 3}),
    "tile_count_bound": (lambda z: tile_count_bound(z, 8.0, 0.5), {"z": 2}),
    "sweep_cost_bound": (lambda z: sweep_cost_bound(z, 8.0, 0.5), {"z": 2}),
    "medium_regime_lower_bound": (lambda z: medium_regime_lower_bound(z, 8.0, 0.5), {"z": 2}),
    "lower_bounds": (lower_bounds, {"z": 2, "D": 8.0, "r": 0.5}),
    "small_ceiling": (lambda z: small_ceiling(z, 8.0, 0.5), {"z": 2}),
    "branch_count": (branch_count, {"alpha": 0.3}),
    "medium_ceiling": (lambda z, alpha, s: medium_ceiling(z, 8.0, 0.5, alpha, s), {"z": 2, "alpha": 0.3, "s": 2}),
    "bound_for": (lambda z: bound_for("universal", z, 8.0, 0.5, 0.5, 2), {"z": 2}),
    "column_count": (column_count, {"radius": 8.0, "r": 0.5}),
    "sector_columns": (sector_columns, {"z": 2, "D": 8.0, "r": 0.5}),
    "count_tiles": (count_tiles, {"z": 2, "D": 8.0, "r": 0.5}),
    "basic_traversal": (lambda z, D, r: basic_traversal(z, "01", D, r), {"z": 2, "D": 8.0, "r": 0.5}),
    "spiral": (spiral, {"D": 8.0, "r": 1.0}),
    "round_trip_blocks": (lambda z, D, r: round_trip_blocks(z, "01", D, r, ORIGIN), {"z": 2, "D": 8.0, "r": 0.5}),
    "basic_cost spiral": (basic_cost, {"z": 0, "D": 8.0, "r": 0.5}),
    "basic_cost sweep": (basic_cost, {"z": 2, "D": 8.0, "r": 0.5}),
    "dots_of_column": (dots_of_column, {"j": 3, "c": 2, "s": 2}),
    "special_dot": (special_dot, {"D": 64.0, "r": 4.0, "c": 2, "s": 2}),
    "fill_events": (fill_events, {"z": 0, "alpha": 0.5, "s": 2}),
    "medium_schedule": (medium_schedule, {"z": 0, "alpha": 0.5, "s": 2, "max_phases": 3}),
    "hypothesis_sweep": (lambda z: hypothesis_sweep(z, "01"), {"z": 2}),
    "small_vision": (lambda z: small_vision(z, "01"), {"z": 2}),
    "medium_vision": (lambda z, alpha, s: medium_vision(z, "", alpha, s), {"z": 0, "alpha": 0.5, "s": 3}),
    "universal": (lambda z, alpha, s: universal(z, "", alpha, s), {"z": 0, "alpha": 0.5, "s": 3}),
    "multi_agent_stream": (multi_agent_stream, {"k": 5, "label": 2, "alpha": 0.5, "s": 3}),
    "run": (lambda r, cost_cap: run(spiral(8.0, 1.0), (5.0, 5.0), r, cost_cap), {"r": 1.5, "cost_cap": 1e6}),
    "run treasure": (lambda x, y: run(spiral(8.0, 1.0), (x, y), 1.5, 1e6), {"x": 5.0, "y": -3.0}),
    "prefix": (lambda arc: spiral(8.0, 1.0).prefix(arc).vertices, {"arc": 7.5}),
    "render_prefix": (lambda arc: harness.render_prefix(small_vision(2, "01"), arc).vertices, {"arc": 7.5}),
    "shaded_tile_candidates": (shaded_tile_candidates, {"D": 8.0, "r": 0.5}),
    "disc_grid_candidates": (disc_grid_candidates, {"D": 4.0, "grid_step": 0.5}),
    "run medium_vision": (
        lambda s, r, cost_cap: run(medium_vision(0, "", 0.5, s), (5.0, 5.0), r, cost_cap),
        {"s": 3, "r": 1.5, "cost_cap": 1e6},
    ),
    "adversarial_placement": (
        lambda z, D, r, grid_step, cost_cap: adversarial_placement(
            lambda w: small_vision(1, w), z, D, r, grid_step, cost_cap
        ),
        {"z": 1, "D": 4.0, "r": 0.5, "grid_step": 0.5, "cost_cap": 1e6},
    ),
    "harness.hunt": (
        lambda z, D, r, alpha, s, cap_mult: harness.hunt("universal", z, D, r, alpha, s, cap_mult, ORIGIN, (3.0, 4.0)),
        {"z": 2, "D": 8.0, "r": 0.5, "alpha": 0.5, "s": 2, "cap_mult": 1e4},
    ),
    "harness.worst_placement": (
        lambda z, D, r, alpha, s, cap_mult, grid_step: harness.worst_placement("small", z, D, r, alpha, s, cap_mult, grid_step),
        {"z": 1, "D": 4.0, "r": 0.5, "alpha": 0.5, "s": 2, "cap_mult": 1e4, "grid_step": 0.5},
    ),
    "harness.render_svg": (
        lambda vision_radius, tile_size, x: harness.render_svg(
            spiral(4.0, 1.0).materialize(), treasure=(x, 1.0), vision_radius=vision_radius,
            sector=decode_sector("01", ORIGIN), disc_radius=4.0, tile_size=tile_size,
        ),
        {"vision_radius": 0.5, "tile_size": 0.5, "x": 1.5},
    ),
}


def _forms(param, value):
    """The other readings of a plain value: a numpy integer and text for an integer, text for a number."""
    if param in INTEGERS:
        return {"numpy": np.int64(value), "text": str(value)}
    return {"text": repr(value)}


def _rows():
    for case, (_, plain) in CASES.items():
        for param, value in plain.items():
            for form, other in _forms(param, value).items():
                yield pytest.param(case, param, other, id=f"{case}-{param}-{form}")


def _comparable(result):
    """A result in a form ``==`` compares bit for bit: streams as their leading
    60 length units, iterators as their first items, arrays as lists."""
    if isinstance(result, TrajectoryStream):
        prefix = result.prefix(60.0)
        return prefix.vertices.tolist(), prefix.seg_lengths.tolist()
    if isinstance(result, Block):
        return result.points.tolist(), result.lengths.tolist(), result.retrace, result.total
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, Iterator):
        result = list(itertools.islice(result, 6))
    if isinstance(result, (list, tuple)):
        return [_comparable(item) for item in result]
    return result


def _call(case, **changed):
    fn, plain = CASES[case]
    return _comparable(fn(**dict(plain, **changed)))


@pytest.mark.parametrize("case, param, other", _rows())
def test_other_readings_give_the_plain_result(case, param, other):
    assert _call(case, **{param: other}) == _call(case)


@pytest.mark.parametrize("case, param", [(case, param) for case, (_, plain) in CASES.items() for param in plain])
def test_bool_is_refused(case, param):
    with pytest.raises(PreconditionError):
        _call(case, **{param: True})


def test_checked_integers_come_back_as_ints():
    assert type(check_advice(np.int64(2))) is int and type(positive_int("s", np.uint8(3))) is int
    assert [as_integer(v) for v in (np.int32(4), "12", " 12 ", True, np.True_, 3.0, "3.0", None)] == [
        4, 12, 12, None, None, None, None, None
    ]


def test_refusals_print_numpy_scalars_as_numbers():
    with pytest.raises(PreconditionError, match=r"^vision radius must be positive and finite, got nan$"):
        run(spiral(4.0, 1.0), (1.0, 1.0), np.float64("nan"), 10.0)
    with pytest.raises(PreconditionError, match=r"^scale step must be a positive integer, got 0$"):
        medium_vision(0, "", 0.5, np.int64(0))
    with pytest.raises(PreconditionError, match=r"^advice size must be an integer in \[0, 60\], got 61$"):
        check_advice(np.int64(61))
    with pytest.raises(PreconditionError, match=r"^advice size must be an integer in \[0, 60\], got '61'$"):
        check_advice("61")


def test_point_coordinates_take_the_real_reading():
    assert Point2("1.5", np.float32(2.0)) == Point2(1.5, 2.0)
    assert type(Point2(1, np.int64(2)).y) is float
    for x, y in [("a", 1.0), (None, 0.0), (True, False), (1.0, [2.0]), (2**2000, 0.0)]:
        with pytest.raises(PreconditionError, match=r"^a point's coordinates must be numbers, got "):
            Point2(x, y)
    for x, y in [(math.nan, 0.0), ("inf", 1.0), (0.0, np.float64("-inf"))]:
        with pytest.raises(DegenerateInputError, match=r"^non-finite point "):
            Point2(x, y)
