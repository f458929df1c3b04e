"""Tiling tests: column enumeration against a brute-force geometric oracle,
the tile-count ceiling, and coverage of the wedge region."""

import math

import numpy as np
import pytest

from planehunt import (
    BudgetExceededError,
    Point2,
    PreconditionError,
    column_count,
    count_tiles,
    tile_count_bound,
)
from planehunt.tiling import TileFrame, column_heights, sector_columns

from _oracles import oracle_columns, point_in_wedge

TAU = math.tau


def tile_columns(z: int, d: float, r: float) -> dict:
    """{u: [0..v_max]} over every column of the size-z sector, the oracle's shape."""
    heights = column_heights(TAU / (1 << z), d, r, 0, column_count(d, r))
    return {u: list(range(int(v) + 1)) for u, v in enumerate(heights)}


class TestColumns:
    def test_quarter_disc_two_columns(self):
        assert column_heights(TAU / 4, 2.0, 1.0, 0, column_count(2.0, 1.0)).tolist() == [1, 1]

    def test_quarter_disc_count(self):
        assert count_tiles(2, 2.0, 1.0) == 4

    def test_tile_bigger_than_region_rejected(self):
        with pytest.raises(PreconditionError):
            count_tiles(2, 1.0, 1.0 + 1e-9)

    def test_tile_equal_to_region_is_one_stack(self):
        # r == D is the degenerate hypothesis the medium-vision matrix can
        # reach; a single column covers the whole wedge.
        assert column_count(1.0, 1.0) == 1
        assert count_tiles(2, 1.0, 1.0) == 1

    def test_sliver_region_matches_oracle(self):
        r = 1.0
        d = r * (1 + 1e-3)
        assert tile_columns(2, d, r) == oracle_columns(d, r, TAU / 4)

    def test_wide_wedge_rejected(self):
        with pytest.raises(PreconditionError):
            count_tiles(1, 4.0, 1.0)

    def test_column_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            count_tiles(2, 2.5e7, 1.0)

    def test_columns_contiguous_from_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = int(rng.integers(2, 10))
            d_over_r = rng.uniform(1.01, 60.0)
            r = 10.0 ** rng.uniform(-2, 2)
            d = d_over_r * r
            heights = np.concatenate(list(sector_columns(z, d, r)))
            assert len(heights) == column_count(d, r)
            assert all(v >= 0 for v in heights)

    def test_pieces_join_into_the_whole_walk(self):
        # 9000 columns: three STREAM_CHUNK pieces, the last one short.
        heights = np.concatenate(list(sector_columns(3, 9000.0, 1.0)))
        assert np.array_equal(heights, column_heights(TAU / 8, 9000.0, 1.0, 0, 9000))
        assert count_tiles(3, 9000.0, 1.0) == int(np.sum(heights + 1))


class TestOracleAgreement:
    def test_exact_agreement_on_small_instances(self):
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 100:
            z = int(rng.integers(2, 9))
            d_over_r = rng.uniform(1.05, 20.0)
            r = 10.0 ** rng.uniform(-1, 1)
            d = d_over_r * r
            if count_tiles(z, d, r) > 500:
                continue
            want = oracle_columns(d, r, TAU / (1 << z))
            assert tile_columns(z, d, r) == want, (z, d, r)
            checked += 1


class TestCountBound:
    def test_bound_formula_example(self):
        assert tile_count_bound(2, 2.0, 1.0) == pytest.approx(69 * (4 / 4 + 2))

    def test_bound_holds_across_regimes(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            z = int(rng.integers(2, 13))
            d_over_r = 10.0 ** rng.uniform(math.log10(1.01), math.log10(2000.0))
            r = 10.0 ** rng.uniform(-3, 3)
            d = d_over_r * r
            assert count_tiles(z, d, r) <= tile_count_bound(z, d, r)

    def test_narrow_wedge_rectangle_regime(self):
        # When the sector count dwarfs D/r the region sits in a thin strip and
        # the count collapses toward twice the column count.
        z, d_over_r = 12, 5.0
        count = count_tiles(z, d_over_r, 1.0)
        assert count <= 69 * d_over_r * 2

    def test_larger_disc_upper_bound(self):
        count = count_tiles(2, 4.0, 1.0)
        assert count <= 69 * (16 / 4 + 4) == pytest.approx(552)
        assert count == sum(v + 1 for v in (len(r) - 1 for r in oracle_columns(4.0, 1.0, TAU / 4).values()))


class TestCoverage:
    def test_every_region_point_lies_in_an_emitted_tile(self):
        rng = np.random.default_rng(91)
        total = 0
        while total < 10**4:
            z = int(rng.integers(2, 10))
            r = 10.0 ** rng.uniform(-1, 1)
            d = r * rng.uniform(1.01, 30.0)
            wedge = TAU / (1 << z)
            heights = column_heights(wedge, d, r, 0, column_count(d, r))
            xs = rng.uniform(0, d, 400)
            ys = rng.uniform(0, d, 400)
            ok = np.array([point_in_wedge(x, y, d, wedge) for x, y in zip(xs, ys)])
            for x, y in zip(xs[ok], ys[ok]):
                u = min(int(x // r), heights.size - 1)
                assert y <= (heights[u] + 1) * r + 1e-9, (z, d, r, x, y)
                total += 1


class TestFrame:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        frame = TileFrame(Point2(3.0, -2.0), 1.2345, 0.5)
        pts = rng.uniform(-10, 10, (50, 2))
        back = frame.to_frame(frame.to_world(pts))
        assert np.allclose(back, pts, atol=1e-9)

    def test_frame_axes(self):
        # Sector 0's clockwise ray is North, so frame +x is world North and
        # frame +y is world West.
        frame = TileFrame(Point2(0.0, 0.0), 0.0, 1.0)
        world = frame.to_world(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(world, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)
