"""Tiling tests: column enumeration against a brute-force geometric oracle,
the tile-count ceiling, and coverage of the wedge region."""

import math

import numpy as np
import pytest

from planehunt import (
    BudgetExceededError,
    Point2,
    PreconditionError,
    basic_cost,
    column_count,
    count_tiles,
    tile_count_bound,
    tiling,
)
from planehunt.tiling import STREAM_CHUNK, TileFrame, column_heights, height_sum, sector_columns

from _oracles import column_heights_where, oracle_columns, point_in_wedge

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

    def test_ranges_give_the_heights_of_the_formula_on_every_column(self):
        # Each formula evaluated on its own range of columns gives what evaluating
        # all three on every column and picking by np.where gives, bit for bit.
        rng = np.random.default_rng(3000)
        for _ in range(3000):
            z = int(rng.integers(2, 12))
            d = 10.0 ** rng.uniform(-2.0, 6.0)
            r = d / int(rng.integers(1, 3000)) if rng.random() < 0.2 else d / 10.0 ** rng.uniform(0.0, 4.5)
            n = column_count(d, r)
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo, n + 1))
            got = column_heights(TAU / (1 << z), d, r, lo, hi)
            want = column_heights_where(TAU / (1 << z), d, r, lo, hi)
            assert got.dtype == want.dtype and np.array_equal(got, want), (z, d, r, lo, hi)
        # A column edge exactly on the crossover: x_hi == x_cross for u = m - 1, x_lo == x_cross for u = m.
        for z in range(3, 12):
            for m in (1, 2, 8, 64):
                wedge = TAU / (1 << z)
                r = 100.0 * math.cos(wedge) / m
                got = column_heights(wedge, 100.0, r, 0, column_count(100.0, r))
                assert np.array_equal(got, column_heights_where(wedge, 100.0, r, 0, column_count(100.0, r))), (z, m)


def chunked_sum(wedge: float, d: float, r: float, lo: int, hi: int) -> int:
    """The heights of columns [lo, hi) added up from STREAM_CHUNK arrays, as Python ints."""
    return sum(sum(column_heights(wedge, d, r, u, min(u + STREAM_CHUNK, hi)).tolist()) for u in range(lo, hi, STREAM_CHUNK))


@pytest.fixture
def height_calls(monkeypatch):
    """The arguments of each ``column_heights`` call that ``height_sum`` makes through tiling's module global."""
    calls = []
    real = tiling.column_heights
    monkeypatch.setattr(tiling, "column_heights", lambda *args: calls.append(args) or real(*args))
    return calls


class TestHeightSum:
    def test_it_adds_the_heights_of_every_column_on_a_fuzz_set(self):
        rng = np.random.default_rng(2900)
        for _ in range(400):
            z = int(rng.integers(2, 41))
            wedge = TAU / (1 << z)
            d = 10.0 ** rng.uniform(-2.0, 6.0)
            columns = int(10.0 ** rng.uniform(0.0, 5.5))
            r = d / columns if rng.random() < 0.5 else d / columns * rng.uniform(0.7, 1.3)
            if rng.random() < 0.3:  # a dyadic tile size
                r = 2.0 ** math.floor(math.log2(r))
            r = min(r, d)
            n = column_count(d, r)
            cross = min(n, int(d * math.cos(wedge) / r))  # the first column past the crossover, near enough
            lo = int(rng.integers(0, max(1, cross)))  # a range that starts while the wedge rises
            hi = int(rng.integers(min(n, cross + 1), n + 1)) if rng.random() < 0.7 else n  # and often ends past it
            assert height_sum(wedge, d, r, lo, hi) == chunked_sum(wedge, d, r, lo, hi), (z, d, r, lo, hi)

    def test_it_adds_ranges_on_either_side_of_the_crossover(self):
        for z in (3, 5, 9):
            wedge = TAU / (1 << z)
            cross = column_count(1000.0 * math.cos(wedge), 0.01)
            for lo, hi in ((0, cross - 3), (cross - 5000, cross + 5000), (cross + 1, 100_000), (0, 100_000)):
                assert height_sum(wedge, 1000.0, 0.01, lo, hi) == chunked_sum(wedge, 1000.0, 0.01, lo, hi), (z, lo, hi)

    def test_a_long_rising_range_builds_no_column(self, height_calls):
        wedge = TAU / 32
        assert height_sum(wedge, 10_000.0, 0.05, 0, 150_000) == chunked_sum(wedge, 10_000.0, 0.05, 0, 150_000)
        assert height_calls == []
        # Past the crossover, the circle's columns are built in STREAM_CHUNK arrays.
        assert height_sum(wedge, 10_000.0, 0.05, 150_000, 200_000) == chunked_sum(wedge, 10_000.0, 0.05, 150_000, 200_000)
        assert [hi - lo for *_, lo, hi in height_calls[1:-1]] == [STREAM_CHUNK] * (len(height_calls) - 2)

    def test_an_eighth_turn_is_always_refused(self, height_calls):
        # tan(pi/4) rounds to 1 - 2^-53: each (u+1) tan lies just below a whole number,
        # where rounding decides the ceiling, so every rising column is built.
        wedge = TAU / 8
        for d, r in ((1000.0, 0.01), (1000.0, 1.0 / 64.0), (3.0e5, 7.0)):
            n = column_count(d, r)
            height_calls.clear()
            assert height_sum(wedge, d, r, 0, n) == chunked_sum(wedge, d, r, 0, n), (d, r)
            assert sum(hi - lo for *_, lo, hi in height_calls) == n

    def test_a_tiny_scale_sector_is_built(self, height_calls):
        # r tan(phi) below 2^-1000: rounding may lose relative precision there.
        wedge = TAU / 32
        n = column_count(1e-300, 1e-305)
        assert height_sum(wedge, 1e-300, 1e-305, 0, n) == chunked_sum(wedge, 1e-300, 1e-305, 0, n)
        assert sum(hi - lo for *_, lo, hi in height_calls) == n

    @pytest.mark.parametrize("z", [2, 3, 6])
    def test_a_large_radius_counts_as_its_scaled_copy(self, z):
        # Past 2^500 the columns are read scaled by 2^-600, so radius^2 stays finite
        # (under the suite's error::RuntimeWarning filter) and every height holds.
        d, r = 1000.0, 0.37
        tiles, cost = count_tiles(z, d, r), basic_cost(z, d, r)
        for k in (400, 501, 600, 700, 990):
            assert count_tiles(z, math.ldexp(d, k), math.ldexp(r, k)) == tiles, k
            assert basic_cost(z, math.ldexp(d, k), math.ldexp(r, k)) == math.ldexp(cost, k), k

    def test_huge_sectors_count_their_tiles(self):
        # radius^2 overflows a float here; read unscaled, the quarter disc counts 0 tiles and the sweep costs inf.
        assert count_tiles(2, 1e300, 1e296) == pytest.approx(math.pi / 4.0 * 1e8, rel=1e-3)
        assert basic_cost(6, 1e300, 1e295) == pytest.approx(basic_cost(6, 1e5, 1.0) * 1e295, rel=1e-6)


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
