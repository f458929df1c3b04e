"""Advice scheme tests: encoding, decoding, and the sector partition rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehunt import (
    DegenerateInputError,
    PreconditionError,
    basic_cost,
    basic_traversal,
    bound_for,
    count_tiles,
    decode_sector,
    encode_advice,
    lower_bounds,
    medium_vision,
    parse_config,
    sector_index,
    small_vision,
    sweep,
    sweep_cost_bound,
    universal,
)
from planehunt.advice import sector_indices
from planehunt.geom import direction_of

TAU = math.tau


def point_at(angle, dist=1.0, apex=(0.0, 0.0)):
    ux, uy = direction_of(angle)
    return (apex[0] + dist * ux, apex[1] + dist * uy)


class TestEncode:
    def test_four_bits_sector_five(self):
        q = point_at(5.5 * TAU / 16, 3.0)
        assert encode_advice((0, 0), q, 4) == "0101"

    def test_zero_bits_is_empty(self):
        assert encode_advice((0, 0), (7, -3), 0) == ""

    def test_due_west_two_bits_is_sector_zero(self):
        assert encode_advice((0, 0), (-5, 0), 2) == "00"

    def test_sector_zero_pads_to_width(self):
        q = point_at(0.5 * TAU / 16)
        assert encode_advice((0, 0), q, 4) == "0000"

    def test_fixed_width(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            z = int(rng.integers(0, 13))
            q = rng.normal(size=2) * 10
            if q[0] == 0 and q[1] == 0:
                continue
            assert len(encode_advice((0, 0), q, z)) == z

    def test_treasure_at_start_rejected(self):
        with pytest.raises(DegenerateInputError):
            encode_advice((1, 2), (1, 2), 6)

    def test_bad_sizes_rejected(self):
        with pytest.raises(PreconditionError):
            encode_advice((0, 0), (1, 0), -1)
        with pytest.raises(PreconditionError):
            encode_advice((0, 0), (1, 0), 2.0)  # type: ignore[arg-type]


class TestDecode:
    def test_example_string(self):
        spec = decode_sector("0101", (0, 0))
        assert spec.index == 5
        assert spec.size == 4
        assert spec.cw_ray_angle == pytest.approx(5 * TAU / 16)
        assert spec.ccw_ray_angle == pytest.approx(6 * TAU / 16)

    def test_empty_string_is_full_plane(self):
        spec = decode_sector("", (0, 0))
        assert spec.index == 0
        assert spec.cw_ray_angle == 0.0
        assert spec.ccw_ray_angle == TAU

    def test_three_ones_is_last_of_eight(self):
        spec = decode_sector("111", (0, 0))
        assert spec.index == 7
        assert spec.size == 3

    def test_rejects_non_bits(self):
        with pytest.raises(PreconditionError):
            decode_sector("0121", (0, 0))


_HUGE_Z_SWEEP = "[sweep]\nstrategy = small\nz = 1024\nd = 4\nr = 0.5\nplacement = explicit 1 1\n"


class TestOneRule:
    """Every entry point that takes advice applies ``advice.check_advice``: z an
    int (not a bool) in [0, 60], w exactly z symbols 0/1."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: basic_traversal(1, "x", 4.0, 1.0), id="spiral-takes-bad-symbol"),
            pytest.param(lambda: small_vision(1, "x"), id="small-bad-symbol"),
            pytest.param(lambda: medium_vision(1, "z"), id="medium-bad-symbol"),
            pytest.param(lambda: universal(1, "q"), id="universal-bad-symbol"),
            pytest.param(lambda: small_vision(True, "1"), id="small-bool-size"),
            pytest.param(lambda: small_vision(0, None), id="small-no-string"),
            pytest.param(lambda: decode_sector(None, (0, 0)), id="decode-no-string"),
            pytest.param(lambda: encode_advice((0, 0), (1, 0), True), id="encode-bool-size"),
            pytest.param(lambda: basic_cost(61, 4.0, 1.0), id="cost-size-61"),
            pytest.param(lambda: count_tiles(61, 4.0, 1.0), id="tiles-size-61"),
            pytest.param(lambda: sweep_cost_bound(-1, 4.0, 1.0), id="ceiling-negative-size"),
            pytest.param(lambda: lower_bounds(2.0, 4.0, 1.0), id="floors-float-size"),
            pytest.param(lambda: bound_for("small", 1024, 4.0, 0.5, 0.5, 20), id="bound-size-1024"),
            pytest.param(lambda: sweep(parse_config(_HUGE_Z_SWEEP)), id="sweep-config-size-1024"),
        ],
    )
    def test_rejected_with_a_precondition_error(self, call):
        with pytest.raises(PreconditionError):
            call()


class TestPartition:
    @given(
        st.integers(0, 12),
        st.floats(-100, 100),
        st.floats(-100, 100),
    )
    @settings(max_examples=400)
    def test_round_trip_membership(self, z, qx, qy):
        if qx == 0 and qy == 0:
            return
        w = encode_advice((0, 0), (qx, qy), z)
        assert decode_sector(w, (0, 0)).contains((qx, qy))

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(17)
        for _ in range(10**4):
            z = int(rng.integers(0, 13))
            p = rng.uniform(-50, 50, 2)
            q = p + rng.normal(size=2) * rng.uniform(0.001, 100)
            if q[0] == p[0] and q[1] == p[1]:
                continue
            w = encode_advice(p, q, z)
            assert decode_sector(w, p).contains(q)

    def test_exactly_one_sector_claims_each_point(self):
        rng = np.random.default_rng(31)
        for z in range(0, 7):
            sectors = [
                decode_sector(format(j, f"0{z}b") if z else "", (0, 0))
                for j in range(1 << z)
            ]
            for _ in range(200):
                q = rng.normal(size=2) * 10
                if q[0] == 0 and q[1] == 0:
                    continue
                owners = [s.index for s in sectors if s.contains(q)]
                assert owners == [sector_index((0, 0), q, z)]

    def test_unique_owner_up_to_twenty_bits(self):
        # For larger partitions, check the claimed sector contains the point
        # while its angular neighbors do not.
        rng = np.random.default_rng(33)
        for z in range(7, 21):
            for _ in range(40):
                q = rng.normal(size=2) * 50
                if q[0] == 0 and q[1] == 0:
                    continue
                j = sector_index((0, 0), q, z)
                count = 1 << z
                assert decode_sector(format(j, f"0{z}b"), (0, 0)).contains(q)
                for other in ((j - 1) % count, (j + 1) % count):
                    assert not decode_sector(format(other, f"0{z}b"), (0, 0)).contains(q)

    def test_ccw_boundary_included_cw_excluded(self):
        # Due West sits exactly on the boundary between sectors 0 and 1 at z=2:
        # it closes sector 0 (its counterclockwise ray) and opens sector 1.
        west = (-4.0, 0.0)
        assert sector_index((0, 0), west, 2) == 0
        assert decode_sector("00", (0, 0)).contains(west)
        assert not decode_sector("01", (0, 0)).contains(west)

    def test_due_north_lands_in_the_last_sector(self):
        for z in range(1, 10):
            assert sector_index((0, 0), (0, 9), z) == (1 << z) - 1

    def test_cardinal_boundaries_for_every_size_up_to_20(self):
        # Boundary rays whose compass angle is exactly representable (the
        # cardinal directions) must belong to the sector they close.  Other
        # boundary angles are irrational multiples of ulps; the bulk round-trip
        # test covers them statistically.
        cardinals = {(-9.0, 0.0): 0.25, (0.0, -9.0): 0.5, (9.0, 0.0): 0.75, (0.0, 9.0): 1.0}
        for z in range(1, 21):
            count = 1 << z
            for q, turn in cardinals.items():
                boundary = turn * count  # the (j+1) of the ray, when integral
                if boundary != int(boundary):
                    continue
                assert sector_index((0, 0), q, z) == int(boundary) - 1, (z, q)

    def test_vector_rule_matches_scalar_rule(self):
        # Every boundary ray, due North, and random points, around two apexes.
        rng = np.random.default_rng(37)
        for apex in ((0.0, 0.0), (1.5, -2.0)):
            for z in range(0, 9):
                width = TAU / (1 << z)
                pts = [point_at(j * width, dist, apex) for j in range(1 << z) for dist in (0.5, 3.0, 70.0)]
                pts.append((apex[0], apex[1] + 9.0))
                pts.extend(map(tuple, np.asarray(apex) + rng.normal(size=(200, 2)) * 10))
                got = sector_indices(apex, np.array(pts), z)
                want = [sector_index(apex, q, z) for q in pts]
                assert got.tolist() == want, z
