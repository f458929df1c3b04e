"""Geometry kernel tests: compass angles, detection, polylines, and the two
triangle predicates the strategy analysis leans on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehunt import (
    DegenerateInputError,
    Point2,
    Polyline,
    PreconditionError,
    ccw_angle_from_north,
    direction_of,
    spiral,
)
from planehunt.geom import detection_lengths

from _oracles import earliest_detection_on_segment

TAU = math.tau


class TestCompassAngle:
    def test_due_north_is_full_turn(self):
        assert ccw_angle_from_north((0, 0), (0, 5)) == TAU

    def test_west_is_quarter_turn(self):
        assert ccw_angle_from_north((0, 0), (-5, 0)) == pytest.approx(math.pi / 2, abs=0)

    def test_south_is_half_turn(self):
        assert ccw_angle_from_north((0, 0), (0, -3)) == pytest.approx(math.pi, abs=0)

    def test_east_is_three_quarter_turn(self):
        assert ccw_angle_from_north((1, 1), (2, 1)) == pytest.approx(1.5 * math.pi)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            ccw_angle_from_north((2, 3), (2, 3))

    @given(st.floats(1e-6, TAU))
    @settings(max_examples=200)
    def test_direction_round_trip(self, angle):
        ux, uy = direction_of(angle)
        measured = ccw_angle_from_north((0, 0), (ux, uy))
        assert measured == pytest.approx(angle, abs=1e-9)

    def test_output_always_in_half_open_turn(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dx, dy = rng.normal(size=2)
            if dx == 0 and dy == 0:
                continue
            theta = ccw_angle_from_north((0, 0), (dx, dy))
            assert 0.0 < theta <= TAU


def detect_one(a, b, q, r):
    """The kernel on one segment and one target: t, or None for NaN."""
    t = detection_lengths(np.array([a, b], dtype=float), np.array([q], dtype=float), r)
    assert t.shape == (1, 1)
    return None if np.isnan(t[0, 0]) else float(t[0, 0])


class TestEarliestDetection:
    def test_crossing_segment(self):
        assert detect_one((0, 0), (10, 0), (5, 3), 3.0) == 5.0

    def test_miss(self):
        assert detect_one((0, 0), (10, 0), (5, 3), 2.0) is None

    def test_start_inside(self):
        assert detect_one((0, 0), (10, 0), (0, 0), 1.0) == 0.0

    def test_zero_length_segment(self):
        assert detect_one((1, 1), (1, 1), (1, 1.5), 1.0) == 0.0
        assert detect_one((1, 1), (1, 1), (9, 9), 1.0) is None

    def test_radius_must_be_positive(self):
        with pytest.raises(PreconditionError):
            earliest_detection_on_segment((0, 0), (1, 0), (0, 1), 0.0)

    def test_detection_point_is_on_radius(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            a, b, q = rng.uniform(-10, 10, (3, 2))
            r = rng.uniform(0.05, 4.0)
            t = detect_one(a, b, q, r)
            if t is None:
                continue
            seg = math.hypot(b[0] - a[0], b[1] - a[1])
            assert 0.0 <= t <= seg + 1e-12
            if seg > 0:
                frac = t / seg
                px = a[0] + frac * (b[0] - a[0])
                py = a[1] + frac * (b[1] - a[1])
                assert math.hypot(px - q[0], py - q[1]) <= r + 1e-9

    def test_monotone_in_radius(self):
        # Detection can only happen sooner when the radius grows: 1e5 cases
        # through an independent vectorized re-derivation of the quadratic.
        rng = np.random.default_rng(23)
        n = 10**5
        a = rng.uniform(-10, 10, (n, 2))
        b = rng.uniform(-10, 10, (n, 2))
        q = rng.uniform(-10, 10, (n, 2))
        r1 = rng.uniform(0.05, 3.0, n)
        r2 = r1 * rng.uniform(1.0, 3.0, n)
        t1 = _independent_detect(a, b, q, r1)
        t2 = _independent_detect(a, b, q, r2)
        detected = ~np.isnan(t1)
        assert detected.sum() > 5000
        assert not np.isnan(t2[detected]).any()
        assert (t2[detected] <= t1[detected] + 1e-9).all()

        # spot-check the independent twin against the library on a sample
        for i in range(0, n, 4999):
            got = detect_one(a[i], b[i], q[i], r1[i])
            if np.isnan(t1[i]):
                assert got is None
            else:
                assert got == pytest.approx(float(t1[i]), abs=1e-9)

    def test_vector_twin_matches_scalar(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-8, 8, (400, 2))
        q = Point2(0.5, -0.25)
        for r in (0.1, 0.7, 2.5):
            ts = detection_lengths(pts, np.array([[q.x, q.y]]), r)[:, 0]
            for i in range(pts.shape[0] - 1):
                scalar = earliest_detection_on_segment(pts[i], pts[i + 1], q, r)
                if scalar is None:
                    assert np.isnan(ts[i])
                else:
                    assert ts[i] == pytest.approx(scalar, abs=1e-12)

    def test_many_targets_match_single_target_columns(self):
        # Broadcasting over k targets and the flat one-target path are the
        # same arithmetic: every column agrees bit for bit, NaNs included.
        rng = np.random.default_rng(41)
        pts = rng.uniform(-6, 6, (300, 2))
        targets = np.concatenate([rng.uniform(-6, 6, (40, 2)), pts[[0, 7, 150]]])
        for r in (0.05, 0.6, 3.0):
            many = detection_lengths(pts, targets, r)
            assert many.shape == (299, targets.shape[0])
            assert 0 < np.isnan(many).sum() < many.size
            for j in range(targets.shape[0]):
                one = detection_lengths(pts, targets[j : j + 1], r)
                assert one.shape == (299, 1)
                assert many[:, j].tobytes() == one[:, 0].tobytes()


class TestPolyline:
    def test_l_shape_length(self):
        p = Polyline(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
        assert p.length == 7.0

    def test_single_vertex_is_zero(self):
        p = Polyline(np.array([[2.0, 2.0]]))
        assert p.length == 0.0
        assert p.segment_count == 0

    def test_small_spiral_materializes_to_25r(self):
        r = 1.25
        p = spiral(2 * r, r).materialize()
        assert p.length == pytest.approx(25 * r, rel=1e-12)

    def test_rejects_inconsistent_cached_lengths(self):
        with pytest.raises(PreconditionError):
            Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DegenerateInputError):
            Polyline(np.array([[0.0, 0.0], [math.inf, 0.0]]))


def _independent_detect(a, b, q, r):
    """Earliest in-segment detection arc, via the textbook fraction quadratic.

    Test-only twin of the library routine, deliberately derived differently:
    solve |a + s (b - a) - q|^2 = r^2 for the fraction s and scale by |ab|.
    """
    d = b - a
    aa = d[:, 0] ** 2 + d[:, 1] ** 2
    w = a - q
    bb = 2.0 * (w[:, 0] * d[:, 0] + w[:, 1] * d[:, 1])
    cc = w[:, 0] ** 2 + w[:, 1] ** 2 - r * r
    out = np.full(aa.shape, np.nan)
    out[cc <= 0.0] = 0.0  # the segment start is already within the radius
    disc = bb * bb - 4.0 * aa * cc
    ok = (cc > 0.0) & (aa > 0.0) & (disc >= 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = (-bb - np.sqrt(disc)) / (2.0 * aa)
    hit = ok & (s >= 0.0) & (s <= 1.0)
    out[hit] = s[hit] * np.sqrt(aa[hit])
    return out


def _vertex_angle(vx, vy, ax, ay, bx, by):
    ux, uy = ax - vx, ay - vy
    wx, wy = bx - vx, by - vy
    dot = ux * wx + uy * wy
    nu = np.hypot(ux, uy)
    nw = np.hypot(wx, wy)
    return np.arccos(np.clip(dot / (nu * nw), -1.0, 1.0))


def sample_isosceles_predicate(rng, want):
    """Random isosceles apex/base configurations with a probe point.

    Returns |QR'|, |QR| for ``want`` samples satisfying: angle(Q,R',R) exceeds
    the base angle while angle(Q,R,R') stays below it.
    """
    got_a = []
    got_b = []
    total = 0
    while total < want:
        n = want * 4
        px, py = rng.uniform(-5, 5, (2, n))
        d = rng.uniform(0.2, 8.0, n)
        t1, t2 = rng.uniform(0, TAU, (2, n))
        rx, ry = px - d * np.sin(t1), py + d * np.cos(t1)
        sx, sy = px - d * np.sin(t2), py + d * np.cos(t2)
        qx = rng.uniform(-15, 15, n)
        qy = rng.uniform(-15, 15, n)
        base = _vertex_angle(sx, sy, px, py, rx, ry)  # = angle(P, R, R') by symmetry
        ang_qs = _vertex_angle(sx, sy, qx, qy, rx, ry)
        ang_qr = _vertex_angle(rx, ry, qx, qy, sx, sy)
        dqs = np.hypot(qx - sx, qy - sy)
        dqr = np.hypot(qx - rx, qy - ry)
        ok = (
            (dqs > 1e-9)
            & (dqr > 1e-9)
            & (np.hypot(rx - sx, ry - sy) > 1e-9)
            & (ang_qs > base + 1e-9)
            & (ang_qr < base - 1e-9)
        )
        got_a.append(dqs[ok])
        got_b.append(dqr[ok])
        total += int(ok.sum())
    return np.concatenate(got_a)[:want], np.concatenate(got_b)[:want]


def test_isosceles_probe_sits_nearer_the_wider_angle_vertex():
    # For |PR| = |PR'| and a probe Q with angle(Q,R',R) above and angle(Q,R,R')
    # below the base angle, the probe is strictly nearer R' than R.
    rng = np.random.default_rng(2024)
    dqs, dqr = sample_isosceles_predicate(rng, 10**5)
    assert dqs.size == 10**5
    assert (dqs < dqr + 1e-9).all()


def test_offset_ray_reaches_the_radius_within_1_2x():
    # With |PR| = D, |PS| = D - r along PR, and a probe ray at pi/6 off PR,
    # the first ray point at distance r from R sits within 1.2 |PS| of P.
    rng = np.random.default_rng(99)
    n = 10**5
    d = 10.0 ** rng.uniform(-1, 3, n)
    r = d * rng.uniform(0.9, 1.0 - 1e-9, n)
    px, py = rng.uniform(-5, 5, (2, n))
    theta = rng.uniform(0, TAU, n)
    ux, uy = -np.sin(theta), np.cos(theta)
    phi = theta + math.pi / 6
    vx, vy = -np.sin(phi), np.cos(phi)
    rx, ry = px + d * ux, py + d * uy
    proj = (rx - px) * vx + (ry - py) * vy  # = d cos(pi/6)
    disc = proj * proj - (d * d - r * r)
    assert (disc >= 0).all()
    t = (d * d - r * r) / (proj + np.sqrt(disc))  # nearest ray point at distance r from R
    qx, qy = px + t * vx, py + t * vy
    assert np.allclose(np.hypot(qx - rx, qy - ry), r, rtol=1e-9, atol=1e-9)
    ps = d - r
    assert (t <= 1.2 * ps + 1e-9 * np.maximum(1.0, d)).all()
