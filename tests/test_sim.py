"""Execution engine tests: detection truncation, exact cost accounting,
lower-bound formulas, and the adversarial placement search."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planehunt import (
    Block,
    Point2,
    PreconditionError,
    StreamChainError,
    TrajectoryStream,
    adversarial_placement,
    basic_traversal,
    encode_advice,
    large_vision,
    lower_bounds,
    medium_regime_lower_bound,
    medium_vision,
    run,
    small_vision,
    spiral,
    universal,
)
from planehunt.sim import MAX_CANDIDATES, _candidate_floor, disc_grid_candidates, shaded_tile_candidates


def one_segment_stream(a, b):
    pts = np.array([a, b], dtype=float)
    lens = np.array([math.hypot(b[0] - a[0], b[1] - a[1])])
    return TrajectoryStream(a, lambda: iter([Block(pts, lens)]))


def _refusal_under_2gib(call):
    """Run an ``adversarial_placement`` call in a subprocess under a 2 GiB
    address-space limit; return the PreconditionError message it refuses with."""
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from planehunt import PreconditionError, adversarial_placement, small_vision\n"
        "try:\n"
        f"    {call}\n"
        "except PreconditionError as exc:\n"
        "    print('refused:', exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.startswith("refused: "), proc.stdout
    return proc.stdout


class TestRun:
    def test_treasure_at_start(self):
        out = run(spiral(4.0, 1.0), (0.0, 0.0), 0.5, 100.0)
        assert out.found and out.cost == 0.0 and out.segments_executed == 0
        assert out.detection_point == Point2(0.0, 0.0)

    def test_single_segment_example(self):
        out = run(one_segment_stream((0, 0), (10, 0)), (5, 3), 3.0, 100.0)
        assert out.found
        assert out.cost == 5.0
        assert out.detection_point == Point2(5.0, 0.0)
        assert out.segments_executed == 1

    def test_cap_hit_reports_cap_as_cost(self):
        out = run(spiral(64.0, 1.0), (50.0, 50.0), 0.25, cost_cap=10.0)
        assert not out.found
        assert out.cost == 10.0
        assert out.detection_point is None

    def test_exhausted_finite_stream(self):
        out = run(one_segment_stream((0, 0), (1, 0)), (50, 0), 1.0, 100.0)
        assert not out.found
        assert out.cost == 1.0

    def test_detection_exactly_at_cap_counts(self):
        out = run(one_segment_stream((0, 0), (10, 0)), (5, 3), 3.0, cost_cap=5.0)
        assert out.found and out.cost == 5.0

    def test_malformed_chain_rejected(self):
        def bad():
            yield Block(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0]))
            yield Block(np.array([[9.0, 9.0], [10.0, 9.0]]), np.array([1.0]))

        stream = TrajectoryStream((0.0, 0.0), bad)
        with pytest.raises(StreamChainError):
            run(stream, (100.0, 100.0), 0.5, 1e6)

    def test_chain_error_prints_plain_floats(self):
        def off_by_one_ulp():
            yield Block(np.array([[0.0, 0.0], [0.1 + 0.2, -0.5]]), np.array([0.5830951894845301]))
            yield Block(np.array([[0.3, -0.5], [1.0, -0.5]]), np.array([0.7]))

        with pytest.raises(StreamChainError) as err:
            run(TrajectoryStream((0.0, 0.0), off_by_one_ulp), (100.0, 100.0), 0.5, 1e6)
        assert str(err.value) == (
            "block starts at (0.3, -0.5) but previous segment ended at (0.30000000000000004, -0.5)"
        )

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            run(spiral(2.0, 1.0), (1, 1), 0.0, 10.0)
        with pytest.raises(PreconditionError):
            run(spiral(2.0, 1.0), (1, 1), 0.5, 0.0)

    def test_non_finite_cap_rejected_before_walking(self):
        # large_vision never ends, so an infinite cap would walk forever.
        for cap in (math.inf, math.nan):
            with pytest.raises(PreconditionError):
                run(large_vision(), (-5.0, 8.0), 0.1, cap)

    @pytest.mark.xfail(raises=StreamChainError, strict=True,
                       reason="spiral pieces restart at the closed-form offset, not where the "
                       "previous piece's running sum ended (non-dyadic r)")
    def test_long_non_dyadic_spiral_chains(self):
        assert run(spiral(1000.0, 0.1), (999.0, 0.5), 0.1, 1e12).found

    def test_large_vision_due_north(self):
        out = run(large_vision(), (0.0, 10.0), 9.5, 1e6)
        assert out.found
        assert out.cost <= 116.0 * 0.5

    def test_large_vision_huge_radius_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d_max = rng.uniform(10.0, 500.0)
            r = rng.uniform(0.9 * d_max, d_max - 5.0 / 6.0)
            theta = rng.uniform(0, math.tau)
            dist = rng.uniform(0.0, d_max)
            q = (-dist * math.sin(theta), dist * math.cos(theta))
            out = run(large_vision(), q, r, 1e9)
            assert out.found
            assert out.cost <= 116.0 * (d_max - r)

    def test_cost_is_arc_length_of_detection_point(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = rng.uniform(2.0, 20.0)
            r = rng.uniform(0.1, 1.0)
            theta = rng.uniform(0, math.tau)
            dist = rng.uniform(r, d)
            q = (-dist * math.sin(theta), dist * math.cos(theta))
            stream = spiral(d, max(r / 2, 0.05))
            out = run(stream, q, r, 1e9)
            assert out.found
            poly = stream.prefix(out.cost)
            tip = poly.vertices[-1]
            assert math.hypot(tip[0] - out.detection_point.x, tip[1] - out.detection_point.y) <= 1e-6
            assert poly.length == pytest.approx(out.cost, rel=1e-9)

    def test_cost_never_undercuts_the_straight_line(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            z = int(rng.integers(0, 4))
            d = rng.uniform(2.0, 12.0)
            r = rng.uniform(0.3, 1.0)
            theta = rng.uniform(0, math.tau)
            dist = rng.uniform(r + 0.05, d)
            q = (-dist * math.sin(theta), dist * math.cos(theta))
            w = encode_advice((0, 0), q, z)
            for stream in (small_vision(z, w), universal(z, w, 0.5, 3), large_vision()):
                out = run(stream, q, r, 1e7)
                if out.found:
                    assert out.cost >= dist - r - 1e-9

    def test_deterministic(self):
        q = (3.0, 4.5)
        a = run(medium_vision(2, "01", 0.5, 3), q, 1.6, 1e8)
        b = run(medium_vision(2, "01", 0.5, 3), q, 1.6, 1e8)
        assert a == b


class TestLowerBounds:
    def test_medium_formula(self):
        report = lower_bounds(0, 100.0, 1.0)
        assert report.medium_bound == pytest.approx((10000 + 100) / 800)
        assert report.medium_applicable

    def test_large_advice_limit_is_the_distance_term(self):
        report = lower_bounds(50, 100.0, 1.0)
        assert report.medium_bound == pytest.approx(100.0 / 800.0, rel=1e-6)

    def test_medium_bound_flagged_off_near_the_rim(self):
        report = lower_bounds(3, 100.0, 95.0)
        assert not report.medium_applicable
        assert report.trivial_bound == 5.0

    def test_small_bound_combines_with_trivial(self):
        report = lower_bounds(0, 100.0, 0.5)
        formula = (100.0**2 / 0.5) * (math.log2(100) + 1.0) / 256.0
        assert report.small_bound == pytest.approx(max(formula, 99.5))

    def test_validation(self):
        with pytest.raises(PreconditionError):
            lower_bounds(0, 1.0, 1.0)


class TestCandidates:
    def test_shaded_pattern_geometry(self):
        pts = shaded_tile_candidates(20.0, 1.0)
        side = math.sqrt(2.0) * 10.0
        assert pts.shape[0] > 0
        assert (pts >= 0).all()
        assert (pts <= side).all()
        spacing = 2.0
        assert np.allclose(pts % spacing, 1.0)  # tile centers of the 2r tiling

    def test_grid_stays_in_disc(self):
        pts = disc_grid_candidates(5.0, 0.5)
        assert (np.hypot(pts[:, 0], pts[:, 1]) <= 5.0 + 1e-12).all()

    def test_empty_pattern_for_tiny_disc(self):
        assert shaded_tile_candidates(1.0, 1.0).shape[0] == 0

    @pytest.mark.parametrize("d, r, start", [(20.0, 1.0, (0.0, 0.0)), (37.3, 0.7, (-81.25, 3.1)), (9.0, 0.3, (1e9 + 0.1, 7.0))])
    def test_shaded_pattern_matches_the_plain_loop(self, d, r, start):
        m = int(math.sqrt(2.0) * d / 2.0 // (2.0 * r))
        loop = [((2 * a - 1) * r + start[0], start[1] + (2 * (m - b) + 1) * r)
                for b in range(1, m + 1, 2) for a in range(1, m + 1, 2)]
        pts = shaded_tile_candidates(d, r, Point2(*start))
        assert pts.dtype == np.float64
        assert pts.tobytes() == np.array(loop, dtype=np.float64).tobytes()


def _assert_worst_of_independent_runs(make, z, d, r, step):
    """The grouped walk over all candidates equals one independent run per
    candidate, each with its own canonical advice, exactly.  The worst
    placement must be detected below the cap, so every candidate is."""
    cap = 1e9
    point, cost = adversarial_placement(lambda w: make(z, w), z, d, r, step, cost_cap=cap)
    cands = np.concatenate([shaded_tile_candidates(d, r), disc_grid_candidates(d, step)])
    cands = np.unique(cands[np.hypot(cands[:, 0], cands[:, 1]) > 0.0], axis=0)
    solos = [run(make(z, encode_advice((0, 0), q, z)), q, r, cap) for q in cands]
    costs = [solo.cost for solo in solos]
    best = int(np.argmax(costs))
    assert solos[best].found
    assert cost < cap
    assert (point.x, point.y) == (cands[best, 0], cands[best, 1])
    assert cost == costs[best]


class TestAdversarialPlacement:
    def test_worst_cost_exceeds_distance_floor(self):
        factory = lambda w: large_vision()
        d, r = 10.0, 9.2
        point, cost = adversarial_placement(factory, 0, d, r, 1.0)
        assert cost >= d - r - 1e-9
        assert cost <= 116.0 * (d - r)

    def test_small_instance_meets_the_medium_floor(self):
        factory = lambda w: small_vision(0, w)
        point, cost = adversarial_placement(factory, 0, 20.0, 1.0, 1.0)
        assert cost >= medium_regime_lower_bound(0, 20.0, 1.0)

    def test_grid_step_validation(self):
        factory = lambda w: small_vision(0, w)
        with pytest.raises(PreconditionError):
            adversarial_placement(factory, 0, 20.0, 1.0, 1.5)

    def test_non_finite_cap_rejected(self):
        factory = lambda w: large_vision()
        with pytest.raises(PreconditionError):
            adversarial_placement(factory, 0, 10.0, 9.2, 1.0, cost_cap=math.inf)

    def test_candidate_budget(self):
        # The floor (717,408) passes the budget, so the set is built; its exact count does not.
        assert _candidate_floor(600.0, 1.0, Point2(0.0, 0.0)) == 717408 < MAX_CANDIDATES
        with pytest.raises(PreconditionError, match="^1130912 candidates exceed the budget 1000000$"):
            adversarial_placement(lambda w: small_vision(0, w), 0, 600.0, 1.0, 1.0)

    def test_over_budget_candidates_are_refused_before_they_are_built(self):
        # The full grid here holds 2.6e8 points (4 GB); a 2 GiB address-space
        # limit turns building it into a MemoryError instead of a refusal.
        refusal = _refusal_under_2gib("adversarial_placement(lambda w: small_vision(2, w), 2, 400.0, 0.05, 0.05)")
        assert "exceed the budget 1000000" in refusal

    def test_unresolved_grid_step_is_refused_before_candidates_are_built(self):
        # At x = 1e17 one ulp is 16: the 0.05 step cannot move a coordinate, so
        # no candidate floor holds and the 15999**2 grid would be built.
        refusal = _refusal_under_2gib(
            "adversarial_placement(lambda w: small_vision(2, w, (1e17, 0.0)), 2, 400.0, 0.05, 0.05)"
        )
        assert "does not resolve coordinates" in refusal

    def test_resolved_far_start_keeps_its_answer(self):
        factory = lambda w: small_vision(1, w, (1e9, -1e9))
        near = adversarial_placement(lambda w: small_vision(1, w), 1, 6.0, 0.5, 0.5)
        far = adversarial_placement(factory, 1, 6.0, 0.5, 0.5)
        assert far[1] == near[1] and far[0] == Point2(near[0].x + 1e9, near[0].y - 1e9)

    def test_infinite_range_rejected(self):
        with pytest.raises(PreconditionError):
            adversarial_placement(lambda w: large_vision(), 0, math.inf, 1.0, 1.0)

    def test_deterministic_and_lexicographic(self):
        factory = lambda w: medium_vision(1, w, 0.5, 2)
        a = adversarial_placement(factory, 1, 8.0, 1.6, 1.0)
        b = adversarial_placement(factory, 1, 8.0, 1.6, 1.0)
        assert a == b

    def test_advice_grouping_matches_per_candidate_runs(self):
        _assert_worst_of_independent_runs(lambda z, w: medium_vision(z, w, 0.5, 2), 2, 6.0, 1.55, 1.5)

    def test_small_vision_grouping_matches_per_candidate_runs(self):
        _assert_worst_of_independent_runs(lambda z, w: small_vision(z, w), 2, 4.0, 0.5, 0.5)

    def test_first_block_must_start_at_the_start(self):
        def factory(w):
            def blocks():
                yield Block(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0]))

            return TrajectoryStream((0.0, 0.0), blocks)

        with pytest.raises(StreamChainError):
            run(factory(""), (3.0, 0.0), 1.0, 1e6)
        with pytest.raises(StreamChainError):
            adversarial_placement(factory, 0, 4.0, 1.0, 1.0)
