"""Strategy tests: dot bookkeeping, the budgeted fill order, phase structure
of the small/universal streams, ray probes, and the k-agent partition."""

import hashlib
import math
import os
import subprocess
import sys
from itertools import islice, product
from pathlib import Path

import numpy as np
import pytest

from planehunt import (
    BudgetExceededError,
    Point2,
    PreconditionError,
    basic_cost,
    basic_traversal,
    dots_of_column,
    encode_advice,
    fill_events,
    hypothesis_sweep,
    large_vision,
    medium_schedule,
    medium_vision,
    multi_agent_stream,
    run,
    small_vision,
    special_dot,
    spiral,
    universal,
)
from planehunt.strategies import Dot, _dot_row, branch_count, first_dot_column
from planehunt.traversal import rounded

A_THIRD = 1.0 / 3.0


class TestDots:
    def test_rows_for_branch3_step2(self):
        assert [d.row for d in dots_of_column(2, 3, 2)] == [1, 2, 3]
        assert [d.row for d in dots_of_column(3, 3, 2)] == [1, 3, 5]
        assert [d.row for d in dots_of_column(4, 3, 2)] == [1, 3, 6]

    def test_threads_are_labeled_in_row_order(self):
        dots = dots_of_column(4, 3, 2)
        assert [d.thread for d in dots] == [1, 2, 3]
        assert [d.col for d in dots] == [4, 4, 4]

    def test_short_column_rejected(self):
        with pytest.raises(PreconditionError):
            dots_of_column(1, 3, 2)

    def test_first_dot_column(self):
        assert first_dot_column(3, 2) == 2
        assert first_dot_column(2, 20) == 1
        assert first_dot_column(7, 3) == 3

    @pytest.mark.parametrize("alpha", [1.0, 0.5, A_THIRD, 0.2, 0.1, 0.03, 0.01])
    def test_lower_thread_dots_lie_in_the_medium_regime(self, alpha):
        # fill_events prunes lower-thread fills by the medium-regime floor, which needs r < 0.9 D:
        # a row of at most col * s - 1 puts r = 2**row at or below D / 2 = 2**(col * s - 1).
        c = branch_count(alpha)
        for s in range(1, 21):
            j0 = first_dot_column(c, s)
            for j in range(j0, j0 + 60):
                assert max((_dot_row(j, k, c, s) for k in range(1, c)), default=0) <= j * s - 1

    def test_branch_count_rounds_reciprocals(self):
        assert branch_count(0.5) == 2
        assert branch_count(A_THIRD) == 3
        assert branch_count(0.4) == 3
        assert branch_count(1.0) == 1
        assert branch_count(2.0) == 1


class TestSchedule:
    def test_first_phase_frozen(self):
        sched = medium_schedule(0, A_THIRD, 2, max_phases=1)
        got = [(e.dot.row, e.dot.col, e.dot.thread, e.cost, e.budget) for e in sched.events]
        assert got == [
            (3, 2, 3, 400.0, 13248.0),
            (2, 2, 2, 648.0, 13248.0),
            (3, 3, 2, 4624.0, 13248.0),
            (1, 2, 1, 1156.0, 13248.0),
        ]

    def test_second_phase_frozen(self):
        sched = medium_schedule(0, A_THIRD, 2, max_phases=2)
        events = [e for e in sched.events if e.phase == 2]
        phase2 = [(e.dot.row, e.dot.col, e.dot.thread, e.cost) for e in events]
        assert phase2 == [(5, 3, 3, 1600.0), (1, 3, 1, 16900.0)]
        assert events[0].budget == 52992.0

    def test_top_thread_fill_opens_every_phase(self):
        sched = medium_schedule(2, 0.5, 3, max_phases=6)
        for p in range(1, 7):
            events = [e for e in sched.events if e.phase == p]
            assert events[0].dot.thread == branch_count(0.5)

    def test_budgets_nondecreasing(self):
        sched = medium_schedule(1, 0.4, 2, max_phases=7)
        budgets = [e.budget for e in sched.events]
        assert all(b2 >= b1 for b1, b2 in zip(budgets, budgets[1:]))

    def test_filled_columns_form_a_prefix_per_thread(self):
        for z, alpha, s in ((0, 0.5, 2), (3, A_THIRD, 3), (1, 0.21, 4)):
            sched = medium_schedule(z, alpha, s, max_phases=6)
            j0 = first_dot_column(branch_count(alpha), s)
            by_thread = {}
            for e in sched.events:
                by_thread.setdefault(e.dot.thread, []).append(e.dot.col)
            for cols in by_thread.values():
                assert cols == list(range(j0, j0 + len(cols)))

    def test_costs_match_the_calculator(self):
        sched = medium_schedule(2, 0.5, 3, max_phases=4)
        for e in sched.events:
            assert e.cost == 2.0 * basic_cost(2, 2.0 ** (e.dot.col * 3), 2.0**e.dot.row)

    def test_range_overflow_trips_the_guard(self):
        # For z <= 1 the spiral's closed form costs every cell, so no column
        # guard trips before the 52nd fill's range 2**(52 * 20) overflows.
        for z in (0, 1):
            with pytest.raises(BudgetExceededError):
                list(islice(fill_events(z, 1.0, 20), 60))
            sched = medium_schedule(z, 1.0, 20, max_phases=60)
            assert sched.guard_tripped and len(sched.events) == 51

    def test_tiny_alpha_overflows_before_any_thread_state(self):
        # ceil(1/alpha) = 10**9 threads open at column 5 * 10**7, whose range overflows
        # at the first fill; under a 1 GiB address-space limit no per-thread table fits.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from planehunt import BudgetExceededError, fill_events\n"
            "try:\n"
            "    next(fill_events(2, 1e-9, 20))\n"
            "except BudgetExceededError as exc:\n"
            "    print('refused:', exc)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout == "refused: dot range 2**1000000000 overflows binary64\n"

    def test_first_sixty_fills_pinned(self):
        """The repr hash of the first 60 fills at s = 20, the scale step whose
        ranges overflow within 60 fills, over a grid of (z, alpha); every
        order cut short ends in BudgetExceededError.  Repinned when ``basic_cost``
        came to be rounded once from its exact count: four sweep fill costs moved
        by one ulp, and no dot, budget or phase moved."""
        digest = hashlib.sha256()
        cut = 0
        for z, alpha in product((0, 1, 2, 3, 6), (1 / 2, 1 / 3, 1.0, 1 / 4)):
            try:
                for ev in islice(fill_events(z, alpha, 20), 60):
                    digest.update(repr(ev).encode())
            except BudgetExceededError:
                cut += 1
        assert digest.hexdigest() == "284a9ab572a287e9c15e98a7713b03428efb2687f6e4ad02c84f8c169177e5f9"
        assert cut == 14

    def test_corner_cell_resolution_equal_to_range(self):
        # branch 2, step 2: the second dot of column 1 is the cell whose
        # resolution equals its range hypothesis; it must still schedule.
        sched = medium_schedule(0, 0.5, 2, max_phases=1)
        first = sched.events[0].dot
        assert (first.row, first.col) == (2, 1)
        assert sched.events[0].cost == 2.0 * basic_cost(0, 4.0, 4.0)


class TestSpecialDot:
    def test_examples(self):
        assert special_dot(10.0, 3.0, 3, 2) == Dot(1, 2, 1)
        assert special_dot(16.0, 8.0, 3, 2) == Dot(3, 2, 3)
        assert special_dot(5.0, 2.0, 3, 2).row == 1
        assert special_dot(300.0, 2.9, 3, 2).row == 1
        # Range 4 alone asks for column 2, whose 2 rows hold fewer than 3 dots; fills start at column 3.
        assert special_dot(4.0, 3.0, 3, 1) == Dot(1, first_dot_column(3, 1), 1)

    def test_no_row_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            special_dot(10.0, 1.5, 3, 2)
        with pytest.raises(PreconditionError):
            special_dot(10.0, 10.0, 3, 2)

    @pytest.mark.parametrize("s", [1, 2, 3, 7, 20])
    def test_column_is_the_smallest_whose_range_reaches_d(self, s):
        for e in range(2, 300, 7):
            for d in (2.0**e, math.nextafter(2.0**e, 0.0), math.nextafter(2.0**e, math.inf), 3.0 * 2.0**e):
                j = special_dot(d, 2.0, 1, s).col
                assert 2.0 ** (j * s) >= d
                assert j == 1 or 2.0 ** ((j - 1) * s) < d

    def test_range_past_binary64_is_over_budget(self):
        with pytest.raises(BudgetExceededError):
            special_dot(1e308, 2.0, 2, 1)  # column 1024: its range 2**1024 overflows
        assert special_dot(2.0**1023, 2.0, 2, 1) == Dot(1, 1023, 1)
        with pytest.raises(PreconditionError):
            special_dot(math.inf, 2.0, 2, 1)


class TestSmallVision:
    def test_no_advice_runs_the_hypothesis_sweep_directly(self):
        stream = small_vision(0, "")
        first = spiral(2.0, 0.25).materialize()
        prefix = stream.prefix(first.length)
        assert np.array_equal(prefix.vertices, first.vertices)

    def test_first_cell_is_an_out_and_back(self):
        # The cell's exact length, twice the basic traversal's, is no float: its
        # opening move of r/sqrt(2) is not a multiple of r.  The walk is back at
        # the start once its block totals add up to it, and not before.
        z, w = 3, "101"
        one_way = sum(b.total for b in basic_traversal(z, w, 2.0, 0.25).blocks())
        assert rounded(one_way) == basic_cost(z, 2.0, 0.25)
        walked, blocks = 0, hypothesis_sweep(z, w).blocks()
        while walked < 2 * one_way:
            block = next(blocks)
            walked += block.total
        assert walked == 2 * one_way and tuple(block.points[-1]) == (0.0, 0.0)
        cell = 2.0 * basic_cost(z, 2.0, 0.25)
        prefix = hypothesis_sweep(z, w).prefix(cell)
        assert prefix.length == pytest.approx(cell, rel=1e-12)

    def test_phase_costs_double(self):
        # With aimable advice each phase p walks 4 * 2**p: sweep trip out and
        # back, then the boundary-ray probe out and back.
        stream = small_vision(4, "0110")
        marks = _return_marks(stream, limit=300000)
        want = []
        total = 0.0
        for p in range(1, 6):
            # back at the start after the sweep round trip and after the probe
            want.append(total + 2.0 * 2.0**p)
            want.append(total + 4.0 * 2.0**p)
            total += 4.0 * 2.0**p
        for expected in want:
            assert any(abs(m - expected) <= 1e-9 * max(1, expected) for m in marks), expected

    def test_ray_probe_follows_the_clockwise_boundary(self):
        z, w = 2, "01"  # sector 1: clockwise ray due West
        stream = small_vision(z, w)
        sweep_leg = 2.0 * 2.0  # phase 1: out and back along the sweep
        probe_tip = stream.prefix(sweep_leg + 2.0).vertices[-1]
        assert np.allclose(probe_tip, [-2.0, 0.0], atol=1e-12)


def _return_marks(stream, limit):
    """Cumulative lengths at which the stream revisits its start point."""
    marks = []
    total = 0.0
    start = (stream.start.x, stream.start.y)
    for block in stream.blocks():
        cs = np.cumsum(block.lengths)
        at_start = (block.points[1:, 0] == start[0]) & (block.points[1:, 1] == start[1])
        for i in np.flatnonzero(at_start):
            marks.append(total + float(cs[i]))
        total += float(cs[-1])
        if total > limit:
            break
    return marks


class TestMediumVision:
    def test_first_fill_is_a_doubled_spiral(self):
        stream = medium_vision(0, "", A_THIRD, 2)
        prefix = stream.prefix(400.0)
        assert prefix.length == 400.0
        assert tuple(prefix.vertices[-1]) == (0.0, 0.0)
        one_way = spiral(16.0, 8.0).materialize()
        assert np.array_equal(prefix.vertices[: one_way.vertices.shape[0]], one_way.vertices)

    def test_fill_contributions_are_twice_the_one_way_cost(self):
        z, alpha, s = 2, 0.5, 3
        w = "10"
        events = list(islice(fill_events(z, alpha, s), 6))
        stream = medium_vision(z, w, alpha, s)
        marks = _return_marks(stream, limit=sum(e.cost for e in events) * 1.01)
        total = 0.0
        for e in events:
            total += e.cost
            assert any(abs(m - total) <= 1e-9 * max(1.0, total) for m in marks), e

    def test_finds_treasure_in_regime(self):
        rng = np.random.default_rng(55)
        for _ in range(12):
            d = rng.uniform(4.0, 40.0)
            r = rng.uniform(1.5, 0.9 * d)
            theta = rng.uniform(0, math.tau)
            dist = rng.uniform(r, d)
            q = (-dist * math.sin(theta), dist * math.cos(theta))
            z = int(rng.integers(0, 5))
            w = encode_advice((0, 0), q, z)
            outcome = run(medium_vision(z, w, 0.5, 3), q, r, 1e8)
            assert outcome.found, (d, r, q, z)

    def test_fine_row_gap_diagnostic(self):
        # The hypothesis matrix has no resolution row below 2, so for
        # 1 < r < sqrt(2) and aimable advice there are pockets near the
        # sector's counterclockwise ray that no fill ever approaches within r.
        # This documents the gap; end-to-end medium checks sample r >= 1.5.
        z, r = 6, 1.05
        wedge = math.tau / (1 << z)
        pocket_frame = None
        tanw = math.tan(wedge)
        for u in range(5, 200):
            x = 2.0 * u + 1.0  # between the tines at 2u - 1 and 2u + 1... x odd
            x_hi = 2.0 * (u + 1)
            y_max = x_hi * tanw
            top = 2.0 * math.ceil(y_max / 2.0) - 1.0
            y = top + 0.5
            if y_max - y > 0.05 and y - 1.0 > r and (2.0 * u) * tanw > y:
                pocket_frame = (2.0 * u, y)  # on the column boundary
                break
        assert pocket_frame is not None
        # place the pocket point in sector 0's frame: world = (-fy, fx) rotated
        # by the sector-0 basis (+x = North, +y = West)
        fx, fy = pocket_frame
        q = (-fy, fx)
        assert encode_advice((0, 0), q, z) == "0" * z
        stream = medium_vision(z, "0" * z, 0.5, 2)
        prefix = stream.prefix(2e6)
        a, b = prefix.vertices[:-1], prefix.vertices[1:]
        d = b - a
        seg2 = (d**2).sum(axis=1)
        w_ = np.asarray(q) - a
        t = np.clip((w_ * d).sum(axis=1) / np.where(seg2 > 0, seg2, 1), 0, 1)
        c = a + t[:, None] * d
        dmin = float(np.hypot(c[:, 0] - q[0], c[:, 1] - q[1]).min())
        assert dmin > r
        assert not run(stream, q, r, 1e6).found


class TestLargeVision:
    def test_first_three_segments(self):
        poly = large_vision().prefix(6.0)
        v = poly.vertices
        assert np.allclose(v[1], [0.0, 2.0], atol=1e-15)          # North, out 2
        assert np.allclose(v[2], [0.0, 0.0], atol=1e-15)          # back
        assert np.allclose(v[3], [-2.0 * math.sin(math.pi / 6), 2.0 * math.cos(math.pi / 6)])

    def test_round_costs(self):
        stream = large_vision()
        for j, block in zip(range(1, 6), stream.blocks()):
            assert float(block.lengths.sum()) == 24.0 * 2.0**j

    def test_cumulative_cost_through_round(self):
        total = 0.0
        for j, block in zip(range(1, 9), large_vision().blocks()):
            total += float(block.lengths.sum())
            assert total <= 48.0 * 2.0**j

    def test_twelve_evenly_spaced_rays(self):
        poly = large_vision().prefix(48.0)
        tips = poly.vertices[1::2]
        angles = sorted(math.atan2(-x, y) % math.tau or math.tau for x, y in tips)
        gaps = np.diff(angles)
        assert len(tips) == 12
        assert np.allclose(gaps, math.pi / 6, atol=1e-9)


class TestUniversal:
    def test_phase_costs(self):
        stream = universal(2, "01", 0.5, 3)
        marks = _return_marks(stream, limit=2000)
        total = 0.0
        for p in range(1, 7):
            for leg_end in (2.0, 4.0, 6.0):  # back at start after each round trip
                expected = total + leg_end * 2.0**p
                assert any(abs(m - expected) <= 1e-9 * max(1, expected) for m in marks)
            total += 6.0 * 2.0**p

    def test_overhead_is_at_most_24x(self):
        rng = np.random.default_rng(61)
        for _ in range(6):
            d = rng.uniform(4.0, 20.0)
            r = rng.uniform(0.2, 0.9)
            dist = rng.uniform(r + 0.5, d)
            theta = rng.uniform(0, math.tau)
            q = (-dist * math.sin(theta), dist * math.cos(theta))
            z = int(rng.integers(0, 4))
            w = encode_advice((0, 0), q, z)
            cap = 1e9
            best = min(
                run(small_vision(z, w), q, r, cap).cost,
                run(medium_vision(z, w, 0.5, 3), q, r, cap).cost,
                run(large_vision(), q, r, cap).cost,
            )
            got = run(universal(z, w, 0.5, 3), q, r, cap)
            assert got.found
            assert got.cost <= 24.0 * best + 1e-9


class TestMultiAgent:
    def test_power_of_two_team_uses_every_sector(self):
        streams = [multi_agent_stream(4, label) for label in (1, 2, 3, 4)]
        assert all(s is not None for s in streams)

    def test_extra_agents_idle(self):
        assert multi_agent_stream(5, 5) is None
        assert multi_agent_stream(5, 4) is not None

    def test_single_agent_runs_bare_universal(self):
        lone = multi_agent_stream(1, 1)
        bare = universal(0, "")
        a = lone.prefix(10.0)
        b = bare.prefix(10.0)
        assert np.array_equal(a.vertices, b.vertices)

    def test_labels_validated(self):
        with pytest.raises(PreconditionError):
            multi_agent_stream(4, 0)
        with pytest.raises(PreconditionError):
            multi_agent_stream(4, 5)

    def test_agent_streams_match_their_sector_advice(self):
        for k, label, z in ((8, 3, 3), (4, 2, 2)):
            agent = multi_agent_stream(k, label)
            matched = universal(z, format(label - 1, f"0{z}b"))
            a = agent.prefix(20.0)
            b = matched.prefix(20.0)
            assert np.array_equal(a.vertices, b.vertices)
