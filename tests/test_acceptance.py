"""Acceptance suite: every headline constant and guarantee, one test per
criterion, each printing a pass/fail line with its elapsed time.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import math
import time

import numpy as np
import pytest

import planehunt as ph
from planehunt.errors import BudgetExceededError
from planehunt.strategies import _dot_row, branch_count, first_dot_column

from _oracles import oracle_columns
from test_geom import sample_isosceles_predicate
from test_tiling import tile_columns
from test_traversal import assert_calculator_matches

TAU = math.tau


def _finish(name: str, ok: bool, detail: str, t0: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {name}: {status} — {detail} ({time.time() - t0:.1f}s of {budget:.0f}s budget)")
    assert ok, f"{name}: {detail}"


def _placement(rng, dist):
    theta = rng.uniform(0, TAU)
    return (-dist * math.sin(theta), dist * math.cos(theta))


def _tile_bound_samples(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = int(rng.integers(2, 13))
        ratio = 10.0 ** rng.uniform(math.log10(1.01), math.log10(2000.0))
        r = 10.0 ** rng.uniform(-3, 3)
        out.append((z, ratio * r, r))
    return out


def test_criterion_1_tile_count_ceiling():
    t0 = time.time()
    worst = 0.0
    for z, d, r in _tile_bound_samples(101, 1000):
        count = ph.count_tiles(z, d, r)
        bound = ph.tile_count_bound(z, d, r)
        worst = max(worst, count / bound)
        if count > bound:
            _finish("1 (tile-count ceiling)", False, f"violated at z={z} D={d} r={r}", t0, 30)
    rng = np.random.default_rng(102)
    agreed = 0
    while agreed < 100:
        z = int(rng.integers(2, 9))
        r = 10.0 ** rng.uniform(-1, 1)
        d = r * rng.uniform(1.05, 20.0)
        if ph.count_tiles(z, d, r) > 500:
            continue
        if tile_columns(z, d, r) != oracle_columns(d, r, TAU / (1 << z)):
            _finish("1 (tile-count ceiling)", False, f"oracle mismatch at z={z} D={d} r={r}", t0, 30)
        agreed += 1
    _finish(
        "1 (tile-count ceiling)",
        True,
        f"1000 samples within 69-bound (max ratio {worst:.3f}); 100 oracle agreements",
        t0,
        30,
    )


def test_criterion_2_sweep_cost_ceiling_and_exact_calculator():
    t0 = time.time()
    worst = 0.0
    exact = 0
    for z, d, r in _tile_bound_samples(101, 1000):
        cost = ph.basic_cost(z, d, r)
        bound = ph.sweep_cost_bound(z, d, r)
        worst = max(worst, cost / bound)
        if cost > bound:
            _finish("2 (sweep-cost ceiling)", False, f"violated at z={z} D={d} r={r}", t0, 60)
        assert_calculator_matches(cost, z, "0" * z, d, r)
        exact += 1
    _finish(
        "2 (sweep-cost ceiling)",
        True,
        f"1000 samples within 138-bound (max ratio {worst:.3f}); {exact} exact materializations",
        t0,
        60,
    )


def test_criterion_3_correctness_by_regime():
    t0 = time.time()
    rng = np.random.default_rng(303)
    checked = {"small": 0, "medium": 0, "large": 0, "universal": 0}

    for _ in range(500):  # small vision, r <= 1
        d = 10.0 ** rng.uniform(math.log10(1.5), math.log10(64.0))
        r = 2.0 ** rng.uniform(-5, 0)
        z = int(rng.integers(0, 11))
        dist = rng.uniform(0.0, d)
        q = _placement(rng, dist)
        if dist == 0.0:
            continue
        w = ph.encode_advice((0, 0), q, z)
        cap = 1e4 * ph.bound_for("small", z, d, r, 0.5, 20)
        out = ph.run(ph.small_vision(z, w), q, r, cap)
        if not out.found:
            _finish("3 (regime correctness)", False, f"small missed {q} z={z} r={r}", t0, 300)
        checked["small"] += 1

    for i in range(500):  # medium vision, 1 < r < 0.9 D, reduced scale steps
        s = (2, 3, 4)[i % 3]
        d = 10.0 ** rng.uniform(math.log10(2.5), math.log10(80.0))
        r = 10.0 ** rng.uniform(math.log10(1.5), math.log10(0.899 * d)) if 0.899 * d > 1.5 else 1.5
        r = min(max(r, 1.01), 0.899 * d)
        z = int(rng.integers(0, 7))
        dist = rng.uniform(0.0, d)
        q = _placement(rng, dist)
        if dist == 0.0:
            continue
        w = ph.encode_advice((0, 0), q, z)
        cap = 1e4 * ph.bound_for("medium", z, d, r, 0.5, s)
        out = ph.run(ph.medium_vision(z, w, 0.5, s), q, r, cap)
        if not out.found:
            _finish("3 (regime correctness)", False, f"medium missed {q} z={z} r={r} s={s}", t0, 300)
        checked["medium"] += 1

    for _ in range(500):  # large vision, r >= 0.9 D
        d = 10.0 ** rng.uniform(math.log10(9.0), math.log10(400.0))
        r = rng.uniform(0.9 * d, d - 5.0 / 6.0)
        dist = rng.uniform(0.0, d)
        q = _placement(rng, dist)
        if dist == 0.0:
            continue
        cap = 1e4 * ph.bound_for("large", 0, d, r, 0.5, 20)
        out = ph.run(ph.large_vision(), q, r, cap)
        if not out.found:
            _finish("3 (regime correctness)", False, f"large missed {q} r={r} D={d}", t0, 300)
        checked["large"] += 1

    for i in range(200):  # universal across all regimes
        regime = ("small", "medium", "large")[i % 3]
        if regime == "small":
            d = 10.0 ** rng.uniform(math.log10(2.0), math.log10(24.0))
            r = 2.0 ** rng.uniform(-3, 0)
        elif regime == "medium":
            d = 10.0 ** rng.uniform(math.log10(4.0), math.log10(32.0))
            r = 10.0 ** rng.uniform(math.log10(1.5), math.log10(0.899 * d))
        else:
            d = 10.0 ** rng.uniform(math.log10(9.0), math.log10(64.0))
            r = rng.uniform(0.9 * d, d - 5.0 / 6.0)
        z = int(rng.integers(0, 6))
        dist = rng.uniform(0.0, d)
        q = _placement(rng, dist)
        if dist == 0.0:
            continue
        w = ph.encode_advice((0, 0), q, z)
        cap = 1e4 * ph.bound_for("universal", z, d, r, 0.5, 3)
        out = ph.run(ph.universal(z, w, 0.5, 3), q, r, cap)
        if not out.found:
            _finish("3 (regime correctness)", False, f"universal missed {q} z={z} r={r}", t0, 300)
        checked["universal"] += 1

    _finish("3 (regime correctness)", True, f"all found: {checked}", t0, 300)


def test_criterion_4_large_vision_constant():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(500):
        d = 10.0 ** rng.uniform(math.log10(9.0), math.log10(1000.0))
        r = rng.uniform(0.9 * d, d - 5.0 / 6.0)
        dist = rng.uniform(0.0, d)
        q = _placement(rng, dist)
        out = ph.run(ph.large_vision(), q, r, 1e4 * 116.0 * (d - r))
        if not (out.found and out.cost <= 116.0 * (d - r)):
            _finish("4 (large-vision 116 constant)", False, f"violated at D={d} r={r} q={q}", t0, 30)
        worst = max(worst, out.cost / (116.0 * (d - r)))
    _finish("4 (large-vision 116 constant)", True, f"500 scenarios, max ratio {worst:.3f}", t0, 30)


def test_criterion_5_small_vision_envelope():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(300):
        d = 10.0 ** rng.uniform(math.log10(1.5), math.log10(512.0))
        r = 2.0 ** rng.uniform(-4, 0)
        z = int(rng.integers(0, 11))
        dist = rng.uniform(0.0, d)
        if dist == 0.0:
            continue
        q = _placement(rng, dist)
        w = ph.encode_advice((0, 0), q, z)
        envelope = 2.0**20 * (d + d * d / (2.0**z * r) * (math.log2(d) + math.log2(1.0 / r) + 2.0))
        out = ph.run(ph.small_vision(z, w), q, r, 1e4 * envelope)
        if not (out.found and out.cost <= envelope):
            _finish("5 (small-vision envelope)", False, f"violated at D={d} r={r} z={z}", t0, 180)
        worst = max(worst, out.cost / envelope)
    _finish("5 (small-vision envelope)", True, f"300 scenarios, max ratio {worst:.2e}", t0, 180)


def _thread_costs(z, alpha, s, columns):
    """Out-and-back fill costs along each thread, None where the guard trips."""
    c = branch_count(alpha)
    j0 = first_dot_column(c, s)
    out = {}
    for k in range(1, c + 1):
        costs = []
        for j in range(j0, j0 + columns):
            row = _dot_row(j, k, c, s)
            try:
                cost = 2.0 * ph.basic_cost(z, 2.0 ** (j * s), 2.0**row)
            except BudgetExceededError:
                cost = None
            costs.append(cost)
        out[k] = costs
    return out


def test_criterion_6_schedule_growth_laws_at_full_scale_step():
    t0 = time.time()
    s = 20
    telescoped = 0
    for z in (0, 1, 2, 3, 6):
        for alpha in (0.5, 1.0 / 3.0):
            for costs in _thread_costs(z, alpha, s, 8).values():
                for a, b in zip(costs, costs[1:]):
                    if a is None or b is None or not math.isfinite(b):
                        continue
                    if b < 2.0 * a:
                        _finish("6 (schedule growth laws, s=20)", False, f"telescoping broke z={z} a={alpha}", t0, 120)
                    telescoped += 1

    phase_checked = 0
    for z, alpha, phases in ((0, 0.5, 6), (0, 1.0 / 3.0, 6), (1, 0.5, 6), (3, 0.5, 2), (3, 1.0, 1)):
        sched = ph.medium_schedule(z, alpha, s, max_phases=phases)
        c = branch_count(alpha)
        cum = 0.0
        cum_through = {}
        for e in sched.events:
            cum += e.cost
            cum_through[e.phase] = cum
        for e in sched.events:
            if cum_through[e.phase] > 2.0 * c * 2.0 ** (2 * s) * e.cost:
                _finish("6 (schedule growth laws, s=20)", False, f"phase bound broke z={z} a={alpha}", t0, 120)
            phase_checked += 1

    rng = np.random.default_rng(606)
    special_checked = 0
    while special_checked < 80:
        d = 10.0 ** rng.uniform(math.log10(8.0), math.log10(5e5))
        r = 10.0 ** rng.uniform(math.log10(2.0), math.log10(min(0.89 * d, 1e4)))
        if not (1.0 < r < 0.9 * d) or d / r > 5e5:
            continue
        z = int(rng.integers(0, 5))
        for alpha in (0.5, 1.0 / 3.0):
            c = branch_count(alpha)
            dot = ph.special_dot(d, r, c, s)
            fill = 2.0 * ph.basic_cost(z, 2.0 ** (dot.col * s), 2.0**dot.row)
            ceiling = 2.0 ** (5 * s) * ph.basic_cost(z, d, r) * d**alpha
            if fill > ceiling:
                _finish("6 (schedule growth laws, s=20)", False, f"special-dot bound broke D={d} r={r} z={z}", t0, 120)
            special_checked += 1

    # reduced scale steps: diagnostic only (the doubling argument needs s=20)
    diagnostics = []
    for s_small in (2, 3, 4):
        broke = 0
        for z in (0, 2):
            for costs in _thread_costs(z, 0.5, s_small, 8).values():
                for a, b in zip(costs, costs[1:]):
                    if a is not None and b is not None and b < 2.0 * a:
                        broke += 1
        diagnostics.append(f"s={s_small}: {broke} telescoping misses (diagnostic)")

    _finish(
        "6 (schedule growth laws, s=20)",
        True,
        f"{telescoped} thread pairs, {phase_checked} phase-budget events, "
        f"{special_checked} special dots; {'; '.join(diagnostics)}",
        t0,
        120,
    )


def test_criterion_7_universal_overhead():
    t0 = time.time()
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(200):
        regime = ("small", "medium", "large")[i % 3]
        if regime == "small":
            d = 10.0 ** rng.uniform(math.log10(2.0), math.log10(24.0))
            r = 2.0 ** rng.uniform(-3, 0)
        elif regime == "medium":
            d = 10.0 ** rng.uniform(math.log10(4.0), math.log10(32.0))
            r = 10.0 ** rng.uniform(math.log10(1.5), math.log10(0.899 * d))
        else:
            d = 10.0 ** rng.uniform(math.log10(9.0), math.log10(48.0))
            r = rng.uniform(0.9 * d, d - 5.0 / 6.0)
        if r + 0.5 >= d:
            continue
        dist = rng.uniform(r + 0.5, d)
        q = _placement(rng, dist)
        z = int(rng.integers(0, 6))
        w = ph.encode_advice((0, 0), q, z)
        cap = 1e4 * ph.bound_for("universal", z, d, r, 0.5, 3)
        got = ph.run(ph.universal(z, w, 0.5, 3), q, r, cap)
        if not got.found:
            _finish("7 (universal 24x overhead)", False, f"universal missed at {regime} z={z}", t0, 120)
        # Components are capped at the universal cost: any component that
        # cannot find the treasure within that much trivially satisfies the
        # 24x claim, so only cheaper finds matter for the minimum.
        components = (
            ph.run(ph.small_vision(z, w), q, r, got.cost),
            ph.run(ph.medium_vision(z, w, 0.5, 3), q, r, got.cost),
            ph.run(ph.large_vision(), q, r, got.cost),
        )
        best = min((c.cost for c in components if c.found), default=math.inf)
        if got.cost > 24.0 * best + 1e-9:
            _finish("7 (universal 24x overhead)", False, f"violated at {regime} z={z} r={r}", t0, 120)
        if math.isfinite(best) and best > 0:
            worst = max(worst, got.cost / (24.0 * best))
    _finish("7 (universal 24x overhead)", True, f"200 scenarios, max ratio {worst:.3f}", t0, 120)


def test_criterion_8_lower_bound_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(808)
    worst_margin = math.inf
    for i in range(50):
        d = 10.0 ** rng.uniform(math.log10(6.0), math.log10(40.0))
        r = 10.0 ** rng.uniform(math.log10(1.6), math.log10(min(4.0, 0.45 * d)))
        z = int(rng.integers(0, 5))
        if i % 6 == 5:
            factory = lambda w: ph.universal(z, w, 0.5, 2)
            cap = 1e4 * ph.bound_for("universal", z, d, r, 0.5, 2)
        else:
            factory = lambda w: ph.medium_vision(z, w, 0.5, 2)
            cap = 1e4 * ph.bound_for("medium", z, d, r, 0.5, 2)
        point, cost = ph.adversarial_placement(factory, z, d, r, 0.9 * r, cost_cap=cap)
        floor = ph.medium_regime_lower_bound(z, d, r)
        if not (floor <= cost < cap):
            _finish("8 (lower-bound sandwich)", False, f"violated at D={d} r={r} z={z}", t0, 300)
        worst_margin = min(worst_margin, cost / floor)
    _finish("8 (lower-bound sandwich)", True, f"50 instances, min worst/floor {worst_margin:.1f}", t0, 300)


def test_criterion_9_geometric_predicates():
    t0 = time.time()
    rng = np.random.default_rng(909)
    near, far = sample_isosceles_predicate(rng, 10**5)
    if not (near < far + 1e-9).all():
        _finish("9 (triangle predicates)", False, "isosceles predicate violated", t0, 20)

    n = 10**5
    d = 10.0 ** rng.uniform(-1, 3, n)
    r = d * rng.uniform(0.9, 1.0 - 1e-9, n)
    theta = rng.uniform(0, TAU, n)
    phi = theta + math.pi / 6.0
    rx, ry = -d * np.sin(theta), d * np.cos(theta)
    vx, vy = -np.sin(phi), np.cos(phi)
    proj = rx * vx + ry * vy
    disc = proj * proj - (d * d - r * r)
    if (disc < 0).any():
        _finish("9 (triangle predicates)", False, "probe ray misses the radius circle", t0, 20)
    t = (d * d - r * r) / (proj + np.sqrt(disc))
    if not np.allclose(np.hypot(t * vx - rx, t * vy - ry), r, rtol=1e-9, atol=1e-9):
        _finish("9 (triangle predicates)", False, "constructed probe point off the circle", t0, 20)
    if not (t <= 1.2 * (d - r) + 1e-9 * np.maximum(1.0, d)).all():
        _finish("9 (triangle predicates)", False, "1.2x reach bound violated", t0, 20)
    _finish("9 (triangle predicates)", True, "2 x 100000 random configurations", t0, 20)


def test_criterion_10_multi_agent_partition():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    for k in (1, 2, 4, 5, 8):
        z = k.bit_length() - 1
        width = TAU / (1 << z)
        for _ in range(3):
            sector = int(rng.integers(0, 1 << z))
            theta = (sector + 0.5) * width
            d, r = 10.0, 0.4
            dist = rng.uniform(r + 0.5 + 3.0, d)
            q = (-dist * math.sin(theta), dist * math.cos(theta))
            cap = 1e4 * ph.bound_for("universal", z, d, r, 0.5, 3)
            w = ph.encode_advice((0, 0), q, z)
            matched = ph.run(ph.universal(z, w, 0.5, 3), q, r, cap)
            if not matched.found:
                _finish("10 (k-agent partition)", False, f"matched agent missed for k={k}", t0, 120)
            # Each agent walks until the matched agent's finish time plus a
            # step: a cheaper parallel finish would still surface, and agents
            # that have not found by then cannot lower the minimum.
            outcomes = []
            idle = 0
            for label in range(1, k + 1):
                stream = ph.multi_agent_stream(k, label, 0.5, 3)
                if stream is None:
                    idle += 1
                    continue
                outcomes.append(ph.run(stream, q, r, matched.cost + 1.0))
            if idle != k - (1 << z):
                _finish("10 (k-agent partition)", False, f"wrong idle count for k={k}", t0, 120)
            found = [o for o in outcomes if o.found]
            if not found:
                _finish("10 (k-agent partition)", False, f"treasure missed for k={k}", t0, 120)
            parallel = min(o.cost for o in found)
            if not parallel == matched.cost:
                _finish(
                    "10 (k-agent partition)",
                    False,
                    f"parallel time {parallel} != matched cost {matched.cost} for k={k}",
                    t0,
                    120,
                )
    _finish("10 (k-agent partition)", True, "k in {1,2,4,5,8}, 3 scenarios each", t0, 120)
