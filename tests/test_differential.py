"""Differential walk test: over random strategies, advice, starts, targets and
caps, ``run`` and ``adversarial_placement`` equal ``_oracles.plain_walk`` (a
walk with no reach culling and no retrace skipping, over whole built blocks)
bit for bit.  Every walk chains, spirals of many pieces with inexact vertices
(r not a power of two, or a start off the lattice of r) included.
"""

import math

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from _oracles import plain_walk
from planehunt import Point2, adversarial_placement, encode_advice, harness, run
from planehunt.sim import disc_grid_candidates, shaded_tile_candidates

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Hypothesis draws one seed per example and a numpy generator spreads it over
# the scales below: drawn directly, derandomized floats keep to a few simple
# values, and no example reaches a long spiral or a far start.
SEEDS = st.integers(0, 2**63 - 1)


def _radius(rng):
    """A power of two, or any r in [0.01, 3], log-uniform."""
    return 2.0 ** int(rng.integers(-3, 2)) if rng.random() < 0.3 else float(np.exp(rng.uniform(math.log(0.01), math.log(3.0))))


def _start(rng):
    """A start at the origin, on a small lattice, or anywhere out to 1e6."""
    kind = rng.integers(3)
    if kind == 0:
        return 0.0, 0.0
    if kind == 1:
        return float(rng.integers(-50, 51)), float(rng.integers(-50, 51))
    return tuple(float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-2, 6)) for _ in range(2))


def hunt_of(seed):
    """(strategy, z, advice, D, r, alpha, s, start, treasure, cap); the advice is the treasure's half the time."""
    rng = np.random.default_rng(seed)
    strategy = str(rng.choice(list(harness.STRATEGIES)))
    z = int(rng.integers(0, 5))
    r = _radius(rng)
    D = min(r * 2.0 ** rng.uniform(0.0, 15.0), 200.0)
    start = _start(rng)
    angle, dist = rng.uniform(0.0, math.tau), rng.uniform(0.0, 1.2) * D
    treasure = (start[0] - dist * math.sin(angle), start[1] + dist * math.cos(angle))
    own = rng.random() < 0.5 and treasure != start
    w = encode_advice(start, treasure, z) if own else "".join(rng.choice(["0", "1"], size=z))
    cap = 1e12 if strategy == "basic" else float(np.exp(rng.uniform(0.0, math.log(3000.0))))  # a basic traversal is finite
    return strategy, z, w, D, r, 0.5, int(rng.integers(2, 4)), start, treasure, cap


@SETTINGS
@given(SEEDS)
@example(269)  # a basic spiral of 20,205 instructions at r = 0.0396 from a far start: five inexact pieces
def test_run_is_plain(seed):
    strategy, z, w, D, r, alpha, s, start, treasure, cap = hunt_of(seed)
    stream = harness.build_stream(strategy, z, w, D, r, alpha, s, start)
    out = run(stream, treasure, r, cap)
    event("found" if out.found else "unfound")
    assert out == plain_walk(stream, [treasure], r, cap)[0]


def search_of(seed):
    """(strategy, z, D, r, grid_step, alpha, s, start, cap), with a few hundred candidates at most."""
    rng = np.random.default_rng(seed)
    strategy = str(rng.choice(list(harness.STRATEGIES)))
    D = rng.uniform(1.0, 6.0)
    r = rng.uniform(0.1, 0.95) * D
    grid_step = rng.uniform(min(1.0, max(0.25, D / (10.0 * r))), 1.0) * r
    cap = float(np.exp(rng.uniform(0.0, math.log(2000.0))))
    return strategy, int(rng.integers(0, 4)), D, r, grid_step, 0.5, 2, _start(rng), cap


def _plain_search(factory, z, D, r, grid_step, start, cap):
    """The worst placement from plain walks: every candidate grouped by its own advice, ties to the least."""
    p = Point2(*start)
    cands = np.concatenate([shaded_tile_candidates(D, r, p), disc_grid_candidates(D, grid_step, p)])
    cands = np.unique(cands[np.hypot(cands[:, 0] - p.x, cands[:, 1] - p.y) > 0.0], axis=0)
    groups = {}
    for q in map(tuple, cands.tolist()):
        groups.setdefault(encode_advice(p, q, z), []).append(q)
    costs = {}
    for w, targets in groups.items():
        for q, o in zip(targets, plain_walk(factory(w), targets, r, cap)):
            costs[q] = o.cost if o.found else cap
    top = max(costs.values())
    return Point2(*min(q for q, c in costs.items() if c == top)), top


@SETTINGS
@given(SEEDS)
def test_adversarial_placement_is_plain(seed):
    strategy, z, D, r, grid_step, alpha, s, start, cap = search_of(seed)

    def factory(w):
        return harness.build_stream(strategy, z, w, D, r, alpha, s, start)

    assert adversarial_placement(factory, z, D, r, grid_step, cap) == _plain_search(factory, z, D, r, grid_step, start, cap)
