"""Far spans of a basic traversal fold whole.

A basic traversal's ``steps()`` give its way out as one ``RoundTrip`` unit.
With one live target, the walker splits it (``RoundTrip.split``): the blocks
before those the target can see fold from counts, those blocks are walked as
any others, and the blocks after them fold.  These tests check that walk
against ``plain_walk``, which builds every block and tests it against the
target, bit for bit in cost, detection point and segment count: for targets
just inside and just outside reach of each piece boundary and each ring or
column edge there, starts far from the origin, caps in each of the three
spans, and targets beyond the range.  They also check that a folded span
makes no piece, and that the overflow reading of a far target holds.
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

import planehunt.sim as sim
import planehunt.traversal as traversal
from _oracles import plain_walk
from planehunt import RoundTrip, TileFrame, basic_traversal, decode_sector, run, spiral
from planehunt.tiling import STREAM_CHUNK

# (z, advice, D, tile size r, vision radius, start): spirals and sweeps of three or more
# pieces, dyadic and non-dyadic r, starts with coordinates from 1e4 to 1e6.
CELLS = [
    (0, "", 1200.0, 0.5, 0.5, (1.0e4, -2.5e4)),
    (1, "1", 1100.0, 0.3, 0.3, (-3.0e5, 7.0e5)),
    (0, "", 350.0, 0.07, 0.05, (1.0e6, 1.0e6)),
    (3, "011", 6000.0, 0.6, 0.6, (-1.0e4, 2.0e4)),
    (2, "10", 700.0, 0.07, 0.07, (4.0e5, -1.0e6)),
    (4, "1101", 2500.0, 0.25, 0.2, (1.0e6, -3.0e5)),
]
IDS = [f"z{z} D{D:g} r{r:g} at {s[0]:g},{s[1]:g}" for z, _, D, r, _, s in CELLS]


def _unit(z, w, D, r, start):
    (unit,) = basic_traversal(z, w, D, r, start).steps()
    assert unit.__class__ is RoundTrip and unit.one_way and unit.pieces >= 3
    return unit


def _cull(r, q):
    """The walker's reach function for the lone target q."""
    return lambda scale: sim._cull_radius(r, max(scale, abs(q[0]), abs(q[1])))


def _targets(z, w, D, r, vision, start):
    """Targets just inside and just outside reach of the ring (spiral) or column (sweep)
    edges about each piece boundary, and targets beyond the range."""
    unit = _unit(z, w, D, r, start)
    sx, sy = start
    k = math.ceil(D / r)
    if z <= 1:
        scale = traversal._spiral_scale(unit.start, r, 4 * k + 1)
    else:
        sector = decode_sector(w, unit.start)
        frame = TileFrame(sector.apex, sector.cw_ray_angle, r)
        scale = traversal._sweep_scale(frame, D, r)
    reach = vision + 1e-9 * scale
    eta = 1e-12 * scale  # far above the rounding of the rule, far below reach
    out = []
    for j in range(1, unit.pieces):
        if z <= 1:
            ring = (j * STREAM_CHUNK + 3) // 4  # the ring of the piece's first instruction
            for c in (ring - 1, ring, ring + 1):
                for d in (c * r - reach, c * r + reach, (c + 1) * r - reach, (c + 1) * r + reach):
                    for sign in (-1.0, 1.0):
                        # On each side of the square, at a point along it the spiral can reach.
                        along = 0.37 * d
                        dd = d + sign * eta
                        out += [(sx + dd, sy + along), (sx - along, sy - dd)]
        else:
            u = j * STREAM_CHUNK  # the piece's first column
            heights = traversal.column_heights(sector.wedge_angle, D, r, u - 1, u + 2)
            for col, h in zip((u - 1, u, u + 1), heights.tolist()):
                for fx in ((col - 0.5) * r - reach, (col + 0.5) * r + reach):
                    for sign in (-1.0, 1.0):
                        f = np.array([[fx + sign * eta, fy] for fy in (0.5 * h * r, (h + 0.5) * r + reach - 2.0 * eta)])
                        out += [tuple(p) for p in frame.to_world(f).tolist()]
    # Beyond the range: just past the spiral's last ring or the sweep's last column, where the
    # unit is in sight but no block is near, and out of the unit's sight.
    if z <= 1:
        out.append((sx + (k + 1) * r + reach + eta, sy - 0.5 * D))
    else:
        out += [tuple(p) for p in frame.to_world(np.array([[(k + 0.5) * r + reach + eta, 0.1 * r]])).tolist()]
    beyond = math.sqrt(2.0) * (D + 2.0 * r) + 3.0 * reach
    out += [(sx + beyond, sy - beyond), (sx - 0.6 * beyond, sy + 0.8 * beyond)]
    return unit, out


def _caps(unit, q, vision):
    """Caps halfway through each span of the unit's split about q, and one past its end."""
    head, near, tail = unit.split(q[0], q[1], _cull(vision, q))
    caps, walked = {}, 0
    for name, part in (("head", head), ("near", near), ("tail", tail)):
        if part is not None:
            total = part.count()[0]
            caps[name] = traversal.rounded(walked + total // 2)
            walked += total
    caps["end"] = 1e12
    return caps, (head, near, tail)


@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_far_span_folds_walk_as_the_plain_walk(cell, monkeypatch):
    z, w, D, r, vision, start = cell
    unit, targets = _targets(*cell[:4], vision, start)
    made = Counter()
    maker = traversal._spiral_piece if z <= 1 else traversal._sweep_piece
    name = "_spiral_piece" if z <= 1 else "_sweep_piece"
    monkeypatch.setattr(traversal, name, lambda *args: made.update(["piece"]) or maker(*args))
    seen, found, unfound = Counter(), 0, 0
    for q in targets:
        caps, (head, near, tail) = _caps(unit, q, vision)
        for where, cap in caps.items():
            made.clear()
            out = run(basic_traversal(z, w, D, r, start), q, vision, cap)
            with monkeypatch.context() as plain:
                plain.setattr(traversal, name, maker)
                assert [out] == plain_walk(basic_traversal(z, w, D, r, start), [q], vision, cap), (q, where)
            seen[where] += 1
            if where == "end":
                found += out.found
                unfound += not out.found
                # Only the blocks the target can see are built.
                assert made["piece"] <= (0 if near is None else near._run[1] - near._run[0])
    assert seen["head"] and seen["near"] and seen["tail"] and found and unfound


@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_the_split_keeps_every_segment_each_piece_keeps(cell):
    """The middle run holds every segment a piece's own ``near`` keeps; the spans around it hold none."""
    z, w, D, r, vision, start = cell
    unit, targets = _targets(*cell[:4], vision, start)
    blocks = list(unit.blocks())
    for q in targets:
        parts = unit.split(q[0], q[1], _cull(vision, q))
        runs = [part._run for part in parts if part is not None]
        assert [a for a, _ in runs] == [0] + [b for _, b in runs[:-1]] and runs[-1][1] == unit.pieces
        head, near, _ = parts
        lo = 0 if head is None else head._run[1]
        hi = lo if near is None else near._run[1]
        for j, block in enumerate(blocks):
            piece = block.path
            keeps = piece.near(q[0], q[1], sim._cull_radius(vision, max(piece.scale, abs(q[0]), abs(q[1]))))
            assert keeps is None or lo <= j < hi, (q, j)


def test_counts_are_the_fold_added_up():
    for z, w, D, r, _, start in CELLS:
        unit = _unit(z, w, D, r, start)
        blocks = list(unit.blocks())
        for lo in range(unit.pieces):
            for hi in range(lo + 1, unit.pieces + 1):
                part = unit._part(lo, hi)
                assert part.count() == (sum(b.total for b in blocks[lo:hi]), sum(b.lengths.size for b in blocks[lo:hi]))
        unit.fold()  # made: the count reads it
        assert unit.count() == (sum(b.total for b in blocks), sum(b.lengths.size for b in blocks))


def test_a_far_finite_treasure_is_unfound_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run(spiral(4.0, 1.0), (1.7e308, -1.7e308), 0.5, 100.0)
        assert not out.found and out.cost == 81.0
        unit = _unit(0, "", 1200.0, 0.5, (-1.0e308, 0.0))
        for q in ((1.7e308, 0.0), (1.7e308, -1.7e308), (-1.0e308, 1.7e308)):
            assert unit.split(q[0], q[1], _cull(0.5, q))[1] is None
        sweep = _unit(3, "011", 6000.0, 0.6, (-1.0e308, 0.0))
        for q in ((1.7e308, -1.7e308), (-1.7e308, 1.7e308), (1.7e308, 1.7e308)):
            assert sweep.split(q[0], q[1], _cull(0.6, q))[1] is None
            assert not run(basic_traversal(3, "011", 6000.0, 0.6, (-1.0e308, 0.0)), q, 0.6, 1e9).found


def test_several_live_targets_walk_every_block():
    """With two live targets the unit is walked block by block, as before units."""
    z, w, D, r, vision, start = CELLS[3]
    unit, targets = _targets(z, w, D, r, vision, start)
    qs = np.array(targets[:2] + targets[-2:])
    walk = sim._walk(basic_traversal(z, w, D, r, start), qs, vision, 1e12)
    for i, out in enumerate(plain_walk(basic_traversal(z, w, D, r, start), qs, vision, 1e12)):
        assert (walk.found[i], walk.cost[i], walk.segments[i]) == (out.found, out.cost, out.segments_executed)
