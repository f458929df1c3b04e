"""The four treasure-hunt strategies and the k-agent corollary.

All strategies produce infinite TrajectoryStreams anchored at the start
point; execution is interrupted externally at first detection.

* ``small_vision`` interleaves a diagonal sweep of (range, resolution)
  hypotheses with straight probes along the sector's clockwise boundary ray,
  at exponentially growing trip lengths.
* ``medium_vision`` fills "dots" of an infinite hypothesis matrix in a
  budgeted phase order; a dot, like a sweep cell, is one (range, resolution)
  round trip of the basic traversal.
* ``large_vision`` probes 12 evenly spaced compass rays out and back at
  doubling distances; it needs no advice.
* ``universal`` round-robins the three streams at doubling trip lengths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional

import numpy as np

from .advice import AdviceString, check_advice, decode_sector, sector_advice
from .bounds import branch_count, medium_regime_lower_bound, sweep_cost_bound
from .errors import BudgetExceededError, PreconditionError, as_integer, positive_finite, positive_int
from .geom import ORIGIN, Point2, as_point, direction_of
from .traversal import (
    Block,
    RoundTrip,
    Step,
    TrajectoryStream,
    basic_cost,
    phase_trips,
    units,
)

# Column scale exponent: successive range hypotheses in the medium-vision
# matrix grow by 2**scale_step.  The default makes consecutive thread fills
# at least double in cost; small values keep desk-scale runs affordable but
# void the constant-factor guarantees.
DEFAULT_SCALE_STEP = 20

DEFAULT_ALPHA = 0.5

RAY_COUNT = 12
RAY_SPACING = math.pi / 6.0
RAY_ANGLES = tuple(i * RAY_SPACING for i in range(RAY_COUNT))


class Dot(NamedTuple):
    """A designated matrix cell: row (resolution exponent), column, thread."""

    row: int
    col: int
    thread: int

    def cell(self, s: int) -> tuple[float, float]:
        """The (range, resolution) hypothesis the dot's fill sweeps: (2**(col*s), 2**row).

        Raises BudgetExceededError once the range overflows binary64.
        """
        try:
            return 2.0 ** (self.col * s), 2.0**self.row
        except OverflowError:
            raise BudgetExceededError(f"dot range 2**{self.col * s} overflows binary64") from None


@dataclass(frozen=True)
class FillEvent:
    """One dot fill: the dot, its out-and-back cost, the phase budget, the phase."""

    dot: Dot
    cost: float
    budget: float
    phase: int


@dataclass(frozen=True)
class DotSchedule:
    """Materialized prefix of the (infinite) dot-filling order.

    ``guard_tripped`` marks schedules cut early because the next fill's exact
    cost would have exceeded the column-count guard.
    """

    events: tuple[FillEvent, ...]
    guard_tripped: bool = False


def first_dot_column(c: int, s: int) -> int:
    """Smallest column index whose length (col * s) holds c dots."""
    return max(1, -(-c // s))


def dots_of_column(j: int, c: int, s: int) -> List[Dot]:
    """The c dots of column j: lowest rows of its partition into c runs.

    The column's j*s rows split into c contiguous runs, the first p of length
    floor(j*s/c) and the remaining q of length ceil(j*s/c), where q = j*s mod c.
    """
    c, j, s = positive_int("dot count", c), positive_int("column", j), positive_int("scale step", s)
    rows = j * s
    if rows < c:
        raise PreconditionError(f"column {j} has {rows} rows, fewer than {c} dots")
    return [Dot(row=_dot_row(j, k, c, s), col=j, thread=k) for k in range(1, c + 1)]


def _dot_row(j: int, k: int, c: int, s: int) -> int:
    """Lowest row of run k (1-based) when column j's j*s rows split into c runs."""
    rows = j * s
    x = rows // c
    q = rows % c
    p = c - q
    if k <= p:
        return (k - 1) * x + 1
    return p * x + (k - 1 - p) * (x + 1) + 1


def fill_events(z: int, alpha: float, s: int = DEFAULT_SCALE_STEP) -> Iterator[FillEvent]:
    """The infinite dot-filling order, one event per fill.

    Each phase opens by filling the next dot of the top thread and granting
    every fill of the phase that dot's budget; lower threads then fill
    consecutive dots while their out-and-back cost stays within budget.
    Costs are exact basic_cost values; ties with the budget fill the dot.
    """
    s = positive_int("scale step", s)
    c = branch_count(alpha)
    j0 = first_dot_column(c, s)
    cursor = {}  # thread -> next column; a thread not yet here starts at j0, so no c-entry table is built up front
    phase = 1
    while True:
        col = cursor.get(c, j0)
        dot = Dot(_dot_row(col, c, c, s), col, c)
        cell = dot.cell(s)
        budget = 2.0 * sweep_cost_bound(z, *cell)  # twice the opening cell's sweep ceiling
        yield FillEvent(dot, 2.0 * basic_cost(z, *cell), budget, phase)
        cursor[c] = col + 1
        for k in range(c - 1, 0, -1):
            while True:
                jc = cursor.get(k, j0)
                dot = Dot(_dot_row(jc, k, c, s), jc, k)
                cell = dot.cell(s)
                # A lower-thread row is at most col * s - 1, so r <= D / 2 and the medium-regime floor holds:
                # a fill whose floor alone exceeds the budget is refused without costing its columns.
                if 2.0 * medium_regime_lower_bound(z, *cell) > budget:
                    break
                cost = 2.0 * basic_cost(z, *cell)
                if cost <= budget:
                    yield FillEvent(dot, cost, budget, phase)
                    cursor[k] = jc + 1
                else:
                    break
        phase += 1


def medium_schedule(z: int, alpha: float, s: int = DEFAULT_SCALE_STEP, max_phases: int = 8) -> DotSchedule:
    """Materialize the dot-filling order through ``max_phases`` phases.

    When the next fill's exact cost would exceed the column guard (full-size
    scale steps push ranges past 2**40 within a couple of phases), the
    schedule returned holds everything computed so far and is flagged
    ``guard_tripped``; streaming consumers see the raised guard instead.
    """
    max_phases = positive_int("max_phases", max_phases)
    events: List[FillEvent] = []
    tripped = False
    try:
        for ev in fill_events(z, alpha, s):
            if ev.phase > max_phases:
                break
            events.append(ev)
    except BudgetExceededError:
        tripped = True
    return DotSchedule(tuple(events), tripped)


def special_dot(D: float, r: float, c: int, s: int) -> Dot:
    """The dot whose fill is guaranteed to reveal a treasure at range D, vision r.

    Column: smallest j with 2**(j*s) >= D among those that hold c dots.  Row:
    the largest dot row not above the largest integer i with 2**i <= r.
    Raises when no dot row qualifies, which happens exactly for r < 2 (the
    matrix has no finer resolution row), and raises BudgetExceededError when
    the column's range 2**(j*s) overflows binary64.
    """
    D, r = positive_finite("range bound", D), positive_finite("vision radius", r)
    c, s = positive_int("dot count", c), positive_int("scale step", s)
    if not 1.0 < r < D:
        raise PreconditionError("special dot needs 1 < r < D < inf")
    mantissa, exponent = math.frexp(D)
    k = exponent - 1 if mantissa == 0.5 else exponent  # smallest integer with 2**k >= D
    j = max(first_dot_column(c, s), -(-k // s))
    mantissa, exponent = math.frexp(r)
    i = exponent - 1  # largest integer with 2**i <= r
    candidates = [d for d in dots_of_column(j, c, s) if d.row <= i]
    if not candidates:
        raise PreconditionError(f"column {j} has no dot row at or below {i} (r = {r})")
    dot = max(candidates, key=lambda d: d.row)
    dot.cell(s)  # the range must exist in binary64
    return dot


# ---------------------------------------------------------------------------
# Strategy streams
# ---------------------------------------------------------------------------


def _ray_blocks(start: Point2, angle: float) -> Iterator[Block]:
    """An endless straight probe along one compass ray, in doubling pieces."""
    ux, uy = direction_of(angle)
    reached = 0.0
    step = 1.0
    prev = np.array([start.x, start.y])
    while True:
        tip = np.array([start.x + (reached + step) * ux, start.y + (reached + step) * uy])
        yield Block.of(np.stack([prev, tip]), np.array([step]))
        prev = tip
        reached += step
        step *= 2.0


def _round_trips(z: int, w: AdviceString, start, cells: Callable[[], Iterable[tuple[float, float]]]) -> TrajectoryStream:
    """The basic traversal out and back for each (range, resolution) of a fresh ``cells()``.

    A cell of more than one piece is one ``RoundTrip`` step, which the walker
    can fold without building it; a cell of one piece is its two blocks.
    """
    z = check_advice(z, w)
    p = as_point(start)

    def gen() -> Iterator[Step]:
        for D, r in cells():
            trip = RoundTrip(z, w, D, r, p)
            if trip.pieces > 1:
                yield trip
            else:
                yield from trip.blocks()

    return TrajectoryStream(p, gen)


def hypothesis_sweep(z: int, w: AdviceString, start=ORIGIN) -> TrajectoryStream:
    """The bare diagonal hypothesis sweep (the small-vision workhorse).

    An infinite concatenation of out-and-back basic traversals: cell (row, col)
    runs the basic traversal for range 2**row at resolution 2**-col and
    retraces it, so every prefix returns to the start.  Diagonal i holds rows
    i down to 1 with even columns 2 up to 2i.
    """
    return _round_trips(z, w, start, lambda: ((2.0 ** (i - t), 2.0 ** -(2 + 2 * t)) for i in itertools.count(1) for t in range(i)))


def small_vision(z: int, w: AdviceString, start=ORIGIN) -> TrajectoryStream:
    """Strategy for small vision radii (r <= 1).

    With aimable advice (z >= 2) it alternates, per phase p, a 2**p trip along
    the hypothesis sweep with a 2**p probe along the sector's clockwise
    boundary ray, backtracking after each (``phase_trips`` walks each one
    once); otherwise it follows the sweep alone.
    """
    z = check_advice(z, w)
    p = as_point(start)
    if z <= 1:
        return hypothesis_sweep(z, w, p)
    sector = decode_sector(w, p)
    components = (
        hypothesis_sweep(z, w, p),
        TrajectoryStream(p, lambda: _ray_blocks(p, sector.cw_ray_angle)),
    )
    return TrajectoryStream(p, lambda: phase_trips(components, (2.0**k for k in itertools.count(1))))


def medium_vision(z: int, w: AdviceString, alpha: float = DEFAULT_ALPHA, s: int = DEFAULT_SCALE_STEP, start=ORIGIN) -> TrajectoryStream:
    """Strategy for medium vision radii (1 < r < 0.9 D): budgeted dot filling.

    Emits, in fill order, the basic traversal of each filled dot walked out
    and back; ``FillEvent.cost`` is the exact length each fill walks, twice
    its one-way ``basic_cost``, rounded once.
    """
    s = positive_int("scale step", s)
    return _round_trips(z, w, start, lambda: (ev.dot.cell(s) for ev in fill_events(z, alpha, s)))


def large_vision(start=ORIGIN) -> TrajectoryStream:
    """Strategy for large vision radii (r >= 0.9 D): 12-ray doubling probes.

    Round j walks each of the rays at angles i*pi/6 (i = 0..11, ccw from
    North) out to 2**j and back, costing exactly 24 * 2**j.
    """
    p = as_point(start)
    heads = [direction_of(a) for a in RAY_ANGLES]

    def gen() -> Iterator[Block]:
        j = 1
        while True:
            d = 2.0**j
            pts = np.empty((2 * RAY_COUNT + 1, 2))
            pts[0] = (p.x, p.y)
            for i, (ux, uy) in enumerate(heads):
                pts[2 * i + 1] = (p.x + d * ux, p.y + d * uy)
                pts[2 * i + 2] = (p.x, p.y)
            yield Block(pts, np.full(2 * RAY_COUNT, d), False, 2 * RAY_COUNT * units(d))  # Block.of's exact sum
            j += 1

    return TrajectoryStream(p, gen)


def universal(z: int, w: AdviceString, alpha: float = DEFAULT_ALPHA, s: int = DEFAULT_SCALE_STEP, start=ORIGIN) -> TrajectoryStream:
    """Regime-oblivious strategy: small, medium, and large streams round-robin.

    Phase p walks 2**p out and back along each component stream (from its
    beginning; ``phase_trips`` walks each one once), costing exactly
    6 * 2**p; a treasure any single component would find at cost x is found
    at cost at most 24 x.
    """
    z = check_advice(z, w)
    p = as_point(start)
    components = (small_vision(z, w, p), medium_vision(z, w, alpha, s, p), large_vision(p))
    return TrajectoryStream(p, lambda: phase_trips(components, (2.0**k for k in itertools.count(1))))


def multi_agent_stream(k: int, label: int, alpha: float = DEFAULT_ALPHA, s: int = DEFAULT_SCALE_STEP, start=ORIGIN) -> Optional[TrajectoryStream]:
    """Trajectory of one of k collocated agents, or None when the agent idles.

    With z = floor(log2 k), agents labeled 1..2**z each run the universal
    strategy as if advised their own sector (label - 1); the rest stay idle.
    """
    k = positive_int("agent count", k)
    if not 1 <= (label := as_integer(label) or 0) <= k:
        raise PreconditionError(f"label must lie in [1, {k}]")
    z = k.bit_length() - 1
    if label > (1 << z):
        return None
    return universal(z, sector_advice(label - 1, z), alpha, s, start)
