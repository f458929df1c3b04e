"""Experiment surface: reproducible parameter sweeps, CSV output, SVG rendering.

Sweep configs are flat ``key = value`` text with one ``[sweep]`` section so any
language can parse them.  Random placements come from a documented 64-bit
linear congruential generator (state' = 6364136223846793005 * state +
1442695040888963407 mod 2^64; uniforms take the top 53 bits), consumed in row
order, so identical config + seed reproduces byte-identical CSV everywhere.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import sim
from .advice import check_advice, encode_advice, sector_advice
from .bounds import LARGE_COST_FACTOR, UNIVERSAL_FACTOR, medium_ceiling, regime_of, small_ceiling, sweep_cost_bound
from .errors import BudgetExceededError, PreconditionError, positive_finite, positive_int
from .geom import ORIGIN, Point2, Polyline, as_point, direction_of
from .sim import DEFAULT_CAP_MULTIPLIER, run
from .strategies import (
    DEFAULT_ALPHA,
    DEFAULT_SCALE_STEP,
    large_vision,
    medium_vision,
    small_vision,
    universal,
)
from .tiling import TileFrame
from .traversal import TrajectoryStream, _budgeted, basic_traversal, blocks_to_polyline, prefix_blocks

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1

MAX_RENDER_SEGMENTS = 10**5


class Lcg64:
    """The documented 64-bit LCG; uniforms are (state >> 11) / 2^53."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (LCG_MULT * self.state + LCG_INC) & _MASK64
        return self.state

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


# name: (stream builder, ceiling, the names of the builder's parameters: the values its stream reads).
# The ceiling takes keyword arguments; hunts whose builders read equal values walk one stream.
STRATEGIES = {
    "small": (small_vision, lambda z, D, r, **_: small_ceiling(z, D, r), ("z", "w", "start")),
    "medium": (medium_vision, medium_ceiling, ("z", "w", "alpha", "s", "start")),
    "large": (large_vision, lambda D, r, **_: LARGE_COST_FACTOR * (D - r), ("start",)),
    "universal": (
        universal,
        lambda z, D, r, alpha, s: UNIVERSAL_FACTOR * bound_for(regime_of(D, r), z, D, r, alpha, s),
        ("z", "w", "alpha", "s", "start"),
    ),
    "basic": (basic_traversal, lambda z, D, r, **_: sweep_cost_bound(z, D, r), ("z", "w", "D", "r", "start")),
}


def _strategy(name: str):
    """The ``STRATEGIES`` row of a name; the one place an unknown name is refused."""
    if not isinstance(name, str) or name not in STRATEGIES:
        raise PreconditionError(f"unknown strategy {name!r}; pick one of {tuple(STRATEGIES)}")
    return STRATEGIES[name]


def _stream_args(strategy: str, z: int, w: str, D: float, r: float, alpha: float, s: int, start) -> dict:
    """The keyword arguments of the strategy's stream builder: the values its stream reads."""
    values = {"z": z, "w": w, "D": D, "r": r, "alpha": alpha, "s": s, "start": start}
    return {name: values[name] for name in _strategy(strategy)[2]}


def build_stream(strategy: str, z: int, w: str, D: float, r: float, alpha: float, s: int, start=ORIGIN) -> TrajectoryStream:
    return _strategy(strategy)[0](**_stream_args(strategy, z, w, D, r, alpha, s, start))


def bound_for(strategy: str, z: int, D: float, r: float, alpha: float, s: int) -> float:
    """The documented cost ceiling the sweep's ratio column is measured against."""
    z = check_advice(z)
    return _strategy(strategy)[1](z=z, D=D, r=r, alpha=alpha, s=s)


def _setup(strategy: str, z: int, D: float, r: float, alpha: float, s: int, cap_mult: float, start=ORIGIN):
    """``(z, D, r, alpha, s)`` as their rules read them, the ceiling, the cost cap (``cap_mult`` times the larger
    of ceiling and D) and the stream per advice; each parameter's rule runs first, whatever the strategy reads."""
    D, r, alpha = positive_finite("range bound", D), positive_finite("vision radius", r), positive_finite("alpha", alpha)
    s, cap_mult, z = positive_int("scale step", s), positive_finite("cost cap multiplier", cap_mult), check_advice(z)
    ceiling = bound_for(strategy, z, D, r, alpha, s)
    return (z, D, r, alpha, s), ceiling, cap_mult * max(ceiling, D), lambda w: build_stream(strategy, z, w, D, r, alpha, s, start)


def _plan(strategy: str, z: int, D: float, r: float, alpha: float, s: int, cap_mult: float, start, treasure):
    """One hunt up to its walk: ``(key, advice, ceiling, cap, build)``. A treasure at the start takes sector 0's
    advice; ``build()`` builds the stream, and ``key`` holds the values it reads, so hunts of one key walk one stream."""
    (z, D, r, alpha, s), ceiling, cap, stream_for = _setup(strategy, z, D, r, alpha, s, cap_mult, start)
    w = sector_advice(0, z) if as_point(start) == as_point(treasure) else encode_advice(start, treasure, z)
    key = tuple(_stream_args(strategy, z, w, D, r, alpha, s, as_point(start)).values())
    return key, w, ceiling, cap, partial(stream_for, w)


def hunt(strategy: str, z: int, D: float, r: float, alpha: float, s: int, cap_mult: float, start, treasure):
    """One hunt from ``start``, set up as a sweep row is, a treasure at the start too: ``(advice, ceiling, RunOutcome)``."""
    _, w, ceiling, cap, build = _plan(strategy, z, D, r, alpha, s, cap_mult, start, treasure)
    return w, ceiling, run(build(), treasure, r, cap)


def worst_placement(strategy: str, z: int, D: float, r: float, alpha: float, s: int, cap_mult: float, grid_step: float):
    """Brute-force worst placement from the origin: ``(ceiling, cap, point, cost)``."""
    (z, D, r, _, _), ceiling, cap, stream_for = _setup(strategy, z, D, r, alpha, s, cap_mult)
    point, cost = sim.adversarial_placement(stream_for, z, D, r, grid_step, cost_cap=cap)
    return ceiling, cap, point, cost


@dataclass(frozen=True)
class ExperimentConfig:
    strategy: str
    z_values: tuple[int, ...]
    d_values: tuple[float, ...]
    r_values: tuple[float, ...]
    alpha: float
    s: int
    placement: str  # "explicit" | "random" | "adversarial"
    treasure: Optional[Point2]
    seed: int
    grid_step: Optional[float]
    cap_mult: float
    output: str


@dataclass(frozen=True)
class SweepRow:
    strategy: str
    z: int
    D: float
    r: float
    alpha: float
    s: int
    seed: int
    actual_distance: float
    found: bool
    cost: float
    bound: float
    ratio: float


def _parse_values(text: str) -> List[str]:
    return text.replace(",", " ").split()


def _parse_float_list(name: str, text: str) -> tuple[float, ...]:
    """The values of ``list v ...``, bare ``v ...`` or ``logspace lo hi count``;
    each value, and each logspace bound, must pass ``positive_finite(name, ...)``."""
    parts = _parse_values(text)
    if parts and parts[0] == "logspace":
        if len(parts) != 4:
            raise PreconditionError("logspace needs <lo> <hi> <count>")
        lo, hi = positive_finite(name, parts[1]), positive_finite(name, parts[2])
        count = positive_int("logspace count", parts[3])
        ratio = (hi / lo) ** (1.0 / (count - 1)) if count > 1 else 1.0
        parts = [lo * ratio**i for i in range(count)]  # hi / lo may overflow
    elif parts and parts[0] == "list":
        parts = parts[1:]
    if not parts:
        raise PreconditionError("empty value list")
    return tuple(positive_finite(name, p) for p in parts)


_CONFIG_KEYS = ("strategy", "z", "d", "r", "alpha", "s", "cap_mult", "placement", "output")


def _parse_placement(text: str) -> tuple[str, Optional[Point2], int, Optional[float]]:
    """``(mode, treasure, seed, grid_step)`` of a placement value."""
    mode, *args = _parse_values(text) or [""]
    mode = mode.lower()
    if len(args) != {"explicit": 2, "random": 1, "adversarial": 1}.get(mode):
        raise PreconditionError("placement must be explicit x y | random seed | adversarial step")
    if mode == "explicit":
        return mode, as_point(args), 0, None
    if mode == "random":
        return mode, None, int(args[0]), None
    return mode, None, 0, positive_finite("grid step", args[0])


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config (one [sweep] section).

    An unknown key, a repeated key, a malformed number, and a value outside its
    parameter's rule (``check_advice`` for each z value; ``positive_finite`` for each
    D and r value, a logspace bound, alpha, cap_mult and the grid step; ``positive_int``
    for s) are refused with a PreconditionError that names the line and the key.
    """
    section = None
    fields: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise PreconditionError(f"config line {lineno}: expected key = value")
        if section != "sweep":
            raise PreconditionError(f"config line {lineno}: keys must live in a [sweep] section")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise PreconditionError(f"config line {lineno}: unknown key {key!r}; pick from {_CONFIG_KEYS}")
        if key in fields:
            raise PreconditionError(f"config line {lineno}: key {key!r} repeats line {fields[key][0]}")
        fields[key] = (lineno, value.strip())

    def read(key: str, parse, default=None):
        if key not in fields and default is None:
            raise PreconditionError(f"config is missing required key {key!r}")
        lineno, value = fields.get(key, (None, default))
        try:
            return parse(value)
        except ValueError as exc:  # a malformed number, or a PreconditionError of the value
            raise PreconditionError(f"config line {lineno}: {key} = {value}: {exc}") from None

    strategy = read("strategy", str.lower)
    _strategy(strategy)
    z_values = read("z", lambda text: tuple(check_advice(v) for v in _parse_values(text) or [""]))
    d_values = read("d", partial(_parse_float_list, "range bound"))
    r_values = read("r", partial(_parse_float_list, "vision radius"))
    alpha = read("alpha", partial(positive_finite, "alpha"), DEFAULT_ALPHA)
    s = read("s", partial(positive_int, "scale step"), DEFAULT_SCALE_STEP)
    cap_mult = read("cap_mult", partial(positive_finite, "cost cap multiplier"), DEFAULT_CAP_MULTIPLIER)
    placement, treasure, seed, grid_step = read("placement", _parse_placement)
    return ExperimentConfig(
        strategy=strategy, z_values=z_values, d_values=d_values, r_values=r_values, alpha=alpha, s=s,
        placement=placement, treasure=treasure, seed=seed, grid_step=grid_step, cap_mult=cap_mult,
        output=read("output", str, "sweep.csv"),
    )


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def _random_placement(rng: Lcg64, D: float) -> Point2:
    theta = math.tau * rng.next_float()
    d = D * math.sqrt(rng.next_float())
    ux, uy = direction_of(theta)
    return Point2(d * ux, d * uy)


def sweep(config: ExperimentConfig) -> List[SweepRow]:
    """One SweepRow per (z, D, r), in deterministic iteration order; every cell is read and checked before the
    first runs, and runs on ``(z, D, r, alpha, s)`` as the rules read them.

    Every random placement is drawn, in row order, before the first row runs. Rows whose streams read equal
    values (``_plan``'s key) share one stream: it is built for the key's first row, and a key of several rows
    keeps its steps in one tee that each of them re-reads, dropped with the key's last row. Each row still
    walks alone, in row order, with its own treasure, r and cap, so every cost and error is the row-by-row one.
    """
    cells = []
    for cell in itertools.product(config.z_values, config.d_values, config.r_values):
        _, D, r, _, _ = read = _setup(config.strategy, *cell, config.alpha, config.s, config.cap_mult)[0]
        if not r <= D:
            raise PreconditionError(f"sweep cell needs r <= D, got D={D} r={r}")
        cells.append(read)
    if config.placement == "adversarial":
        rows = []
        for z, D, r, alpha, s in cells:
            bound, cap, point, cost = worst_placement(config.strategy, z, D, r, alpha, s, config.cap_mult, config.grid_step)
            rows.append(_row(config, z, D, r, alpha, s, point, cost < cap, cost, bound))
        return rows
    rng = Lcg64(config.seed)
    points = [config.treasure if config.placement == "explicit" else _random_placement(rng, D) for _, D, *_ in cells]
    plans = [_plan(config.strategy, *cell, config.cap_mult, ORIGIN, point) for cell, point in zip(cells, points)]
    left = Counter(key for key, *_ in plans)  # per key, its rows still to run
    shared = {}  # per key with rows still to run, its stream
    rows = []
    for (key, _, bound, cap, build), (z, D, r, alpha, s), point in zip(plans, cells, points):
        if key not in shared:
            shared[key] = build()
            if left[key] > 1:  # each of its rows re-reads one tee of its steps
                shared[key] = TrajectoryStream(shared[key].start, itertools.tee(shared[key].steps(), 1)[0].__copy__)
        left[key] -= 1
        outcome = run(shared[key] if left[key] else shared.pop(key), point, r, cap)
        rows.append(_row(config, z, D, r, alpha, s, point, outcome.found, outcome.cost, bound))
    return rows


def _row(config: ExperimentConfig, z: int, D: float, r: float, alpha: float, s: int, point, found, cost, bound) -> SweepRow:
    return SweepRow(
        strategy=config.strategy,
        z=z,
        D=D,
        r=r,
        alpha=alpha,
        s=s,
        seed=config.seed,
        actual_distance=ORIGIN.distance_to(point),
        found=found,
        cost=cost,
        bound=bound,
        ratio=cost / bound if bound > 0 else math.inf,
    )


# Each CSV column is a SweepRow field, formatted by its declared type (an annotation string).
_FORMATS = {"bool": lambda v: "true" if v else "false", "float": lambda v: format(float(v), ".17g")}
_COLUMNS = tuple((f.name, _FORMATS.get(f.type, str)) for f in fields(SweepRow))
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(fmt(getattr(row, name)) for name, fmt in _COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[SweepRow], path) -> None:
    Path(path).write_text(rows_to_csv(rows))


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def render_prefix(stream: TrajectoryStream, arc: float) -> Polyline:
    """The leading ``arc`` of a stream, cut as ``stream.prefix`` cuts it, pulled only up to the render guard."""
    return blocks_to_polyline(prefix_blocks(_budgeted(stream.blocks(), MAX_RENDER_SEGMENTS), arc), stream.start)


def render_svg(
    trajectory: Polyline,
    out_path=None,
    *,
    treasure=None,
    vision_radius: Optional[float] = None,
    sector=None,
    disc_radius: Optional[float] = None,
    tile_size: Optional[float] = None,
) -> str:
    """Standalone SVG 1.1 figure of a trajectory prefix and its scene.

    Optional layers: the advice sector's boundary rays and disc arc, the tile
    grid of the sector frame, the treasure with its vision circle.  The
    viewBox fits all geometry with a 5% margin; world +y (North) points up.
    Each radius is None (not drawn) or positive and finite; a figure whose
    extent overflows binary64 is refused before any text is built.
    """
    if trajectory.segment_count > MAX_RENDER_SEGMENTS:
        raise BudgetExceededError(f"{trajectory.segment_count} segments exceed the render guard {MAX_RENDER_SEGMENTS}")
    radii = (("vision radius", vision_radius), ("disc radius", disc_radius), ("tile size", tile_size))
    vision_radius, disc_radius, tile_size = (None if v is None else positive_finite(name, v) for name, v in radii)
    disc = sector is not None and disc_radius is not None  # the sector's rays, arc and tile grid are drawn
    xs, ys = [trajectory.vertices[:, 0]], [trajectory.vertices[:, 1]]
    q = as_point(treasure) if treasure is not None else None
    if q is not None:
        rr = 0.0 if vision_radius is None else vision_radius
        xs.append(np.array([q.x - rr, q.x + rr]))
        ys.append(np.array([q.y - rr, q.y + rr]))
    if disc:  # the disc's box holds the sector's rays
        xs.append(np.array([sector.apex.x - disc_radius, sector.apex.x + disc_radius]))
        ys.append(np.array([sector.apex.y - disc_radius, sector.apex.y + disc_radius]))
    all_x, all_y = np.concatenate(xs), np.concatenate(ys)
    lo_x, hi_x = float(all_x.min()), float(all_x.max())
    lo_y, hi_y = float(all_y.min()), float(all_y.max())
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.05 * span
    # SVG's y axis points down; emit mirrored y so North renders upward.
    min_x, width = lo_x - pad, (hi_x - lo_x) + 2 * pad
    min_y, height = -(hi_y + pad), (hi_y - lo_y) + 2 * pad
    stroke = span / 400.0
    if not all(map(math.isfinite, (min_x, min_y, width, height, stroke))):
        raise BudgetExceededError("the figure's extent overflows binary64")
    grid = _tile_grid_svg(sector, disc_radius, tile_size, stroke) if disc and tile_size is not None else None

    def pt(x: float, y: float) -> str:
        return f"{x:.6g},{-y:.6g}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{min_x:.6g} {min_y:.6g} {width:.6g} {height:.6g}">',
    ]
    if disc:
        a = sector.apex
        rims = []  # where the cw and ccw boundary rays meet the disc
        for ang in (sector.cw_ray_angle, sector.ccw_ray_angle):
            ux, uy = direction_of(ang)
            rims.append((a.x + disc_radius * ux, a.y + disc_radius * uy))
            parts.append(
                f'<line x1="{a.x:.6g}" y1="{-a.y:.6g}" '
                f'x2="{rims[-1][0]:.6g}" y2="{-rims[-1][1]:.6g}" '
                f'stroke="#888" stroke-width="{stroke:.6g}" stroke-dasharray="{4 * stroke:.6g}"/>'
            )
        large_arc = 1 if sector.wedge_angle > math.pi else 0
        parts.append(
            f'<path d="M {pt(*rims[0])} '
            f"A {disc_radius:.6g} {disc_radius:.6g} 0 {large_arc} 1 "
            f'{pt(*rims[1])}" '
            f'fill="none" stroke="#888" stroke-width="{stroke:.6g}"/>'
        )
        if grid is not None:
            parts.append(grid)
    if trajectory.segment_count:
        coords = " ".join(pt(x, y) for x, y in trajectory.vertices)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1565c0" '
            f'stroke-width="{stroke * 1.5:.6g}"/>'
        )
    sx, sy = trajectory.vertices[0]
    parts.append(f'<circle cx="{sx:.6g}" cy="{-sy:.6g}" r="{2.5 * stroke:.6g}" fill="#000"/>')
    if q is not None:
        if vision_radius is not None:
            parts.append(
                f'<circle cx="{q.x:.6g}" cy="{-q.y:.6g}" r="{vision_radius:.6g}" '
                f'fill="none" stroke="#2e7d32" stroke-width="{stroke:.6g}"/>'
            )
        parts.append(f'<circle cx="{q.x:.6g}" cy="{-q.y:.6g}" r="{2.5 * stroke:.6g}" fill="#c62828"/>')
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if out_path is not None:
        Path(out_path).write_text(text)
    return text


def _tile_grid_svg(sector, disc_radius: float, tile_size: float, stroke: float) -> str:
    """The n + 1 column lines and rows + 2 row lines of the sector's tiling, refused past the render guard or binary64."""
    top = disc_radius if sector.wedge_angle >= math.pi / 2 else disc_radius * math.sin(sector.wedge_angle)
    n, rows = disc_radius // tile_size + 1.0, top // tile_size + 1.0  # floats, so a huge grid is counted, not built
    if not (count := n + rows + 3.0) <= MAX_RENDER_SEGMENTS:
        raise BudgetExceededError(f"{count:.4g} tile grid lines exceed the render guard {MAX_RENDER_SEGMENTS}")
    n, rows = int(n), int(rows)
    ends = np.zeros((n + rows + 3, 2, 2))  # per line: its two endpoints in the sector frame
    with np.errstate(over="ignore", invalid="ignore"):  # an endpoint past binary64 is refused below
        ends[: n + 1, :, 0] = np.arange(n + 1)[:, None] * tile_size
        ends[: n + 1, 1, 1] = (rows + 1) * tile_size
        ends[n + 1 :, 1, 0] = (n + 1) * tile_size
        ends[n + 1 :, :, 1] = np.arange(rows + 2)[:, None] * tile_size
        world = TileFrame(sector.apex, sector.cw_ray_angle, tile_size).to_world(ends.reshape(-1, 2)).reshape(-1, 4)
    if not np.isfinite(world).all():
        raise BudgetExceededError("the tile grid's extent overflows binary64")
    return "\n".join(
        f'<line x1="{x1:.6g}" y1="{-y1:.6g}" x2="{x2:.6g}" y2="{-y2:.6g}" stroke="#ddd" stroke-width="{stroke * 0.6:.6g}"/>'
        for x1, y1, x2, y2 in world.tolist()
    )
