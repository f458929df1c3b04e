"""Experiment surface: reproducible parameter sweeps, CSV output, SVG rendering.

Sweep configs are flat ``key = value`` text with one ``[sweep]`` section so any
language can parse them.  Random placements come from a documented 64-bit
linear congruential generator (state' = 6364136223846793005 * state +
1442695040888963407 mod 2^64; uniforms take the top 53 bits), consumed in row
order, so identical config + seed reproduces byte-identical CSV everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import sim
from .advice import check_advice, encode_advice
from .bounds import LARGE_COST_FACTOR, UNIVERSAL_FACTOR, medium_ceiling, regime_of, small_ceiling, sweep_cost_bound
from .errors import BudgetExceededError, PreconditionError
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
from .traversal import TrajectoryStream, basic_traversal

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


# name: (stream builder, ceiling, whether the stream reads the advice); both take keyword arguments.
STRATEGIES = {
    "small": (lambda z, w, start, **_: small_vision(z, w, start), lambda z, D, r, **_: small_ceiling(z, D, r), True),
    "medium": (lambda z, w, alpha, s, start, **_: medium_vision(z, w, alpha, s, start), medium_ceiling, True),
    "large": (lambda start, **_: large_vision(start), lambda D, r, **_: LARGE_COST_FACTOR * (D - r), False),
    "universal": (
        lambda z, w, alpha, s, start, **_: universal(z, w, alpha, s, start),
        lambda z, D, r, alpha, s: UNIVERSAL_FACTOR * bound_for(regime_of(D, r), z, D, r, alpha, s),
        True,
    ),
    "basic": (
        lambda z, w, D, r, start, **_: basic_traversal(z, w, D, r, start),
        lambda z, D, r, **_: sweep_cost_bound(z, D, r),
        True,
    ),
}


def _strategy(name: str):
    """The ``STRATEGIES`` row of a name; the one place an unknown name is refused."""
    if not isinstance(name, str) or name not in STRATEGIES:
        raise PreconditionError(f"unknown strategy {name!r}; pick one of {tuple(STRATEGIES)}")
    return STRATEGIES[name]


def build_stream(strategy: str, z: int, w: str, D: float, r: float, alpha: float, s: int, start=ORIGIN) -> TrajectoryStream:
    return _strategy(strategy)[0](z=z, w=w, D=D, r=r, alpha=alpha, s=s, start=start)


def bound_for(strategy: str, z: int, D: float, r: float, alpha: float, s: int) -> float:
    """The documented cost ceiling the sweep's ratio column is measured against."""
    check_advice(z)
    return _strategy(strategy)[1](z=z, D=D, r=r, alpha=alpha, s=s)


def _setup(strategy: str, z: int, D: float, r: float, alpha: float, s: int, cap_mult: float, start=ORIGIN):
    """The ceiling, the cost cap (``cap_mult`` times the larger of ceiling and D), the stream per advice."""
    ceiling = bound_for(strategy, z, D, r, alpha, s)
    return ceiling, cap_mult * max(ceiling, D), lambda w: build_stream(strategy, z, w, D, r, alpha, s, start)


def hunt(strategy: str, z: int, D: float, r: float, alpha: float, s: int, cap_mult: float, start, treasure):
    """One hunt from ``start``, as the sweep and the CLI run it: ``(advice, ceiling, RunOutcome)``."""
    ceiling, cap, stream_for = _setup(strategy, z, D, r, alpha, s, cap_mult, start)
    w = encode_advice(start, treasure, z)
    return w, ceiling, run(stream_for(w), treasure, r, cap)


def worst_placement(strategy: str, z: int, D: float, r: float, alpha: float, s: int, cap_mult: float, grid_step: float):
    """Brute-force worst placement from the origin: ``(ceiling, cap, point, cost)``."""
    ceiling, cap, stream_for = _setup(strategy, z, D, r, alpha, s, cap_mult)
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


def _parse_float_list(text: str, key: str) -> tuple[float, ...]:
    parts = _parse_values(text)
    if parts and parts[0] == "logspace":
        if len(parts) != 4:
            raise PreconditionError(f"{key}: logspace needs <lo> <hi> <count>")
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        if lo <= 0 or hi <= 0 or count < 1:
            raise PreconditionError(f"{key}: logspace needs positive bounds and count")
        if count == 1:
            return (lo,)
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return tuple(lo * ratio**i for i in range(count))
    if parts and parts[0] == "list":
        parts = parts[1:]
    if not parts:
        raise PreconditionError(f"{key}: empty value list")
    return tuple(float(p) for p in parts)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config (one [sweep] section)."""
    section = None
    fields: dict[str, str] = {}
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
        fields[key.strip().lower()] = value.strip()

    def need(key: str) -> str:
        if key not in fields:
            raise PreconditionError(f"config is missing required key {key!r}")
        return fields[key]

    strategy = need("strategy").lower()
    _strategy(strategy)
    z_values = tuple(int(v) for v in _parse_values(need("z")))
    if not z_values or any(z < 0 for z in z_values):
        raise PreconditionError("z must list nonnegative integers")
    d_values = _parse_float_list(need("d"), "D")
    r_values = _parse_float_list(need("r"), "r")
    alpha = float(fields.get("alpha", str(DEFAULT_ALPHA)))
    s = int(fields.get("s", str(DEFAULT_SCALE_STEP)))
    cap_mult = float(fields.get("cap_mult", str(DEFAULT_CAP_MULTIPLIER)))
    if alpha <= 0 or s < 1 or cap_mult <= 0:
        raise PreconditionError("alpha, s, and cap_mult must be positive")

    placement_raw = _parse_values(need("placement"))
    seed = 0
    treasure = None
    grid_step = None
    mode = placement_raw[0].lower() if placement_raw else ""
    if mode == "explicit":
        if len(placement_raw) != 3:
            raise PreconditionError("placement: explicit needs x y")
        treasure = Point2(float(placement_raw[1]), float(placement_raw[2]))
    elif mode == "random":
        if len(placement_raw) != 2:
            raise PreconditionError("placement: random needs an explicit seed")
        seed = int(placement_raw[1])
    elif mode == "adversarial":
        if len(placement_raw) != 2:
            raise PreconditionError("placement: adversarial needs a grid step")
        grid_step = float(placement_raw[1])
    else:
        raise PreconditionError("placement must be explicit x y | random seed | adversarial step")

    return ExperimentConfig(
        strategy=strategy,
        z_values=z_values,
        d_values=d_values,
        r_values=r_values,
        alpha=alpha,
        s=s,
        placement=mode,
        treasure=treasure,
        seed=seed,
        grid_step=grid_step,
        cap_mult=cap_mult,
        output=fields.get("output", "sweep.csv"),
    )


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def _random_placement(rng: Lcg64, D: float) -> Point2:
    theta = math.tau * rng.next_float()
    d = D * math.sqrt(rng.next_float())
    ux, uy = direction_of(theta)
    return Point2(d * ux, d * uy)


def sweep(config: ExperimentConfig) -> List[SweepRow]:
    """One SweepRow per (z, D, r), in deterministic iteration order."""
    rows: List[SweepRow] = []
    rng = Lcg64(config.seed)
    for z in config.z_values:
        for D in config.d_values:
            for r in config.r_values:
                if not (0.0 < r <= D):
                    raise PreconditionError(f"sweep cell needs 0 < r <= D, got D={D} r={r}")
                rows.append(_sweep_cell(config, rng, z, D, r))
    return rows


def _sweep_cell(config: ExperimentConfig, rng: Lcg64, z: int, D: float, r: float) -> SweepRow:
    setup = (config.strategy, z, D, r, config.alpha, config.s, config.cap_mult)
    if config.placement == "adversarial":
        bound, cap, point, cost = worst_placement(*setup, config.grid_step)
        found = cost < cap or cost == 0.0
    else:
        point = config.treasure if config.placement == "explicit" else _random_placement(rng, D)
        if ORIGIN.distance_to(point) == 0.0:
            bound, found, cost = bound_for(config.strategy, z, D, r, config.alpha, config.s), True, 0.0
        else:
            _, bound, outcome = hunt(*setup, ORIGIN, point)
            found, cost = outcome.found, outcome.cost
    return SweepRow(
        strategy=config.strategy,
        z=z,
        D=D,
        r=r,
        alpha=config.alpha,
        s=config.s,
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
    """
    if trajectory.segment_count > MAX_RENDER_SEGMENTS:
        raise BudgetExceededError(
            f"{trajectory.segment_count} segments exceed the render guard {MAX_RENDER_SEGMENTS}"
        )
    xs = [trajectory.vertices[:, 0]]
    ys = [trajectory.vertices[:, 1]]
    q = as_point(treasure) if treasure is not None else None
    if q is not None:
        rr = vision_radius or 0.0
        xs.append(np.array([q.x - rr, q.x + rr]))
        ys.append(np.array([q.y - rr, q.y + rr]))
    if sector is not None and disc_radius is not None:  # the disc's box holds the sector's rays
        xs.append(np.array([sector.apex.x - disc_radius, sector.apex.x + disc_radius]))
        ys.append(np.array([sector.apex.y - disc_radius, sector.apex.y + disc_radius]))
    all_x = np.concatenate(xs)
    all_y = np.concatenate(ys)
    lo_x, hi_x = float(all_x.min()), float(all_x.max())
    lo_y, hi_y = float(all_y.min()), float(all_y.max())
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.05 * span
    # SVG's y axis points down; emit mirrored y so North renders upward.
    min_x, width = lo_x - pad, (hi_x - lo_x) + 2 * pad
    min_y, height = -(hi_y + pad), (hi_y - lo_y) + 2 * pad
    stroke = span / 400.0

    def pt(x: float, y: float) -> str:
        return f"{x:.6g},{-y:.6g}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{min_x:.6g} {min_y:.6g} {width:.6g} {height:.6g}">',
    ]
    if sector is not None and disc_radius is not None:
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
        if tile_size is not None and tile_size > 0:
            parts.append(_tile_grid_svg(sector, disc_radius, tile_size, stroke))
    if trajectory.segment_count:
        coords = " ".join(pt(x, y) for x, y in trajectory.vertices)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1565c0" '
            f'stroke-width="{stroke * 1.5:.6g}"/>'
        )
    sx, sy = trajectory.vertices[0]
    parts.append(f'<circle cx="{sx:.6g}" cy="{-sy:.6g}" r="{2.5 * stroke:.6g}" fill="#000"/>')
    if q is not None:
        if vision_radius:
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
    from .tiling import TileFrame

    frame = TileFrame(sector.apex, sector.cw_ray_angle, tile_size)
    n = int(disc_radius // tile_size) + 1
    lines = []
    top = disc_radius if sector.wedge_angle >= math.pi / 2 else disc_radius * math.sin(sector.wedge_angle)
    rows = int(top // tile_size) + 1
    for i in range(n + 1):
        seg = frame.to_world(np.array([[i * tile_size, 0.0], [i * tile_size, (rows + 1) * tile_size]]))
        lines.append(seg)
    for v in range(rows + 2):
        seg = frame.to_world(np.array([[0.0, v * tile_size], [(n + 1) * tile_size, v * tile_size]]))
        lines.append(seg)
    bits = []
    for seg in lines:
        bits.append(
            f'<line x1="{seg[0, 0]:.6g}" y1="{-seg[0, 1]:.6g}" x2="{seg[1, 0]:.6g}" '
            f'y2="{-seg[1, 1]:.6g}" stroke="#ddd" stroke-width="{stroke * 0.6:.6g}"/>'
        )
    return "\n".join(bits)
