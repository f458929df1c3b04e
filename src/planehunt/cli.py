"""Command-line interface: simulate, sweep, adversary, render.

Exit codes: 0 success (simulate: treasure found), 1 usage or input error,
2 cost-cap hit (simulate) or any unfound sweep row.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from .advice import decode_sector, encode_advice
from .bounds import MEDIUM_LB_RADIUS_LIMIT, lower_bounds, regime_of
from .errors import BudgetExceededError, PreconditionError, StreamChainError
from .geom import ORIGIN, Point2
from .harness import (
    STRATEGIES,
    build_stream,
    hunt,
    load_config,
    render_svg,
    sweep,
    worst_placement,
    write_csv,
)
from .sim import DEFAULT_CAP_MULTIPLIER
from .strategies import DEFAULT_ALPHA, DEFAULT_SCALE_STEP


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise _UsageError(message)


def _point(text: str) -> Point2:
    try:
        x, y = text.split(",")
        return Point2(float(x), float(y))
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"expected x,y — got {text!r}") from exc


def _positive(what: str):
    """An argparse type for a positive, finite number: the rule ``run`` applies to r."""
    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not (x > 0.0 and math.isfinite(x)):
            raise argparse.ArgumentTypeError(f"{what} must be positive and finite, got {text!r}")
        return x

    return parse


def _distance_and_range(args, given: Optional[float]) -> tuple[float, float]:
    """The start-to-treasure distance d, and ``given`` (``--D`` or ``--disc``) or else d kept just above r."""
    d = args.start.distance_to(args.treasure)
    return d, given if given is not None else max(d, args.r * 1.0000001, 1e-9)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="planehunt", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one strategy against one treasure")
    sim.set_defaults(handler=_cmd_simulate)
    sim.add_argument("--strategy", required=True, choices=STRATEGIES)
    sim.add_argument("--z", required=True, type=int, help="advice size in bits")
    sim.add_argument("--treasure", required=True, type=_point, metavar="X,Y")
    sim.add_argument("--r", required=True, type=_positive("vision radius"), help="vision radius")
    sim.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    sim.add_argument("--s", type=int, default=DEFAULT_SCALE_STEP)
    sim.add_argument("--start", type=_point, default=ORIGIN, metavar="X,Y")
    sim.add_argument("--cap-mult", type=float, default=DEFAULT_CAP_MULTIPLIER)
    sim.add_argument("--D", type=_positive("range bound"), help="range bound (default: the actual distance)")

    swp = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    swp.set_defaults(handler=_cmd_sweep)
    swp.add_argument("config", help="path to a [sweep] key=value config")
    swp.add_argument("--output", default=None, help="override the config's output path")

    adv = sub.add_parser("adversary", help="brute-force the worst treasure placement")
    adv.set_defaults(handler=_cmd_adversary)
    adv.add_argument("--strategy", default="medium", choices=STRATEGIES)
    adv.add_argument("--z", required=True, type=int)
    adv.add_argument("--D", required=True, type=_positive("range bound"))
    adv.add_argument("--r", required=True, type=_positive("vision radius"))
    adv.add_argument("--grid-step", required=True, type=float)
    adv.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    adv.add_argument("--s", type=int, default=DEFAULT_SCALE_STEP)
    adv.add_argument("--cap-mult", type=float, default=DEFAULT_CAP_MULTIPLIER)

    ren = sub.add_parser("render", help="render a trajectory prefix to SVG")
    ren.set_defaults(handler=_cmd_render)
    ren.add_argument("--strategy", required=True, choices=STRATEGIES)
    ren.add_argument("--z", required=True, type=int)
    ren.add_argument("--treasure", required=True, type=_point, metavar="X,Y")
    ren.add_argument("--r", required=True, type=_positive("vision radius"))
    ren.add_argument("--arc", required=True, type=float, help="prefix arc length to draw")
    ren.add_argument("--out", required=True, help="output SVG path")
    ren.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    ren.add_argument("--s", type=int, default=DEFAULT_SCALE_STEP)
    ren.add_argument("--start", type=_point, default=ORIGIN, metavar="X,Y")
    ren.add_argument("--disc", type=_positive("disc radius"), help="disc radius to draw")
    ren.add_argument("--tiles", action="store_true", help="draw the sector tile grid")
    return top


def _cmd_simulate(args) -> int:
    d, D = _distance_and_range(args, args.D)
    if d == 0.0:
        print("treasure coincides with the start: found at cost 0")
        return 0
    w, bound, outcome = hunt(
        args.strategy, args.z, D, args.r, args.alpha, args.s, args.cap_mult, args.start, args.treasure
    )
    print(f"strategy          {args.strategy}")
    print(f"advice            {w!r} (z = {args.z})")
    print(f"treasure          ({args.treasure.x:.17g}, {args.treasure.y:.17g})")
    print(f"distance          {d:.17g}")
    print(f"vision radius     {args.r:.17g}")
    print(f"regime            {regime_of(D, args.r)}")
    print(f"bound             {bound:.17g}")
    print(f"found             {str(outcome.found).lower()}")
    print(f"cost              {outcome.cost:.17g}")
    if outcome.detection_point is not None:
        p = outcome.detection_point
        print(f"detection point   ({p.x:.17g}, {p.y:.17g})")
    print(f"segments executed {outcome.segments_executed}")
    if bound > 0:
        print(f"cost/bound        {outcome.cost / bound:.17g}")
    return 0 if outcome.found else 2


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    rows = sweep(config)
    out = args.output if args.output is not None else config.output
    write_csv(rows, out)
    bad = sum(1 for row in rows if not row.found)
    print(f"wrote {len(rows)} rows to {out}" + (f" ({bad} unfound)" if bad else ""))
    return 2 if bad else 0


def _cmd_adversary(args) -> int:
    _, _, point, cost = worst_placement(
        args.strategy, args.z, args.D, args.r, args.alpha, args.s, args.cap_mult, args.grid_step
    )
    report = lower_bounds(args.z, args.D, args.r)
    print(f"worst placement   ({point.x:.17g}, {point.y:.17g})")
    print(f"worst cost        {cost:.17g}")
    if report.medium_applicable:
        print(f"medium-regime lower bound {report.medium_bound:.17g}")
        print(f"worst/lower       {cost / report.medium_bound:.17g}")
    else:
        print(f"trivial lower bound {report.trivial_bound:.17g} (r >= {MEDIUM_LB_RADIUS_LIMIT} D)")
    return 0


def _cmd_render(args) -> int:
    d, D = _distance_and_range(args, args.disc)
    if d == 0.0:
        print("error: treasure coincides with the start", file=sys.stderr)
        return 1
    w = encode_advice(args.start, args.treasure, args.z)
    stream = build_stream(args.strategy, args.z, w, D, args.r, args.alpha, args.s, args.start)
    prefix = stream.prefix(args.arc)
    sector = decode_sector(w, args.start) if args.z >= 2 and STRATEGIES[args.strategy][2] else None
    render_svg(
        prefix,
        args.out,
        treasure=args.treasure,
        vision_radius=args.r,
        sector=sector,
        disc_radius=args.disc,
        tile_size=args.r if args.tiles else None,
    )
    print(f"wrote {args.out} ({prefix.segment_count} segments)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except (PreconditionError, BudgetExceededError, StreamChainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
