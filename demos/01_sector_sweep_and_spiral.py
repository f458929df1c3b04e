"""A first tour: sector advice, the tiling sweep it drives, and the fallback spiral.

An oracle that knows where the treasure is can send the searcher a few bits:
the index of the angular sector (counted counterclockwise from North) that
contains it.  With two or more bits the searcher tiles that sector and rides
its tile columns; with fewer bits it spirals outward instead.  This script
builds both trajectories, checks their exact lengths against the cost
calculator, and renders them to SVG.
"""

import math
from pathlib import Path

import planehunt as ph

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

start = (0.0, 0.0)
treasure = (-2.6, 1.3)
vision = 0.6
reach = 4.0  # range hypothesis handed to the basic traversal

print("== aimed sweep (3 advice bits) ==")
z = 3
w = ph.encode_advice(start, treasure, z)
sector = ph.decode_sector(w, start)
print(f"advice for treasure {treasure}: {w!r} -> sector {sector.index} of {1 << z}")
print(f"sector rays at {sector.cw_ray_angle:.4f} and {sector.ccw_ray_angle:.4f} rad ccw from North")

heights = ph.tiling.column_heights(sector.wedge_angle, reach, vision, 0, ph.column_count(reach, vision))
print(f"tile columns over the truncated sector (tile size {vision}):")
for u, v_max in enumerate(heights):
    print(f"  column {u}: rows 0..{v_max}")
print(f"tile count {ph.count_tiles(z, reach, vision)}  (ceiling {ph.tile_count_bound(z, reach, vision):.1f})")

sweep = ph.basic_traversal(z, w, reach, vision, start)
poly = sweep.materialize()
print(f"sweep length {poly.length:.6f}  == calculator {ph.basic_cost(z, reach, vision):.6f}")
print(f"138-ceiling {ph.sweep_cost_bound(z, reach, vision):.1f}")

outcome = ph.run(sweep, treasure, vision, cost_cap=1e6)
print(f"hunt: found={outcome.found} cost={outcome.cost:.6f} at {outcome.detection_point}")

ph.render_svg(
    poly,
    OUT / "sector_sweep.svg",
    treasure=treasure,
    vision_radius=vision,
    sector=sector,
    disc_radius=reach,
    tile_size=vision,
)
print(f"wrote {OUT / 'sector_sweep.svg'}")

print()
print("== spiral fallback (no advice) ==")
spiral = ph.spiral(reach, vision, start)
spoly = spiral.materialize()
k = math.ceil(reach / vision)
print(f"pitch {vision}, {spoly.segment_count} legs, length {spoly.length:.2f} = (2*{k}+1)^2 * r")
outcome = ph.run(spiral, treasure, vision, cost_cap=1e6)
print(f"hunt: found={outcome.found} cost={outcome.cost:.4f}")
ph.render_svg(spoly, OUT / "spiral.svg", treasure=treasure, vision_radius=vision)
print(f"wrote {OUT / 'spiral.svg'}")
