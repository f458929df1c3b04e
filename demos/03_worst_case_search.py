"""Hunting the hunter: brute-force search for the costliest treasure placement.

No strategy with z advice bits can beat the floor (1/800)(D^2/(2^z r) + D)
when r < 0.9 D: enough evenly spread placements share one advice string that
some of them must be expensive.  The adversarial search makes that concrete:
it sweeps a shaded-tile pattern plus a grid over the disc, simulates every
placement with its own canonical advice, and returns the worst.  The result
lands between the floor and the strategy's ceiling.
"""

from pathlib import Path

import planehunt as ph

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

D, r, z = 24.0, 2.0, 2
alpha, s = 0.5, 2

print(f"instance: D={D} r={r} z={z} (medium regime)")
ceiling, _, worst, cost = ph.worst_placement("medium", z, D, r, alpha, s, 1e4, grid_step=r)
floor = ph.medium_regime_lower_bound(z, D, r)
print(f"worst placement {worst} at cost {cost:.2f}")
print(f"floor (1/800 formula)  {floor:10.3f}")
print(f"strategy ceiling       {ceiling:10.3g}")
print(f"floor <= worst: {floor <= cost};  worst <= ceiling: {cost <= ceiling}")

report = ph.lower_bounds(z, D, r)
print(f"full report: medium={report.medium_bound:.3f} (applicable={report.medium_applicable}), "
      f"small={report.small_bound:.3f}, trivial={report.trivial_bound:.3f}")

# render the stretch of trajectory that finally reaches the worst placement
w = ph.encode_advice((0, 0), worst, z)
stream = ph.medium_vision(z, w, alpha, s)
prefix = stream.prefix(min(cost * 1.02, cost + 50.0))
ph.render_svg(
    prefix,
    OUT / "worst_case.svg",
    treasure=worst,
    vision_radius=r,
    sector=ph.decode_sector(w, (0, 0)),
    disc_radius=D,
)
print(f"wrote {OUT / 'worst_case.svg'} ({prefix.segment_count} segments)")
