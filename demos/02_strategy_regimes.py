"""The three vision regimes and the strategy built for each.

Neither the treasure's range D nor the vision radius r is known in advance,
so each strategy sweeps hypotheses:

* small vision (r <= 1): diagonal sweep over (range, resolution) pairs,
  interleaved with straight probes along the advised sector's boundary ray;
* medium vision (1 < r < 0.9 D): budgeted fills of a range/resolution matrix;
* large vision (r >= 0.9 D): doubling out-and-back probes on 12 compass rays;
* universal: all three round-robined at doubling trip lengths, for when the
  regime itself is unknown.

The script runs each strategy in its own regime, then the universal merge in
all three, printing cost against the documented ceilings.
"""

import math

import numpy as np

import planehunt as ph

rng = np.random.default_rng(2)


def scenario(regime):
    if regime == "small":
        d = rng.uniform(4.0, 32.0)
        r = 2.0 ** rng.uniform(-4, 0)
    elif regime == "medium":
        d = rng.uniform(8.0, 48.0)
        r = rng.uniform(1.6, 0.4 * d)
    else:
        d = rng.uniform(12.0, 64.0)
        r = rng.uniform(0.9 * d, d - 1.0)
    dist = rng.uniform(r + 0.5, d)
    theta = rng.uniform(0.0, math.tau)
    return d, r, (-dist * math.sin(theta), dist * math.cos(theta))


print(f"{'strategy':>10} {'regime':>7} {'z':>2} {'D':>7} {'r':>7} {'cost':>12} {'ceiling':>12} {'ratio':>9}")
for regime in ("small", "medium", "large"):
    for z in (0, 2, 5):
        d, r, q = scenario(regime)
        _, bound, outcome = ph.hunt(regime, z, d, r, 0.5, 3, 1e4, ph.ORIGIN, q)
        assert outcome.found
        print(
            f"{regime:>10} {regime:>7} {z:>2} {d:>7.2f} {r:>7.3f} "
            f"{outcome.cost:>12.2f} {bound:>12.4g} {outcome.cost / bound:>9.2e}"
        )

print()
print("advice-doubling trend (small regime, hypothesis term dominant):")
print("  each extra advice bit should roughly halve the cost; trip lengths double")
print("  per phase, so the effect is quantized and occasionally steps the other way")
d, r = 24.0, 0.05
dist, theta = 21.0, 2.1
q = (-dist * math.sin(theta), dist * math.cos(theta))
prev = None
for z in (2, 3, 4, 5, 6):
    w = ph.encode_advice((0, 0), q, z)
    cost = ph.run(ph.small_vision(z, w), q, r, 1e12).cost
    note = f"  x{cost / prev:.2f} vs one bit fewer" if prev else ""
    print(f"  z={z}: cost {cost:12.1f}{note}")
    prev = cost

print()
print("universal merge, regime undisclosed:")
for regime in ("small", "medium", "large"):
    d, r, q = scenario(regime)
    z = 3
    w, _, got = ph.hunt("universal", z, d, r, 0.5, 3, 1e4, ph.ORIGIN, q)
    assert got.found
    # the merge pays at most 24x the best single strategy
    solo = min(
        o.cost
        for o in (
            ph.run(ph.build_stream(name, z, w, d, r, 0.5, 3), q, r, got.cost)
            for name in ("small", "medium", "large")
        )
        if o.found
    )
    print(
        f"  true regime {regime:>6}: universal {got.cost:>10.2f}  best single {solo:>10.2f}"
        f"  overhead {got.cost / solo:>5.2f}x (<= 24)"
    )
