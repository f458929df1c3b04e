"""The benchmark tracer finds every lookup site it wraps in the library, and
the library's own calls go through those sites.

A renamed or moved function, or a caller that reaches a function by another
name, would otherwise drop out of the tracer silently and leave its
per-layer metric empty or short.
"""

import importlib.util
from pathlib import Path

import planehunt
from _oracles import regenerated_phase_trips
from planehunt import harness, traversal

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_present():
    tracer = _load_tracer().Tracer(planehunt)
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_every_lookup_site_resolves():
    # A layer counts as present while any one of its sites resolves, so check each site.
    tracer = _load_tracer()
    missing = []
    for module, path, _ in tracer.SPANNED + tracer.COUNTED:
        owner = getattr(planehunt, module)
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert missing == []


def _traced(fn):
    """``fn()`` under an installed tracer, which is removed again whatever happens."""
    tracer = _load_tracer().Tracer(planehunt)
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def test_phase_trip_cuts_are_traced():
    streams, arcs = [traversal.spiral(8.0, 0.5)], [1.0, 2.0, 4.0, 8.0]
    tracer = _traced(lambda: list(traversal.phase_trips(streams, arcs)))
    # Each trip walks back over exactly the segments of its way out.
    forward = sum(b.lengths.size for b in regenerated_phase_trips(streams, arcs)) // 2
    assert tracer.counts["traversal.prefix_blocks.calls"] == len(arcs)
    assert tracer.counts["traversal.prefix_blocks.segments"] == forward


def test_worst_placement_is_traced():
    tracer = _traced(lambda: harness.worst_placement("small", 2, 4.0, 0.5, 0.5, 3, 1e4, 0.5))
    assert [span[0] for span in tracer.spans].count("sim.adversarial_placement") == 1
    assert tracer.counts["sim.adversarial_placement.groups"] == 4
