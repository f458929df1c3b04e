"""The benchmark tracer finds every lookup site it wraps in the library.

A renamed or moved function would otherwise drop out of the tracer silently
and leave its per-layer metric empty or short.
"""

import importlib.util
from pathlib import Path

import planehunt

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
