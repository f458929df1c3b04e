"""One seed-1 pass of each benchmark workload gives its pinned outputs.

The benchmark checks that every pass of a run matches the run's first pass,
but not that the first pass matches earlier code.  These pins do: a fast path
that moves one cost bit, one detection point or one segment count changes a
pass digest or a segment count here and fails the suite.  The segment counts
and outcome counts are the seed-1 figures of ``BENCH_10.json``, but for
``basic_hunts``: since spiral vertices take their closed form, its 77 spiral
hunts that broke the chain are walked to the end (``BENCH_22.json``).  The
digests are those of ``BENCH_26.json``: since the walked arc is an exact int
rounded once, costs moved in their last bits (sweeps' r/sqrt(2) opening move
in every workload, any non-dyadic r in ``basic_hunts``), and no segment count,
found flag or reported detection point moved.

The traced pass reads the expanded ``blocks()`` of every stream, so it does
not walk the folds of ``steps()``: far round trips, and the far spans of a
basic traversal's way out.  The untraced pass does, and gives the same
digests; its ``basic_hunts`` pass makes one piece per hunt.
"""

import importlib.util
import itertools
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import planehunt
from planehunt import advice, geom, harness, sim, strategies, tiling, traversal  # noqa: F401  (the workloads' ph.<module>)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TEE = type(itertools.tee(())[0])

# workload: (pass digest, segments per pass, count of each outcome other than found)
PINS = {
    "small_hunts": ("d408b4c3ef97f3458b1141ee7fdf8295cfcd734ac991703f9a90c015ff63e2a3", 27_754_272, {}),
    "universal_sweep": ("ad7a6c8c29b3aedcd57a98f5f3173872acd616b87bd3390d784120eb2d2f72c3", 675_433, {}),
    "adversary_grid": ("e8273dc919e1f6afa73c599e35864c8859958509e73e0828b41f1b5b19ff73a6", 47_960, {}),
    "basic_hunts": ("5b210b0aed058fe0a316263d7a897ac5c9b2b142ff79d5bde31e51402f501497", 22_108_988, {}),
}


def _load(name: str):
    """Load ``perfbench/<name>.py`` as module ``perfbench_<name>``, registered while it runs."""
    alias = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(alias, PERFBENCH / f"{name}.py")
    module = sys.modules[alias] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[alias]
    return module


@pytest.fixture(scope="module")
def bench():
    tracer = _load("tracer")
    saved = sys.modules.get("tracer")
    sys.modules["tracer"] = tracer  # workloads.py imports its sibling by this name
    try:
        workloads = _load("workloads")
    finally:
        if saved is None:
            del sys.modules["tracer"]
        else:
            sys.modules["tracer"] = saved
    return tracer, workloads


@pytest.mark.parametrize("name", list(PINS))
def test_seed_1_pass_is_pinned(bench, name):
    tracer_module, workloads = bench
    digest, segments, failures = PINS[name]
    workload = workloads.WORKLOADS[name](planehunt, 1)
    tracer = tracer_module.Tracer(planehunt)
    tracer.install()
    try:
        raw = workload.run_pass(tracer)
    finally:
        tracer.uninstall()
    summary = workload.summarize(raw)
    assert tracer.absent == [] and summary.problems == []
    assert summary.digest == digest
    assert tracer.counts[workload.segment_counter] == segments
    assert summary.failures == Counter(failures)


@pytest.mark.parametrize("name", list(PINS))
def test_untraced_seed_1_pass_is_pinned(bench, name):
    """The timed passes walk ``steps()``, which fold far round trips and far spans of basic
    traversals; the traced pass above reads the expanded ``blocks()``.  Both give the pins."""
    _, workloads = bench
    digest, _, failures = PINS[name]
    workload = workloads.WORKLOADS[name](planehunt, 1)
    summary = workload.summarize(workload.run_pass(None))
    assert summary.problems == [] and summary.digest == digest
    assert summary.failures == Counter(failures)


def test_an_untraced_basic_pass_builds_only_the_pieces_its_targets_can_see(bench, monkeypatch):
    """One piece per hunt is made (3,225 before far spans folded), and the kernel sees what it saw."""
    _, workloads = bench
    made = Counter()
    for kind in ("spiral", "sweep"):
        maker = getattr(traversal, f"_{kind}_piece")
        monkeypatch.setattr(traversal, f"_{kind}_piece", lambda *args, kind=kind, maker=maker: made.update([kind]) or maker(*args))
    kernel = Counter()
    detect = sim.detection_lengths

    def counting(pts, *args):
        kernel.update(calls=1, segments=pts.shape[0] - 1)
        return detect(pts, *args)

    monkeypatch.setattr(sim, "detection_lengths", counting)
    ops = workloads.WORKLOADS["basic_hunts"](planehunt, 1).run_pass(None)
    assert made == Counter(spiral=81, sweep=219)
    assert kernel == Counter(calls=300, segments=2943)
    assert sum(op.segments for op in ops) == PINS["basic_hunts"][1]


@pytest.mark.parametrize("name, calls, columns", [("basic_hunts", 566, 2_296_788), ("small_hunts", 374, 280_433)])
def test_an_untraced_pass_counts_rising_columns_without_building_them(bench, monkeypatch, name, calls, columns):
    """Far sweep spans and folded round trips add their heights with ``tiling.height_sum``, which builds
    no column of a long rising range it certifies; the pass still gives its pins."""
    _, workloads = bench
    work = Counter()
    real = tiling.column_heights

    def counting(wedge, D, r, lo, hi):
        work.update(calls=1, columns=hi - lo)
        return real(wedge, D, r, lo, hi)

    for module in (tiling, traversal):
        monkeypatch.setattr(module, "column_heights", counting)
    workload = workloads.WORKLOADS[name](planehunt, 1)
    summary = workload.summarize(workload.run_pass(None))
    assert summary.digest == PINS[name][0]
    assert 0 < work["calls"] <= calls and 0 < work["columns"] <= columns


def test_an_untraced_small_pass_builds_only_what_its_target_can_see(bench, monkeypatch):
    """Phase trips cut their last piece lazily: a pass maps through ``TileFrame.to_world`` only the rows
    a one-target walk reads, not whole pieces."""
    _, workloads = bench
    work = Counter()
    to_world, detect = tiling.TileFrame.to_world, sim.detection_lengths

    def mapping(frame, f):
        work.update(points=len(f))
        return to_world(frame, f)

    def counting(pts, *args):
        work.update(segments=pts.shape[0] - 1)
        return detect(pts, *args)

    monkeypatch.setattr(tiling.TileFrame, "to_world", mapping)
    monkeypatch.setattr(sim, "detection_lengths", counting)
    workloads.WORKLOADS["small_hunts"](planehunt, 1).run_pass(None)
    assert work["points"] < 5_000
    assert 0 < work["segments"] <= 7_571


def test_a_sweep_builds_each_stream_once_and_drops_its_steps_after_its_last_row(bench, monkeypatch):
    """The seed-1 sweep configs: 336 rows, whose universal streams read 40, 40 and 37 distinct (z, advice)
    pairs, each built once. A key's tee of steps lives from its first row through its last, and no longer."""
    _, workloads = bench
    configs = workloads.WORKLOADS["universal_sweep"](planehunt, 1).configs.values()
    real_build, real_run = harness.build_stream, harness.run
    builds, tees, reads, alive = [], [], [], []  # per run: the tee it reads (or None), and which tees live

    def build_stream(strategy, z, w, *args):
        builds.append((z, w))
        return real_build(strategy, z, w, *args)

    def run(stream, *args):
        owner = getattr(stream._factory, "__self__", None)  # a stream of several rows re-reads its key's tee
        if type(owner) is not TEE:
            reads.append(None)
        elif (known := [i for i, ref in enumerate(tees) if ref() is owner]):
            reads.append(known[0])
        else:
            reads.append(len(tees))
            tees.append(weakref.ref(owner))
        alive.append([ref() is not None for ref in tees])
        return real_run(stream, *args)

    monkeypatch.setattr(harness, "build_stream", build_stream)
    monkeypatch.setattr(harness, "run", run)
    counts = []
    for config in configs:
        builds.clear()
        counts.append((len(harness.sweep(config)), len(builds), len(set(builds))))
    assert counts == [(108, 40, 40), (108, 40, 40), (120, 37, 37)]
    last = {tee: row for row, tee in enumerate(reads)}
    assert alive == [[last[tee] >= row for tee in range(len(live))] for row, live in enumerate(alive)]
    assert tees and all(ref() is None for ref in tees)
