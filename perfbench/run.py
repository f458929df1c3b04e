"""planehunt benchmark: one seeded workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload small_hunts --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree: it imports ``planehunt`` from ``src/``
next to this directory, and nothing else.  It repeats one pass of the
workload's inputs until ``--seconds`` is used up and reports medians over the
passes, timed by the calibrated CPU clock of ``refclock.py``.  ``--trace 0``
prints the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
ones.  Earlier lines of the output give the provenance, the output checksum and
a readable table; the last line is one JSON object.  Spans of the traced pass
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: no numerical library may start worker threads behind the timer.
# This must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from refclock import RefClock, measure_slowdown  # noqa: E402
from tracer import SPANNED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
SETUP_REF_ROUNDS = 15
MIN_PASSES = 3


def _load_package():
    """Import planehunt from this tree's ``src/``; None when the tree has no sources."""
    if not (SRC / "planehunt" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import planehunt
    from planehunt import advice, geom, harness, sim, strategies, tiling, traversal  # noqa: F401

    if Path(planehunt.__file__).resolve().parent != SRC / "planehunt":
        return None
    return planehunt


def _setup_seconds(args) -> list[tuple[float, float]]:
    """CPU time from process start to the first operation, once per fresh interpreter.

    Each probe gives (calibrated, raw) seconds: the raw CPU time is rescaled by
    the machine's slowdown, which the probe measures right after it is ready.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        word, *numbers = done.stdout.split()
        if done.returncode != 0 or word != "ready" or len(numbers) != 2:
            raise RuntimeError(f"setup probe failed (exit {done.returncode}): {done.stderr[-500:]}")
        raw, slowdown = map(float, numbers)
        out.append((raw / slowdown, raw))
    return out


def _provenance(ph, args, workload) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "planehunt").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": workload.name,
        "operation": workload.unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "inputs": workload.params,
    }


class Runner:
    """Times passes of one workload and keeps their checked summaries."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None  # summary of the first pass: every later one must match it
        self.problems: list[str] = []
        self.raw_s = 0.0  # raw CPU seconds of the last pass timed by a clock

    def one_pass(self, tracer=None, clock=None) -> float:
        """Run and check one pass; return its CPU seconds, calibrated when ``clock`` is given."""
        if clock is not None:
            raw, seconds, self.raw_s = clock.time(self.workload.run_pass)
        else:
            if tracer is not None:
                tracer.install()
                root = tracer.begin("bench")
            t0 = time.process_time()
            try:
                raw = self.workload.run_pass(tracer)
            finally:
                seconds = time.process_time() - t0
                if tracer is not None:
                    tracer.end(root)
                    tracer.uninstall()
        summary = self.workload.summarize(raw)
        if self.first is None:
            self.first = summary
            self.problems += summary.problems
        elif summary.digest != self.first.digest:
            kind = "traced" if tracer is not None else "untraced"
            self.problems.append(f"a {kind} pass gave other outputs than the first pass")
        if tracer is not None and tracer.counts["check.bad_detections"]:
            self.problems.append(f"{tracer.counts['check.bad_detections']} walker detections failed the check")
        return seconds


def _window(seconds: float, step) -> list:
    """Call step() until the next call would overrun ``seconds`` (at least MIN_PASSES calls)."""
    t_start = time.perf_counter()
    out, walls = [], []
    while True:
        t0 = time.perf_counter()
        out.append(step())
        walls.append(time.perf_counter() - t0)
        if len(out) >= MIN_PASSES and time.perf_counter() - t_start + statistics.median(walls) > seconds:
            return out


def _layer_values(tracer, runner, st: dict, untraced_s: float, traced_s: float) -> dict:
    c = tracer.counts
    first = runner.first
    out = {}
    for name in {span for _, _, span in SPANNED} | {"traversal.blocks", "bench"}:
        out[f"{name}.self_s"] = st.get(name, 0.0)
    for key, n in c.items():
        out[key] = n
    det_self = out["geom.detection_lengths.self_s"]
    out["geom.detection_lengths.segments_per_s"] = (
        c["geom.detection_lengths.segments"] / det_self if det_self > 0 else 0.0
    )
    blocks = c["traversal.blocks.count"]
    out["traversal.blocks.segments_per_block"] = c["traversal.blocks.segments"] / blocks if blocks else 0.0
    generated = c["traversal.blocks.segments"]
    out["traversal.retrace_share"] = c["traversal.retrace_segments"] / generated if generated else 0.0
    out["failed_share"] = first.failed / first.attempted
    root = tracer.spans[0]
    out["bench.wall_s"] = root[2] - root[1]
    out["bench.ops_per_s.untraced"] = first.attempted / untraced_s
    out["bench.ops_per_s.traced"] = first.attempted / traced_s
    out["bench.trace_overhead"] = traced_s / untraced_s - 1.0
    return out


def _emit(values: dict, specs: list[dict], runner) -> None:
    metrics = {}
    listed_failures = set()
    for spec in specs:
        name = spec["name"]
        if name.startswith("sim.run.failed.") and name != "sim.run.failed.other":
            listed_failures.add(name)
        if name == "sim.run.failed.other":
            value = sum(n for k, n in values.items()
                        if k.startswith("sim.run.failed.") and k not in listed_failures)
        else:
            value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"  {name:44s} {value:>18.6g} {spec['unit']}")
    first = runner.first
    for p in runner.problems[:20]:
        print(f"check failed: {p}")
    result = {
        "correct": not runner.problems,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    ph = _load_package()
    if ph is None:
        print(f"perfbench: no planehunt sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ph, args.seed)
    if args.probe_setup:
        ready = time.process_time()
        print(f"ready {ready!r} {measure_slowdown(SETUP_REF_ROUNDS)!r}", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("provenance " + json.dumps(_provenance(ph, args, workload)))
    runner = Runner(workload)

    if args.trace == 0:
        setup = _setup_seconds(args)
        clock = RefClock()
        runner.one_pass(clock=clock)  # untimed: lets caches fill and lazy set-up finish
        passes = _window(args.seconds, lambda: (runner.one_pass(clock=clock), runner.raw_s))
        times = [cal for cal, _ in passes]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The segment counts are deterministic, so one traced pass after the window supplies them.
        tracer = Tracer(ph)
        runner.one_pass(tracer)
        segments = tracer.counts[workload.segment_counter]
        median = statistics.median(times)
        values = {
            "ops_per_s": runner.first.attempted / median,
            "segments_per_s": segments / median,
            "setup_s": statistics.median(cal for cal, _ in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"passes {len(times)}, calibrated/raw: "
              + " ".join(f"{cal:.4f}/{raw:.4f}" for cal, raw in passes) + " s")
        print("setup probes, calibrated/raw: " + " ".join(f"{cal:.4f}/{raw:.4f}" for cal, raw in setup) + " s")
        print(f"segments per pass {segments}; failed_share {runner.first.failed / runner.first.attempted:.6g}; "
              f"detections beyond r + 1e-12: {tracer.counts['check.detections_beyond_r_1e-12']}")
        specs = spec["end_to_end"]
    else:
        untraced, traced = [], []

        def step():
            if len(traced) <= len(untraced):
                tracer = Tracer(ph)
                traced.append((runner.one_pass(tracer), tracer))
                return traced[-1][0]
            untraced.append(runner.one_pass())
            return untraced[-1]

        _window(args.seconds, step)
        traced.sort(key=lambda item: item[0])
        _, tracer = traced[(len(traced) - 1) // 2]
        self_times, lowest = tracer.self_times()
        if lowest < -1e-9:
            runner.problems.append(f"a span has self time {lowest!r} s: spans do not nest")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-{args.seed}.tsv"
        tracer.write(spans_path)
        values = _layer_values(tracer, runner, self_times, statistics.median(untraced),
                               statistics.median(t for t, _ in traced))
        print("traced passes: " + " ".join(f"{t:.4f}" for t, _ in traced) + " s; untraced: "
              + " ".join(f"{t:.4f}" for t in untraced) + " s")
        print(f"self times add to {sum(self_times.values()):.6f} s, the bench root span lasts "
              f"{values['bench.wall_s']:.6f} s; spans in {spans_path}")
        print("layers_absent " + json.dumps(tracer.absent))
        specs = spec["per_layer"]

    first = runner.first
    print(f"checksum {first.digest}")
    print("outcomes " + json.dumps({"attempted": first.attempted, **dict(first.failures)}))
    _emit(values, specs, runner)
    return 0


if __name__ == "__main__":
    sys.exit(main())
