"""In-memory spans and counters around the public functions of each planehunt layer.

The tracer never edits the library.  ``install`` swaps the module (or class)
attributes that callers look up at call time for wrappers defined here, and
``uninstall`` puts the originals back, so untraced passes run the plain code.
Each wrapper opens a span (name, start, end, parent, operation id) and adds
counts at the same boundary.  A name the library no longer has is skipped and
reported as an absent layer.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator

# (owner module, attribute path, span name).  Every lookup site of a function
# is listed: ``strategies`` imports ``basic_cost`` by name and ``traversal``
# imports ``column_heights`` by name, so the wrapper must sit where the caller
# looks the name up.
SPANNED = (
    ("advice", "encode_advice", "advice.encode_advice"),
    ("sim", "encode_advice", "advice.encode_advice"),
    ("harness", "encode_advice", "advice.encode_advice"),
    ("geom", "detection_lengths", "geom.detection_lengths"),
    ("sim", "detection_lengths", "geom.detection_lengths"),
    ("tiling", "TileFrame.to_world", "tiling.to_world"),
    ("tiling", "column_heights", "tiling.column_heights"),
    ("traversal", "column_heights", "tiling.column_heights"),
    ("traversal", "prefix_blocks", "traversal.prefix_blocks"),
    ("traversal", "basic_cost", "traversal.basic_cost"),
    ("strategies", "basic_cost", "traversal.basic_cost"),
    ("strategies", "fill_events", "strategies.fill_events"),
    ("sim", "run", "sim.run"),
    ("harness", "run", "sim.run"),
    ("sim", "adversarial_placement", "sim.adversarial_placement"),
    ("harness", "sweep", "harness.sweep"),
    ("harness", "rows_to_csv", "harness.rows_to_csv"),
)

# Counted, never timed: a span would cost more than the two slices it wraps.
COUNTED = (("traversal", "flip_block", "traversal.flip_block"),)

# The detection slack the library applies; reported points are counted against it.
STRICT_SLACK = 1e-12


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Spans of one traced pass, plus counters keyed by metric name."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index, operation id]
        self.counts: Counter = Counter()
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._retrace = None

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def iterate(self, name: str, it: Iterator, on_item: Callable) -> Iterator:
        """Yield from ``it``, timing each ``next()`` as one span."""
        while True:
            idx = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end(idx)
            on_item(item)
            yield item

    def self_times(self) -> tuple[dict[str, float], float]:
        """Span duration minus the part its child spans cover, summed by name.

        Also returns the smallest single self time, which is negative only if a
        child span reached outside its parent.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        lowest = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            out[name] += own
            lowest = min(lowest, own)
        return dict(out), lowest

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every lookup site that exists; a layer with none is absent."""
        present = set()
        for mod_name, path, span in SPANNED + COUNTED:
            module = getattr(self.package, mod_name, None)
            owner, attr = _resolve(module, path) if module is not None else (None, path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            present.add(span)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(span, original))
        self.absent = sorted({span for _, _, span in SPANNED + COUNTED} - present)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrapper(self, span: str, fn: Callable) -> Callable:
        special = {
            "sim.run": self._wrap_run,
            "sim.adversarial_placement": self._wrap_adversary,
            "strategies.fill_events": self._wrap_fill_events,
            "traversal.flip_block": self._wrap_flip,
        }
        if span in special:
            return special[span](fn)
        counters = {
            "geom.detection_lengths": lambda res: ("segments", res.shape[0]),
            "tiling.to_world": lambda res: ("points", res.shape[0]),
            "tiling.column_heights": lambda res: ("columns", res.shape[0]),
            "traversal.prefix_blocks": lambda res: ("segments", sum(b.lengths.size for b in res)),
            "harness.rows_to_csv": lambda res: ("bytes", len(res.encode())),
        }
        count = counters.get(span)

        def wrapper(*args, **kwargs):
            res = self.call(span, fn, *args, **kwargs)
            self.counts[f"{span}.calls"] += 1
            if count is not None:
                key, n = count(res)
                self.counts[f"{span}.{key}"] += int(n)
            return res

        return wrapper

    def _stream_proxy(self, stream, walker: str):
        """The same stream, with every ``next()`` of its block iterator timed."""
        tstream = self.package.traversal.TrajectoryStream
        counts = self.counts
        retrace = self._retrace

        def on_block(block) -> None:
            n = int(block.lengths.size)
            counts["traversal.blocks.count"] += 1
            counts["traversal.blocks.segments"] += n
            counts[f"{walker}.blocks"] += 1
            if retrace is not None and isinstance(block, retrace):
                counts["traversal.retrace_segments"] += n

        return tstream(stream.start, lambda: self.iterate("traversal.blocks", stream.blocks(), on_block))

    def _wrap_run(self, fn: Callable) -> Callable:
        def run(stream, treasure, r, cost_cap):
            proxy = self._stream_proxy(stream, "sim.run")
            try:
                out = self.call("sim.run", fn, proxy, treasure, r, cost_cap)
            except Exception as exc:
                self.counts[f"sim.run.failed.{type(exc).__name__}"] += 1
                raise
            self.counts["sim.run.calls"] += 1
            self.counts["sim.run.segments"] += out.segments_executed
            if not out.found:
                self.counts["sim.run.unfound"] += 1
                return out
            excess, allowed = detection_excess(out.detection_point, treasure, r)
            if excess > allowed or not math.isfinite(out.cost):
                self.counts["check.bad_detections"] += 1
            if excess > STRICT_SLACK:
                self.counts["check.detections_beyond_r_1e-12"] += 1
            return out

        return run

    def _wrap_adversary(self, fn: Callable) -> Callable:
        def adversarial_placement(strategy_factory, *args, **kwargs):
            made = 0

            def factory(w):
                nonlocal made
                made += 1
                return self._stream_proxy(strategy_factory(w), "sim.adversarial_placement")

            res = self.call("sim.adversarial_placement", fn, factory, *args, **kwargs)
            # The first factory call only reads the start point; each later one is a group.
            self.counts["sim.adversarial_placement.groups"] += made - 1
            return res

        return adversarial_placement

    def _wrap_fill_events(self, fn: Callable) -> Callable:
        def fill_events(*args, **kwargs):
            def on_event(_event) -> None:
                self.counts["strategies.fill_events.events"] += 1

            return self.iterate("strategies.fill_events", fn(*args, **kwargs), on_event)

        return fill_events

    def _wrap_flip(self, fn: Callable) -> Callable:
        block_type = getattr(self.package.traversal, "Block", None)
        if block_type is not None:
            # A marker subclass, so the walker's iterator can tell retraced
            # blocks from explored ones without changing any value.
            self._retrace = type("RetraceBlock", (block_type,), {"__slots__": ()})
        retrace = self._retrace

        def flip_block(block):
            res = fn(block)
            self.counts["traversal.flip_block.segments"] += int(res.lengths.size)
            return retrace(*res) if retrace is not None else res

        return flip_block


def detection_excess(point, treasure, r: float) -> tuple[float, float]:
    """How far a detection point lies beyond r, and the rounding allowance at its scale.

    The allowance is 1e-9 * max(1, |coordinates|): the library's own tests hold
    detection points to r + 1e-9 at unit scale and scale their length checks by
    magnitude.  Coordinates near 1e4 carry more rounding than STRICT_SLACK, so
    excesses above STRICT_SLACK are counted separately, not judged.
    """
    px, py = point
    tx, ty = treasure
    scale = max(1.0, abs(px), abs(py), abs(tx), abs(ty))
    return math.hypot(px - tx, py - ty) - r, 1e-9 * scale
