"""A CPU clock that cancels the speed drift of a shared machine.

On a few cores of a shared host the CPU time of one identical pass drifts by
+-25% over seconds to minutes, as other tenants load the machine.  The drift
slows any code running at the time, so the clock runs fixed reference loops
inside the timed code, one every PERIOD_S of CPU time (a profiling-timer
signal interrupts the work between two bytecodes), and rescales the work's
own CPU time to an idle machine:

    slowdown   = geometric mean over the loops of (mean loop time / nominal)
    calibrated = (total - loop time) / slowdown

The three loops load the core the ways the library does: the interpreter,
small numpy calls, and reads scattered over more memory than a core's L2
cache.  Tenants slow each way by a different share, and no single loop
tracked the work as well as their mean.  The loops cost about 5% of the
timed CPU, the same on every commit.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

import numpy as np

PERIOD_S = 0.04

_SMALL = np.linspace(0.0, 1.0, 64)
_TABLE = array("d", range(1 << 18))  # 2 MiB
_MASK = (1 << 18) - 1


def _interpreter() -> int:
    s = 0
    for i in range(15_000):
        s += i * i % 7
    return s


def _numpy() -> float:
    acc = 0.0
    for i in range(250):
        a = _SMALL * (i + 1.0)
        acc += float(np.hypot(a, _SMALL).sum()) + float(np.cumsum(a)[-1])
    return acc


def _memory() -> float:
    table, j, s = _TABLE, 0, 0.0
    for _ in range(12_000):
        j = (j + 40_503) & _MASK
        s += table[j]
    return s


# Each loop with its CPU time on an idle core of the 2-core Intel Xeon test
# machine under CPython 3.11.  The nominal times only set the scale.
REFERENCES = ((_interpreter, 1.0e-3), (_numpy, 1.3e-3), (_memory, 1.1e-3))


def _timed(loop) -> float:
    t0 = time.thread_time()
    loop()
    return time.thread_time() - t0


def _slowdown(per_loop: list[float]) -> float:
    return math.exp(statistics.fmean(
        math.log(t / nominal) for t, (_, nominal) in zip(per_loop, REFERENCES)))


def measure_slowdown(rounds: int) -> float:
    """The machine's slowdown now, from ``rounds`` back-to-back runs of each loop."""
    return _slowdown([statistics.median(_timed(loop) for _ in range(rounds))
                      for loop, _ in REFERENCES])


class RefClock:
    """Times a callable in calibrated CPU seconds."""

    def __init__(self):
        self._running = False
        self._spent = [0.0] * len(REFERENCES)
        self._runs = [0] * len(REFERENCES)
        self._next = 0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        if not self._running:  # a tick that arrives after the timed region
            return
        k = self._next
        self._next = (k + 1) % len(REFERENCES)
        self._spent[k] += _timed(REFERENCES[k][0])
        self._runs[k] += 1

    def time(self, fn):
        """Run ``fn()``; return its result and its calibrated and raw CPU seconds.

        Both times leave the reference loops out.  The clock reads the thread's
        CPU time: the process CPU clock stands still inside the handler of a
        profiling-timer signal, and the benchmark runs on one thread.
        """
        self._spent = [0.0] * len(REFERENCES)
        self._runs = [0] * len(REFERENCES)
        self._running = True
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        t0 = time.thread_time()
        try:
            result = fn()
        finally:
            self._running = False
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            total = time.thread_time() - t0
        raw = total - sum(self._spent)
        for k, (loop, _) in enumerate(REFERENCES):
            if self._runs[k] == 0:  # too short a call: run the loop once, right after
                self._spent[k] += _timed(loop)
                self._runs[k] = 1
        slowdown = _slowdown([spent / runs for spent, runs in zip(self._spent, self._runs)])
        return result, raw / slowdown, raw
