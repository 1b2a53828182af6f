"""Timing at a reference host speed.

On a shared host the same exact-arithmetic code runs up to twice as slow
from one second to the next, and the slow stretches last tens of seconds,
so a run's raw times spread by 20-30% however long it measures.  While a
:class:`SpeedClock` is active, a timer signal runs a fixed pure-Python
kernel every ``INTERVAL_S`` and records how long it took.  An interval's
time, less the kernel's own time, divided by the mean kernel time sampled
during it (and the sample just before), times ``KERNEL_REFERENCE_S`` is
its time at reference speed.  Inactive, the clock returns raw times.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import Tuple

INTERVAL_S = 0.1
# The kernel's median time on a 2-core x86-64 host with Python 3.11.  A
# fixed scale: it makes reference seconds close to seconds, and its value
# cancels out of every comparison between runs.
KERNEL_REFERENCE_S = 0.0022


def kernel() -> Fraction:
    """Fixed work of the engine's kind: small-fraction arithmetic."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 89 + 1, i % 97 + 2) * Fraction(i % 13 + 1, 7)
    return total


class SpeedClock:
    """``mark()`` then ``elapsed(mark)`` gives (raw, reference) seconds."""

    def __init__(self):
        self.samples = []  # kernel seconds, one per timer tick
        self.kernel_s = 0.0  # total time spent in the kernel
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.kernel_s += took

    def mark(self) -> Tuple[float, float, int]:
        return time.perf_counter(), self.kernel_s, len(self.samples)

    def elapsed(self, mark) -> Tuple[float, float]:
        start, kernel_s, index = mark
        raw = time.perf_counter() - start - (self.kernel_s - kernel_s)
        window = self.samples[max(index - 1, 0):]
        if not window:
            return raw, raw
        return raw, raw * KERNEL_REFERENCE_S * len(window) / sum(window)
