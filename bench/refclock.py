"""Timings expressed at a fixed reference speed.

The CPUs of a shared virtual machine run the same Python code up to 2x slower
for seconds to minutes while other tenants load the host, and such slow spells
outlast a benchmark run.  ``RefClock`` measures how fast the CPU is while the
requests run: a timer signal interrupts the running code every
``INTERVAL_S`` and times ``reference()``, a fixed mix of the work the package
does most (``Fraction`` arithmetic and dicts keyed by tuples of Fractions).
Each request's duration, less the reference samples taken inside it, is then
scaled by ``REF_NOMINAL_S`` over the median reference sample within
``WINDOW_S`` of the request: the time it would have taken on a CPU that runs
``reference()`` in ``REF_NOMINAL_S``.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.3
EDGE_SAMPLES = 5
# reference() took 0.75-1.3 ms on the 2-vCPU Xeon VM (2.0 GHz, Python 3.11)
# the benchmark was defined on; normalized times are at a speed of 1 ms
REF_NOMINAL_S = 1e-3

_LEFT = {(i, Fraction(i, 3)): Fraction(i + 1, i + 2) for i in range(8)}
_RIGHT = {(j, Fraction(-j, 5)): Fraction(2 * j + 1, j + 3) for j in range(6)}


def reference():
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(i, i + 7) * Fraction(3, i + 1)
    product = {}
    for (i, q), c in _LEFT.items():
        for (j, p), d in _RIGHT.items():
            key = (i + j, q + p)
            product[key] = product.get(key, 0) + c * d
    return x, product


class RefClock:
    """Context manager that samples ``reference()`` before, during (on a
    timer signal) and after the block it wraps."""

    def __init__(self):
        self.samples = []    # (start, seconds), in start order

    def sample(self):
        t0 = perf_counter()
        reference()
        self.samples.append((t0, perf_counter() - t0))

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        for _ in range(EDGE_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def speed(self):
        """Median reference sample over the whole block, in seconds."""
        return statistics.median(d for _, d in self.samples)

    def durations(self, intervals):
        """(raw, normalized) seconds of each (start, end) interval; raw is the
        interval less the reference samples taken inside it."""
        starts = [t for t, _ in self.samples]
        spent = [0.0] + list(accumulate(d for _, d in self.samples))
        out = []
        for t0, t1 in intervals:
            lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
            raw = t1 - t0 - (spent[hi] - spent[lo])
            lo = bisect.bisect_left(starts, t0 - WINDOW_S)
            hi = bisect.bisect_right(starts, t1 + WINDOW_S)
            local = statistics.median(d for _, d in self.samples[lo:hi] or self.samples)
            out.append((raw, raw * REF_NOMINAL_S / local))
        return out
