"""Machine-speed calibration for timings taken on a shared machine.

Other tenants of a shared VM slow this process by up to 1.9x, in phases
of seconds to over a minute, so raw timings of identical code spread by
more than any useful regression bound.  A Speedometer times a fixed
pure-Python kernel, doing the package's kind of work (sparse rational
polynomial products, exact elimination), from a SIGPROF handler every
CAL_INTERVAL_S of CPU time, so also in the middle of a long query; the
time its marks take is kept apart so that callers can subtract it.  An
interval is then rescaled by REFERENCE_KERNEL_S over the kernel's mean
time across the marks inside and around it: a timing in reference
seconds, the time the work would have taken had the kernel run at its
reference speed.  The kernel is part of the benchmark and never
changes with the package, so a change to the package moves the rescaled
timings in the same proportion as the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

CAL_INTERVAL_S = 0.1
# The kernel's time in the fast phase of a 2-core 2.1 GHz Xeon VM under
# Python 3.11: the reference speed that rescaled timings refer to.
REFERENCE_KERNEL_S = 0.0016


def kernel() -> None:
    """(x^2 - 2/7 y^2)^6 as a sparse dict, then an exact 8x9 row reduction.

    Self-contained on purpose: sharing code with the oracles would let an
    unrelated edit there move the reference speed.
    """
    base = {(2, 0): Fraction(1), (0, 2): Fraction(-2, 7)}
    poly = {(0, 0): Fraction(1)}
    for _ in range(6):
        out = {}
        for (a, b), c in poly.items():
            for (d, e), f in base.items():
                key = (a + d, b + e)
                out[key] = out.get(key, 0) + c * f
        poly = out
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(9)]
            for i in range(8)]
    rank = 0
    for col in range(9):
        pivot = next((i for i in range(rank, 8) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(8):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1


class Speedometer:
    def __init__(self):
        self.times = []      # perf_counter of each mark
        self.kernel = []     # kernel seconds at each mark (best of two)
        self.marking_s = 0.0  # seconds spent in marks so far

    def mark(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.kernel.append(best)
        self.marking_s += time.perf_counter() - start

    @contextlib.contextmanager
    def marking(self):
        """Mark every CAL_INTERVAL_S of the process's CPU time while inside."""
        previous = signal.signal(signal.SIGPROF, self.mark)
        self.mark()
        signal.setitimer(signal.ITIMER_PROF, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self.mark()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per second over [start, end]."""
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        return REFERENCE_KERNEL_S / statistics.mean(self.kernel[lo:hi + 1])
