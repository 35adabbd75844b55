"""Machine-speed reference for the benchmark's time metrics.

The cores of the box this benchmark was built on are shared.  For minutes
at a time a fixed pure-Python loop runs up to 1.5 times slower, and the
program slows with it.  At times the host also takes the virtual CPU away
(steal time), which stretches wall time but not CPU time.  Over 30 s
windows such a loop has a spread (quartile distance over median) of 0.15,
and longer windows barely less, so longer runs cannot remove it.

``Sampler`` times a fixed kernel every ``INTERVAL`` seconds from a SIGALRM
handler, in the benchmark's own thread, also while a request runs.  Each
request's wall time is then multiplied by ``KERNEL_REF_S`` over the mean
kernel wall time around it, and its CPU time by ``KERNEL_REF_S`` over the
mean kernel CPU time: the times it would have taken with the machine at the
kernel's reference speed.  The handler's own time is taken out of the
request's times.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Optional, Tuple

# Median kernel time on the box the benchmark was built on (2-core x86-64,
# Python 3.11.7), so that reference seconds read close to measured seconds
# there.
KERNEL_REF_S = 0.005
INTERVAL = 0.125


def kernel_seconds() -> Tuple[float, float]:
    """Wall and CPU seconds of one fixed exact-arithmetic loop.

    The collector is off while it runs, so the size of the program's heap
    cannot change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start, cpu = time.perf_counter(), time.process_time()
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(1, i) * Fraction(i + 1, i + 2)
        return time.perf_counter() - start, time.process_time() - cpu
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Periodic kernel samples while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []   # (start, wall, CPU)
        self.paused = 0.0          # wall seconds inside the handler
        self.paused_cpu = 0.0      # CPU seconds inside the handler
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        self.samples.append((start, *kernel_seconds()))
        self.paused += time.perf_counter() - start
        self.paused_cpu += time.process_time() - cpu

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factors(self, start: Optional[float] = None,
                end: Optional[float] = None) -> Tuple[float, float]:
        """Reference seconds per measured wall and CPU second, from the
        samples within one interval of [start, end], or from all samples
        when no bounds are given."""
        window = self.samples
        if start is not None:
            window = [s for s in window if start - INTERVAL <= s[0] <= end + INTERVAL] or window
        return (KERNEL_REF_S / statistics.fmean(s[1] for s in window),
                KERNEL_REF_S / statistics.fmean(s[2] for s in window))
