"""Timings scaled to a fixed reference speed, so that work timed in a slow
phase of a shared machine reads the same as in a fast one.

The machine's speed is read from a probe: a small, fixed, interpreter-bound
kernel of the kind composec spends its time in (exact `Fraction`
arithmetic, tuple-keyed dicts, small allocations).  The probe never calls
composec, so nothing a change to composec does can alter its time, and it
runs with the cyclic collector off, so the size of composec's heap cannot
either.

`SpeedClock.time(fn)` runs `fn` and probes the speed before it, after it,
and every `INTERVAL` seconds while it runs (an interval timer interrupts
it).  The probes' own time is left out.  Each stretch between two probes is
scaled by `REFERENCE_S` over the mean of those two probes' times.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# probe seconds at the reference speed: about the probe's time on a 2-core
# Intel Xeon VM with Python 3.11 in its fast phases, so that scaled seconds
# read close to wall seconds there
REFERENCE_S = 0.015
REPEATS = 3
INTERVAL = 0.5


def _kernel() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(1, 6000):
        acc += Fraction(i % 7, i % 11 + 1)
        table[(i, i % 13)] = (acc.numerator & 255, i)
        if len(table) > 500:
            table.clear()


def probe() -> float:
    """Median seconds of `REPEATS` runs of the kernel, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class SpeedClock:
    """Times calls in wall seconds and in seconds at the reference speed.

    `on_probe(start, end)`, if given, is told the span of every probe made
    while a call runs (the tracer records it so no layer is charged)."""

    def __init__(self, on_probe=None) -> None:
        self.on_probe = on_probe
        self.last = probe()

    def time(self, fn):
        """Run `fn()`.  Returns (wall seconds, seconds at the reference
        speed, fn's result or the exception it raised)."""
        wall = at_reference = 0.0
        mark = perf_counter()

        def stretch_ends() -> None:
            nonlocal wall, at_reference, mark
            end = perf_counter()
            speed = probe()
            wall += end - mark
            at_reference += (end - mark) * REFERENCE_S / ((self.last + speed) / 2)
            self.last = speed
            mark = perf_counter()
            if self.on_probe is not None:
                self.on_probe(end, mark)

        previous = signal.signal(signal.SIGALRM, lambda signum, frame: stretch_ends())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn()
        except Exception as exc:  # the caller judges it
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        stretch_ends()
        return wall, at_reference, result
