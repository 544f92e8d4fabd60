"""Host-speed sampling, so timings can be read in reference-host seconds.

The benchmark's host is shared: the same pass of pure-Python work takes
anywhere from 2.0 to 3.3 s, and the host's speed state can last a whole run
or change within a pass. A calibration before and after a pass does not
follow it closely enough. ``HostClock`` samples the speed *while* the pass
runs: a SIGALRM timer fires every ``PERIOD_S`` seconds and its handler times
one ``reference_slice``, a fixed piece of exact arithmetic that belongs to
the benchmark, never to the package under test. The clock's ``now()`` leaves
out the time spent in the handler, so op timings do not include sampling.

``scaled(a, b)`` converts an interval of that clock to reference-host
seconds. The slices define a speed curve: around each slice, the speed
factor is ``REFERENCE_SLICE_S`` over the mean of the nearest slices, and the
interval is integrated against that curve. A program change that makes an
op faster shortens the interval; the curve does not depend on the program.
"""

from __future__ import annotations

import signal
from bisect import bisect_right
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# Mean time of one reference slice on the reference host (2 cores,
# Python 3.11.7), in its slow state.
REFERENCE_SLICE_S = 0.0057
PERIOD_S = 0.1
SETUP_SLICES = 5
NEIGHBOURS = 2  # slices on each side averaged into the local speed


def reference_slice() -> None:
    """A walker-like exact DP plus some big-integer products; 4-7 ms."""
    dist = {(0, 0): Fraction(1)}
    p = Fraction(3, 7)
    for _ in range(24):
        nxt: dict = {}
        for (r, s), mass in dist.items():
            nxt[(r + 1, s)] = nxt.get((r + 1, s), 0) + mass * p
            nxt[(r, s + 1)] = nxt.get((r, s + 1), 0) + mass * (1 - p)
        dist = nxt
    x = 3 ** 4000
    for _ in range(25):
        x = (x * 7 ** 900) >> 2000


def timed_slices(count: int) -> float:
    """Mean seconds of ``count`` reference slices run back to back."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        reference_slice()
        times.append(perf_counter() - t0)
    return fmean(times)


class PlainClock:
    """``perf_counter`` with no sampling and no scaling; used for traced
    passes, whose spans must not contain sampling time."""

    slices: tuple[float, ...] = ()

    def now(self) -> float:
        return perf_counter()

    def scaled(self, a: float, b: float) -> float:
        return b - a

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


class HostClock(PlainClock):
    """Samples the host's speed every PERIOD_S while active (see module doc)."""

    def __init__(self):
        self.slices: list[float] = []
        self._at: list[float] = []
        self._spent = 0.0
        self._previous = None
        self._curve = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_slice()
        t1 = perf_counter()
        self._at.append(t0 - self._spent)
        self.slices.append(t1 - t0)
        self._spent += perf_counter() - t0

    def now(self) -> float:
        """Seconds on a clock that stops while a slice runs."""
        while True:
            spent = self._spent
            t = perf_counter()
            if spent == self._spent:  # no slice ran in between
                return t - spent

    def scaled(self, a: float, b: float) -> float:
        """Reference-host seconds for the interval [a, b] of ``now()``.
        Call after the clock has stopped."""
        if not self.slices:
            return b - a
        if self._curve is None:
            n = len(self.slices)
            factors = [
                REFERENCE_SLICE_S / fmean(self.slices[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1])
                for i in range(n)
            ]
            # factor i holds between the midpoints to slices i-1 and i+1
            edges = [(self._at[i] + self._at[i + 1]) / 2 for i in range(n - 1)]
            self._curve = (edges, factors)
        edges, factors = self._curve
        total, i, lo = 0.0, bisect_right(edges, a), a
        while lo < b:
            hi = min(b, edges[i]) if i < len(edges) else b
            total += (hi - lo) * factors[i]
            lo, i = hi, i + 1
        return total

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
