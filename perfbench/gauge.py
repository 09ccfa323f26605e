"""The machine's current speed, sampled all through a run.

On a shared host the speed one process gets moves by tens of percent for
tens of seconds at a time, which no statistic over one run can remove.
``Gauge`` times a fixed pure-Python reference loop every ``PERIOD_S`` of
a run, from a ``SIGALRM`` handler, so the samples fall inside long items
as well as between short ones.  The time the samples take is taken out
of the item that they interrupted, and each item time is scaled by
``REFERENCE_S`` over the median reference time around it: an item time
then reads as it would on a machine where the reference loop takes
``REFERENCE_S``, whatever else the host runs.  The loop is the
benchmark's own code, so no change to the program moves it.

    gauge = Gauge()
    with gauge.running():
        t0 = perf_counter(); work(); t1 = perf_counter()
    scaled = gauge.scaled(t0, t1)
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter

# the reference loop's time on the 2-core machine the baseline was
# measured on, when nothing else ran there
REFERENCE_S = 0.0027
# a sample every PERIOD_S of wall time, so the reference loop takes about
# REFERENCE_S / PERIOD_S = 7 % of a run
PERIOD_S = 0.04
# an item is scaled by the samples taken while it ran, and by at least
# the NEIGHBOURS samples nearest to it
NEIGHBOURS = 15


def reference_loop() -> int:
    """Fixed interpreter work of the kind the program does: Gaussian
    elimination over F_2 of a 48 x 48 matrix held as lists of ints, with
    entries from a linear congruential generator.  Returns the rank."""
    n = 48
    x = 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row.append(x >> 30)
        rows.append(row)
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(n):
            if i != rank and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class Gauge:
    def __init__(self):
        # start and end of every sample, in the order taken
        self.start: list[float] = []
        self.end: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.start.append(t0)
        self.end.append(t1)

    @contextmanager
    def running(self):
        """Take a sample every PERIOD_S of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, t0: float, t1: float) -> float:
        """The time from t0 to t1 less the samples taken in it, times
        REFERENCE_S over the median sample time: of the samples taken in
        it, or of the NEIGHBOURS nearest to its middle where fewer were."""
        if not self.start:
            raise RuntimeError("no reference samples taken")
        lo = bisect_left(self.start, t0)
        hi = bisect_left(self.start, t1)
        inside = [self.end[j] - self.start[j] for j in range(lo, hi)]
        if len(inside) >= NEIGHBOURS:
            durations = inside
        else:
            mid = 0.5 * (t0 + t1)
            window = range(max(0, lo - NEIGHBOURS), min(len(self.start), hi + NEIGHBOURS))
            nearest = sorted(window, key=lambda j: abs(self.start[j] + self.end[j] - 2 * mid))
            durations = [self.end[j] - self.start[j] for j in nearest[:NEIGHBOURS]]
        return (t1 - t0 - sum(inside)) * REFERENCE_S / statistics.median(durations)
