"""The host's speed during a run, so that timings can be taken out of it.

The benchmark runs on a shared machine whose speed moves by itself: for
seconds at a time the same pure-Python code runs 20-40% slower, in wall
and in CPU time alike. While a probe is running, a timer signal every
PERIOD_S seconds runs a fixed reference loop between two bytecodes of
whatever the process is doing (a query, an ordering, an oracle check) and
records how long the loop took. A timing is then scaled to a host on
which the loop takes NOMINAL_S:

    dt * NOMINAL_S / (median reference time within WINDOW_S of the timing)

The reference loop is the benchmark's own code and only uses the
interpreter, so a change to the program cannot move it. The time the
probe takes is subtracted from the timing it interrupted (``spent``).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
WINDOW_S = 0.5
REFERENCE_STEPS = 2000
# The reference loop's time on the machine the baseline was recorded on,
# at its usual speed, so scaled timings read close to measured ones there.
NOMINAL_S = 90e-6


# Every value the loop touches is a small int, which CPython caches: the
# loop allocates nothing, so the program's heap cannot change its speed.
_STEPS = tuple(i % 97 for i in range(REFERENCE_STEPS))


def reference() -> int:
    total = 0
    for x in _STEPS:
        total = (total + x) & 127
    return total


class HostSpeed:
    """Reference-loop samples taken from a timer signal while started."""

    def __init__(self):
        self.stamps: list[float] = []
        self.loops: list[float] = []
        self.spent = 0.0
        self._saved = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.loops.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved or signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from a timing over [t0, t1] to the nominal host; 1.0
        when no sample lies near it."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        if lo == hi:
            return 1.0
        return NOMINAL_S / statistics.median(self.loops[lo:hi])

    def median_loop_s(self) -> float:
        return statistics.median(self.loops) if self.loops else NOMINAL_S
