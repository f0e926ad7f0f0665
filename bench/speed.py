"""Machine-speed correction for the benchmark's timings.

On a shared 2-core virtual machine the same pure-Python loop ran up to 1.6
times slower for seconds at a time, and process CPU time slowed with it.  The benchmark therefore times a fixed calibration loop next
to the work and scales each stretch of work by CAL_REF_S over the loop's
time around it.  Corrected times are seconds as on a machine where the loop
takes CAL_REF_S; they cancel drift common to the loop and tubelat, and
nothing a change to tubelat does can move the loop.

- ``SpeedMeter`` samples the loop every CAL_EVERY_S from a SIGALRM timer,
  also in the middle of an op, and keeps a clock that stops while a sample
  runs; each stretch between two samples is scaled by CAL_REF_S over the
  mean of the two.
- ``loop_now`` gives the loop's time from a few runs, for work timed from
  outside, such as a worker's set-up.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

CAL_REF_S = 0.0015  # about the loop's median time on that VM, Python 3.11
CAL_EVERY_S = 0.05
CAL_GRAPH = {v: frozenset(u for u in range(8) if u != v and (u - v) % 3) for v in range(8)}


def _grow(found: set, current: frozenset, banned: frozenset) -> None:
    found.add(current)
    for v in sorted(set().union(*(CAL_GRAPH[u] for u in current)) - current - banned):
        _grow(found, current | {v}, banned | {w for w in CAL_GRAPH[v] if w < v})


def calibration_loop() -> float:
    """Seconds it takes now to grow the connected vertex sets of a fixed
    8-vertex graph: set, frozenset, recursion and sort work shaped like
    tubelat's own, but none of its code.  Of the loops tried, this one
    slowed most nearly in step with tubelat ops when the machine did."""
    start = time.perf_counter()
    found: set = set()
    for v in CAL_GRAPH:
        _grow(found, frozenset([v]), frozenset(range(v)))
    sorted(found, key=lambda s: (len(s), sorted(s)))
    return time.perf_counter() - start


class SpeedMeter:
    """Samples the calibration loop on a timer while running.

    ``now`` is a clock that leaves out the time spent in samples;
    ``corrected(a, b)`` turns an interval on it into reference seconds.
    """

    def __init__(self):
        self.paused = 0.0
        self.times: list = []  # on ``now``, when each sample was taken
        self.loops: list = []  # the loop's seconds in each sample

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _sample(self, *_) -> None:
        if len(self.times) > len(self.loops):  # a sample overran the period
            return
        at = self.now()
        self.times.append(at)
        start = time.perf_counter()
        loop = calibration_loop()
        self.paused += time.perf_counter() - start
        self.loops.append(loop)

    def __enter__(self) -> "SpeedMeter":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def corrected(self, a: float, b: float) -> float:
        total = 0.0
        k = max(0, bisect.bisect_right(self.times, a) - 1)
        while k + 1 < len(self.times) and self.times[k] < b:
            lo, hi = max(a, self.times[k]), min(b, self.times[k + 1])
            if hi > lo:
                total += (hi - lo) * 2 * CAL_REF_S / (self.loops[k] + self.loops[k + 1])
            k += 1
        return total


def loop_now(runs: int = 5) -> float:
    """The calibration loop's median time over a few back-to-back runs."""
    return statistics.median(calibration_loop() for _ in range(runs))

