"""Speed-normalized timing for a machine whose speed drifts.

On a shared virtual machine the same pass can take 25-60% longer for
stretches of tens of seconds, because other tenants load the host cores.
That drift is common to all code running at the time, so each timed
interval is rescaled by how long a fixed reference kernel took while it ran:

    normalized = (elapsed - time spent in the kernel) * KERNEL_NOMINAL_S / kernel time

where the kernel time is the mean of the samples taken, leaving out those
over three times the median: a sample the scheduler interrupted says
nothing about the speed of the CPU.

In a worker the kernel is sampled by a SIGALRM handler every
``INTERVAL_S`` during the measured code (about 1% overhead), so the sample
comes from whichever CPU the code is running on at that moment. Intervals
that contain fewer than ``MIN_SAMPLES`` samples use the nearest ones.
CLI processes cannot be sampled from inside; ``normalize_process`` scales
them by bare interpreter starts run just before and after them on the same
pinned CPU. ``calibrate`` runs the kernel in place, for intervals that are
not sampled.

A normalized second is a second at the speed where the kernel takes
``KERNEL_NOMINAL_S``; a change that makes the library do less work lowers
it in proportion, a slower host does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

KERNEL_NOMINAL_S = 75e-6
BARE_NOMINAL_S = 0.045
INTERVAL_S = 0.01
MIN_SAMPLES = 20
CALIBRATION_RUNS = 20

clock = time.perf_counter


_FRACTIONS = [Fraction(i, 3) for i in range(1, 8)]
_WORD = ("x", "y", "x", "y", "y")


def kernel() -> list:
    """Tuple slicing, dict updates and Fraction sums, like the library's inner loops."""
    acc: dict = {}
    for i in range(40):
        key = _WORD[i % 3 : i % 3 + 2] + (i % 4,)
        prev = acc.get(key)
        total = _FRACTIONS[i % 7] if prev is None else prev + _FRACTIONS[i % 7]
        if total:
            acc[key] = total
        else:
            del acc[key]
    return sorted(acc, key=repr)


class Sampler:
    """Times the kernel on a timer signal; start() and stop() bracket the measured code."""

    def __init__(self):
        self.times: list = []
        self.durations: list = []

    def _sample(self, signum, frame):
        t = clock()
        kernel()
        self.times.append(t)
        self.durations.append(clock() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, start: float, end: float) -> float:
        """Seconds of the interval not spent taking samples."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return (end - start) - sum(self.durations[lo:hi])

    def normalize(self, start: float, end: float) -> float:
        """Normalized seconds for the interval [start, end] of this process's clock."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        busy = self.busy(start, end)
        if hi - lo < MIN_SAMPLES:
            pad = (MIN_SAMPLES - (hi - lo) + 1) // 2
            lo, hi = max(0, lo - pad), min(len(self.times), hi + pad)
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no speed samples taken")
        return busy * KERNEL_NOMINAL_S / kernel_time(window)


def kernel_time(durations) -> float:
    """Mean kernel duration without the samples the scheduler interrupted."""
    limit = 3 * statistics.median(durations)
    return statistics.fmean([d for d in durations if d <= limit])


def normalize_process(seconds: float, bare: list) -> float:
    """Normalized seconds of a child process, from bare interpreter starts beside it.

    Process start-up is mostly kernel and loader work, which the Python
    kernel above does not track; a bare ``python -c pass`` next to the
    process does. A normalized process second is a second at the speed where
    a bare start takes ``BARE_NOMINAL_S``.
    """
    return seconds * BARE_NOMINAL_S / statistics.fmean(bare)


def calibrate() -> list:
    """Kernel durations measured now, on the CPU this process runs on."""
    out = []
    for _ in range(CALIBRATION_RUNS):
        t = clock()
        kernel()
        out.append(clock() - t)
    return out
