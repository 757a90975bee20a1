"""Host-speed calibration for the benchmark's timings.

A shared host changes speed from second to second (a plain CPU loop's
time moves by 20-30% between a fast and a slow state, and CPU time moves
with it, so process CPU time does not help).  The benchmark therefore
times a fixed calibration loop right before and right after every timed
interval, and every PERIOD_S during it (from a timer signal; the time
the samples take is left out of the interval), and reports the interval
scaled to a reference host speed:

    scaled = raw * REFERENCE_S / mean(calibration samples)

The loop mixes the two kinds of work polyseg does: interpreted Python
(dict lookups, integer and float arithmetic) and single-threaded numpy
element-wise arithmetic.  It does not touch polyseg, so a change to
polyseg moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the calibration time at the reference speed, about the loop's usual time
# on the 2-vCPU Xeon host the first baseline was recorded on: a timing reads
# the same in scaled and raw seconds when the host runs the loop in this time
REFERENCE_S = 0.0045
PERIOD_S = 0.25
_ROUNDS = 3
_ARRAY = np.linspace(0.0, 1.0, 20000)


def _python_part() -> float:
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(14000):
        key = (i * 7919) % 263
        counts[key] = counts.get(key, 0) + 1
        total += key * 0.5
    return total + len(counts)


def _numpy_part() -> float:
    a = _ARRAY
    total = 0.0
    for _ in range(16):
        total += float(np.exp(-a * a).sum() + np.log1p(a).sum())
    return total


def _round() -> float:
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the calibration loop takes now (median of a few rounds)."""
    return statistics.median(_round() for _ in range(_ROUNDS))


def scale(raw_s: float, samples: list[float]) -> float:
    """``raw_s`` in seconds at the reference host speed, given calibration
    samples taken around and during it."""
    return raw_s * REFERENCE_S / statistics.mean(samples)


class Meter:
    """Times one interval of the main thread, sampling the host speed
    every PERIOD_S while it runs.

        with Meter(before) as m:
            work()
        m.raw_s, m.samples, m.after_s, m.scaled_s
    """

    def __init__(self, before_s: float):
        self.samples = [before_s]
        self.raw_s = self.scaled_s = 0.0
        self._sampling_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_round())
        self._sampling_s += time.perf_counter() - start

    def __enter__(self) -> "Meter":
        # left installed on exit: a timer signal that is already pending
        # then adds one harmless sample instead of killing the process
        signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.raw_s = time.perf_counter() - self._start - self._sampling_s
        self.after_s = calibrate()
        self.samples.append(self.after_s)
        self.scaled_s = scale(self.raw_s, self.samples)
