"""Machine-speed calibration, so that times from a shared host compare.

On a host shared with other tenants the speed of one core changes by up
to 1.7x within seconds, and a whole run can land in a slow or a fast
stretch.  A fixed calibration loop, which runs no mdop code, is timed
again and again between the timed operations of a run; the run's wall
times are then multiplied by REFERENCE_S / (the loop's mean time).  A
timing is thus given in seconds at the reference speed: the speed at
which the loop takes REFERENCE_S.  A faster mdop lowers these times
exactly as it lowers wall times; a slower or busier machine does not
move them.

The loop does what mdop's kernel does most: Fraction arithmetic and dict
updates keyed by small tuples.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About the loop's mean time in the workloads on a 2-vCPU VM with Python
# 3.11.7, so that times there stay near wall time.  It is a fixed unit:
# changing it rescales every time the benchmark reports.
REFERENCE_S = 0.0045
LOOP_SIZE = 1500


def _loop() -> int:
    acc: dict[tuple[int, int], Fraction] = {}
    for k in range(LOOP_SIZE):
        key = (k % 7, k % 5)
        acc[key] = acc.get(key, 0) + Fraction(k % 13 - 6, k % 11 + 1)
    return len(acc)


def calibrate() -> float:
    """Median wall time of three runs of the calibration loop, in seconds.

    The garbage collector is off meanwhile: a full collection walks the
    whole heap of the calling process, which would make the loop's time
    depend on what that process holds.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class SpeedProbe:
    """Samples the machine's speed through a run.

    Timed work is reported with ``add``; after every ``every`` seconds of
    it the calibration loop runs again, so the samples spread over the run
    as the work does.  ``factor`` turns the run's wall times into times at
    the reference speed.  One factor for the whole run, from the mean of
    all samples, is steadier than a factor per stretch of work: the speed
    changes faster than a short loop can follow, and the mean of many
    loops still weighs slow and fast stretches as the run met them.
    """

    def __init__(self, every: float = 0.2):
        self.every = every
        self.pending = 0.0
        self.calibrations = [calibrate()]

    def add(self, seconds: float) -> None:
        self.pending += seconds
        if self.pending >= self.every:
            self.sample()

    def sample(self) -> None:
        self.calibrations.append(calibrate())
        self.pending = 0.0

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.calibrations)
