"""CPU-speed probe, so that contention from outside shows apart from the program's cost.

On a shared machine the same pure-Python work runs up to twice as slowly
while other tenants load the physical core, in phases from a fraction of a
second to minutes. CPU time tracks wall time through these phases, so
neither can separate them. The probe times a fixed loop of 3000 map steps
(about 0.5 ms) from a signal handler after every 30 ms of the measured
process's time, so about 2 % of it. A shorter loop mostly measures the
cold start after the signal, which contention slows differently.
``factors`` gives, per interval, ``REFERENCE_S`` divided by the mean probe
time of the samples within ``WINDOW_S`` of it (contention phases last longer
than that; an interval of a few ms holds no sample of its own), raised to
``SENSITIVITY``; a time multiplied by it is expressed at the reference
speed, the probe's time on an uncontended core of a 2.1 GHz Xeon (CPython
3.11). On any one machine the scale is fixed, so runs and commits compare.

``SENSITIVITY`` is measured, not chosen: a log-log fit of invocation time
against probe time, over invocations of lyapunov, bifurcation and repro
under changing contention, gave slopes of 1.1 to 1.35: the program slows
more than the probe loop. With the slope taken as 1, the run-to-run spread
of the lyapunov and repro medians was about twice that with 1.25.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

PERIOD_S = 0.030
WINDOW_S = 0.15
REFERENCE_S = 500e-6
SENSITIVITY = 1.25


def _work() -> float:
    k = 0.3
    for _ in range(3000):
        k = 2.6 * k * math.log(1.0 / k)
    return k


class SpeedProbe:
    """Samples [start, seconds] of the fixed probe work on every timer tick.

    The default timer counts this process's CPU time, so a busy process is
    sampled as it works; ``signal.ITIMER_REAL`` counts wall time, for a
    process that waits while a child it started works on the same CPU.
    """

    def __init__(self, timer: int = signal.ITIMER_PROF):
        self.timer = timer
        self.signum = {signal.ITIMER_PROF: signal.SIGPROF, signal.ITIMER_REAL: signal.SIGALRM}[timer]
        self.samples: list[list[float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _work()
        self.samples.append([start, time.perf_counter() - start])

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(self.signum, self._sample)
        signal.setitimer(self.timer, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(self.timer, 0.0, 0.0)
        signal.signal(self.signum, self._previous)


def factors(samples: list[list[float]], intervals: list[tuple[float, float]]) -> list[float]:
    """Per interval, (REFERENCE_S / mean probe time of the samples near it) ** SENSITIVITY.

    An interval with no sample within WINDOW_S takes the nearest sample.
    """
    if not samples:  # a run too short for one timer tick is left unscaled
        return [1.0] * len(intervals)
    samples = sorted(samples)
    times = [s[0] for s in samples]
    out = []
    for start, end in intervals:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        if lo == hi:  # nothing near: the closest sample on either side
            lo = min(
                (i for i in (lo - 1, lo) if 0 <= i < len(times)),
                key=lambda i: min(abs(times[i] - start), abs(times[i] - end)),
            )
            hi = lo + 1
        speed = REFERENCE_S / statistics.fmean(s[1] for s in samples[lo:hi])
        out.append(speed**SENSITIVITY)
    return out
