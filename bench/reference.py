"""A fixed stdlib loop that measures how fast the host runs Python right now.

The benchmark runs on shared hosts whose speed changes many times a second
(a vCPU runs about 1.8 times slower while another tenant shares its core)
and whose share of slow time drifts over minutes.  A ``Sampler`` times the
loop every ``INTERVAL_S`` of wall time, from a SIGALRM handler in the
worker's own thread, so the samples see the same mix of fast and slow time
as the glab code they interrupt.  A pass's wall time, less the time spent in
the handler, is rescaled by the mean sample to the host speed at which the
loop takes ``NOMINAL_S``.  Drift cancels, while a change in glab does not:
the loop uses no glab code.

The loop is exact ``Fraction`` arithmetic on small numbers, like glab's
inner loops, and keeps no table.  The garbage collector is off while it
runs, so the size of glab's heap does not change its time.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

STEPS = 200
NOMINAL_S = 0.0025  # the scale: rescaled times are seconds at this loop time
ANSWER = Fraction(5867395459303, 156796318800)
INTERVAL_S = 0.05  # between samples while operations run
SETUP_INTERVAL_S = 0.01  # between samples while a worker sets up


def _loop() -> Fraction:
    acc = Fraction(0)
    for i in range(1, STEPS):
        acc = (acc + Fraction(i, i + 1)) * Fraction(i + 2, i + 3) - Fraction(1, i)
        if acc.denominator > 10**40:
            acc = Fraction(acc.numerator % 97, acc.denominator % 89 + 1)
    return acc


def sample() -> float:
    """Seconds for one run of the loop.

    About 1.2 ms in a tight loop on an idle host, and 2 to 3 ms when it
    interrupts glab, whose code and data it finds in the caches.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = _loop()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc != ANSWER:
        raise RuntimeError("host reference loop gave a wrong answer")
    return dt


def rescale(seconds: float, samples: list) -> float:
    """``seconds`` of wall time, taken while the loop took ``samples``, at the
    host speed where the loop takes NOMINAL_S."""
    return seconds * NOMINAL_S / statistics.mean(samples)


class Sampler:
    """Samples the loop every ``interval`` seconds from SIGALRM while started.

    ``samples`` holds the loop times; ``spent`` the wall time spent in the
    handler, which the worker subtracts from the operations it interrupted.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - t0

    def since(self, first: int) -> list:
        """The samples from index ``first`` on; one taken now if there are none."""
        return self.samples[first:] or [sample()]

    def start(self, interval: float):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
