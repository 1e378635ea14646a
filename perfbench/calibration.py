"""The host-speed calibration shared by run.py and worker.py.

The speed of a pure-Python loop on the host this benchmark was written on
drifts by up to a factor of two on a scale of seconds.  A fixed kernel,
timed next to the work, says how fast the host was; ``rate`` turns its
samples into the factor that brings a measured time to reference seconds.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# duration of the kernel that defines one reference second: its typical
# time on the 2-vCPU KVM host the benchmark was defined on, in that host's
# faster state
KERNEL_REF_S = 0.00105
PERIOD = 0.1          # seconds of wall time between samples inside a pass


def kernel() -> int:
    """The calibration kernel, 1.0-2.0 ms: tuples hashed into a dict and
    Fraction arithmetic, the interpreter work entrokit does most.  Its time
    tracks the workloads' speed closer than a plain integer loop does."""
    seen, acc = {}, 0
    for i in range(4000):
        seen[i, i * 7 % 13] = i
        acc += len(seen) % 5
    return acc + sum(Fraction(i, 7) for i in range(150)).numerator


def timed_kernel() -> float:
    """One sample: the kernel's time on its second run.  The untimed first
    run brings its code and data into the CPU caches, and the collector
    stays off, since a collection would scan the caller's heap and make
    the sample depend on how many objects the caller holds."""
    collecting = gc.isenabled()
    gc.disable()
    kernel()
    start = time.perf_counter()
    kernel()
    took = time.perf_counter() - start
    if collecting:
        gc.enable()
    return took


def rate(samples) -> float:
    """Reference seconds per wall second over the span the samples cover;
    each sample stands for an equal slice of it."""
    if not samples:
        return 1.0
    return statistics.fmean(KERNEL_REF_S / k for k in samples)


class Sampler:
    """Samples the host's speed every PERIOD seconds of wall time from a
    SIGALRM handler on the calling thread, while the ``with`` block runs."""

    def __init__(self):
        self.samples = []     # kernel times, seconds
        self.spent = 0.0      # time the handler took from the caller

    def clock(self) -> float:
        """perf_counter without the handler's time: a span timed by it does
        not count the samples taken inside it."""
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(timed_kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
