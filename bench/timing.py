"""Reference-normalised timing.

The CPU of the machine this benchmark was written on (2 vCPUs, no
hardware counters available to an unprivileged process) switches
between fast and slow phases, some shorter than one op.  Every op is
therefore timed together with a fixed reference probe, and reported as
``net wall / trimmed mean probe time * PROBE_SECONDS``: the op's time at
a fixed reference speed.  Probes run right before and after the op, and
an interval timer also runs one every ``PROBE_INTERVAL`` seconds while
the op is in progress, so the speed of a phase change inside a long op
is measured too.  The probes' own time is subtracted from the op.  Raw
wall and CPU seconds and the probe time are kept, so raw figures can be
recovered.

The probe must stay frozen once a baseline has been taken: changing it
rescales every normalised time.  It imports nothing from ``ddce``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: normalised seconds assigned to one probe
PROBE_SECONDS = 0.0004
#: seconds between probes while an op runs
PROBE_INTERVAL = 0.02
#: probes before and after every op
BRACKET = 5

_V = np.array([0.3, 0.4, 0.5])
_W = np.array([0.5, -0.2, 0.1])


def probe() -> float:
    """Run the fixed reference work once; return its wall seconds.

    Two halves: float math and numpy calls on 3-vectors (like the
    per-face kernel) and building and sorting a dict of tuple keys (like
    the surface rebuild).  Each half alone tracks its kind of op better
    than the other kind, because the machine's slow phases do not slow
    every kind of work alike.
    """
    start = time.perf_counter()
    acc = 0.0
    v, w = _V, _W
    for k in range(4):
        x = 0.1 + 0.01 * k
        for _ in range(6):
            x = math.sqrt(x * x + 1.0) - math.atan(x) * 0.5 + math.cosh(0.1 * x)
        c = np.cross(v, w)
        acc += float(np.dot(c, v)) + x + float(np.linalg.norm(c))
        v, w = w, c / (1.0 + float(np.linalg.norm(c)))
    table = {}
    for j in range(150):
        key = ((j * 37) % 97, j % 3)
        table[key] = table.get(key, 0) + j
    acc += len(sorted(table.items()))
    if not math.isfinite(acc):
        raise RuntimeError("reference probe produced a non-finite value")
    return time.perf_counter() - start


class Sample:
    """One timed op: net wall and CPU seconds (probes removed) and the
    trimmed mean probe time around and during it."""

    __slots__ = ("wall_s", "cpu_s", "ref_s")

    def __init__(self, wall_s: float, cpu_s: float, ref_s: float):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.ref_s = ref_s

    @property
    def norm_s(self) -> float:
        return self.wall_s / self.ref_s * PROBE_SECONDS


def timed(fn, *args):
    """Call ``fn(*args)`` with reference probes around and during it.
    Returns the result and its Sample."""
    during = []

    def on_timer(_signum, _frame):
        during.append(probe())

    before = [probe() for _ in range(BRACKET)]
    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    after = [probe() for _ in range(BRACKET)]
    probe_time = sum(during)
    return result, Sample(t1 - t0 - probe_time, cpu1 - cpu0 - probe_time,
                          trimmed_mean(before + during + after))


def trimmed_mean(values) -> float:
    """Mean without the lowest and highest tenth: a probe that the
    scheduler interrupts reads long and would otherwise skew the mean."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])
