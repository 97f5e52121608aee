"""Host-speed calibration for the end-to-end times.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent over minutes: the same CLI process, even just its
interpreter start and imports, takes 0.5 s at one time and 0.9 s at
another.  A median over one run cannot remove a drift that outlasts the
run, so every end-to-end time is also reported scaled to a reference
host speed.

The yardstick is a fixed kernel that shares no code with twinsieve: a
pure-Python integer loop and numpy int64 modular products and a sort over
arrays larger than the L2 cache, the two kinds of work the CLI does.
``host_seconds`` times it ``REPS`` times in the benchmark's own process
and returns the fastest, so a short burst of contention during the
calibration itself does not count.  A sample's scaled time is its raw
time multiplied by ``REFERENCE_S / host_seconds``, with ``host_seconds``
the mean of the calibrations just before and just after it.
``REFERENCE_S`` only fixes the scale: it is the kernel's typical time on
a 2-vCPU cloud host, so scaled times read close to raw ones there.
"""

from __future__ import annotations

import time

import numpy as np

REPS = 3
REFERENCE_S = 0.080  # the kernel's time at the reference host speed

_MOD = 998_244_353
_A = np.arange(1, 1 << 20, dtype=np.int64)


def kernel() -> int:
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    acc = 0
    for i in range(1, 270_000):
        acc = (acc * 31 + i * i) % 1_000_003
    b = (_A * 40_503) % _MOD
    for _ in range(4):
        b = (b * b + 3) % _MOD
    b.sort()
    return acc ^ int(b[::4096].sum())


def host_seconds() -> float:
    """Fastest of ``REPS`` timed kernel runs, in seconds."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
