"""Speed gauge: a fixed reference kernel timed between the measured commands.

The shared hosts this benchmark runs on change speed while it runs: by
about 20% from one minute to the next, and by up to a factor of two
within a minute.  The slow-down is per instruction (process CPU time
drifts with wall time, steal time stays near zero), so no choice of clock
removes it, and a median over a 20 s run keeps most of it.  The reference
kernel below does a fixed amount of the program's own kind of work,
scalar float math in a Python loop and numpy operations on small arrays.
It is timed before a round's first command and after each command; the
round's times are scaled by REFERENCE_SECONDS over the median of those
gauges.  A scaled time is the time on a host at which the kernel takes
REFERENCE_SECONDS, the "reference speed".  On a 2-vCPU VM, two sets of ten
runs per workload spread 3-8% (IQR/median) in scaled round time and 8-24%
raw; the scaled medians of the two sets agreed within 2%, the raw ones
differed by up to 22%.

The kernel never calls spectral_billiards, so a change to the program
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# the kernel's time on the VM the benchmark was written on, in a quiet spell
REFERENCE_SECONDS = 0.010
REPEATS = 3

_GRID = np.linspace(0.0, 1.0, 1024)


def reference_kernel() -> float:
    acc = 0.0
    sqrt, cos = math.sqrt, math.cos
    for i in range(40000):
        x = i * 1.5e-4
        acc += sqrt(1.0 + x * x) * cos(x)
    for _ in range(400):
        acc += float(np.dot(_GRID, np.sqrt(_GRID + 1.0)))
    return acc


def gauge() -> float:
    """Median of REPEATS timings of the reference kernel, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(gauges) -> float:
    """Factor that turns seconds measured among these gauges into seconds
    at reference speed."""
    return REFERENCE_SECONDS / statistics.median(gauges)
