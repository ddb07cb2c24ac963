"""Fixed reference kernel that gauges the host's current speed.

The benchmark host is a shared virtual machine whose speed drifts by a third
or more over tens of seconds to minutes, as other tenants load its cores and
caches.  Every operation runs ``kernel_s()`` just before and just after the
eochain command in the same interpreter; the benchmark divides the command's
times by the mean kernel time, which cancels most of that drift.

The kernel imitates eochain's mix of work (vectorised NumPy trigonometry on
sample grids, scalar math in Python loops, dict and string churn) and
depends on nothing in eochain, so a change to the program leaves it as it
is.  Do not edit it: doing so changes every normalised time.
"""

import math
import time

import numpy as np

# Typical kernel_s() on the 2-core Xeon host (Python 3.11, NumPy 2.4) where
# the bounds were set.  Normalised times are scaled to it, so they read as
# seconds on that host at its typical speed.
NOMINAL_S = 0.24


def _work() -> float:
    acc = 0.0
    grid = np.linspace(0.0, 7 * 86400.0, 20_000)
    for k in range(30):
        u = 1.1e-3 * grid + 0.1 * k
        lat = np.degrees(np.arcsin(np.clip(0.9 * np.sin(u), -1.0, 1.0)))
        lon = np.degrees(np.arctan2(0.4 * np.sin(u), np.cos(u))) % 360.0
        acc += float(np.max(lat - lon)) + np.unique(np.round(lat)).size
    rows: dict[int, tuple] = {}
    for i in range(75_000):
        x = i * 0.37
        acc += math.atan2(math.sin(x), math.cos(x))
        rows[i % 1009] = (x, f"{x:.3f}", [i, x])
    total = 0
    for i in range(650_000):
        total += i * i
    return acc + len(rows) + total % 7


def kernel_s() -> float:
    """Wall seconds one run of the fixed reference work takes right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
