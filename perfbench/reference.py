"""The reference loop that the benchmark's timings are scaled by.

On a shared machine, speed drifts by up to a third within seconds to
minutes under other tenants' load, moving every measurement taken at
the time alike.  A fixed pure-Python loop that touches no library code
is timed next to each measurement, and the measurement is reported at
the speed where the loop takes REFERENCE_NS: it is multiplied by
REFERENCE_NS over the loop's local median.  That cancels most of the
drift; a program change does not move the loop, so it moves the scaled
figures in full.
"""

from __future__ import annotations

import time

REFERENCE_NS = 2_000_000


def reference_ns() -> int:
    """Wall time of one run of the fixed loop."""
    t0 = time.perf_counter_ns()
    x = 0
    for i in range(20000):
        x = (x * 31 + i) % 1000003
    return time.perf_counter_ns() - t0
