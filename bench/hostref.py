"""Host speed reference: fixed CPU work that no code of the package runs.

The reference host is a small virtual machine on a shared machine.  Its
speed drifts: the same search iteration takes 1.09 s in one minute and
1.36 s a few minutes later, with steal time reading zero and CPU time
tracking wall time, so the drift cannot be subtracted from the process's
own clocks.  The in-process workers therefore time :func:`reference` next
to every timed iteration; a *host factor* is the reference's median time
over ``REFERENCE_S``, its time on the reference host at rest.  Dividing a
measured time by the host factor expresses it at reference-host speed:
over 60-second windows this held an iteration's time within ±1.5-3.5%
where the raw time moved ±11%.

The reference mixes interpreter work (dict and tuple churn) with
small-array numpy calls, like the searches it stands next to, and runs
with the garbage collector off, so its time does not depend on how much
the workload keeps alive.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Seconds one :func:`reference` call takes on the reference host at rest.
REFERENCE_S = 0.024
#: Reference calls per sample point.
SAMPLES = 3

_BLOCK = (np.arange(1024, dtype=np.int64) * 37 % 61).reshape(64, 16)


def reference() -> float:
    """Seconds one fixed batch of interpreter and numpy work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        # A small table rebuilt many times: little memory, so the worker's
        # peak RSS stays the package's own.
        for _ in range(12):
            table = {}
            for i in range(5000):
                table[(i, i & 7)] = i * 3
            sum(v for k, v in table.items() if k[1] == 3)
        for _ in range(600):
            np.unique(_BLOCK, return_counts=True)
            np.bincount(_BLOCK.ravel())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample() -> List[float]:
    """``SAMPLES`` reference timings taken now."""
    return [reference() for _ in range(SAMPLES)]


def factor(timings: Sequence[float]) -> float:
    """Host factor of a set of reference timings (1.0 = reference host at
    rest; 1.3 = everything currently runs 30% slower)."""
    return statistics.median(timings) / REFERENCE_S
