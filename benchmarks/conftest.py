"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures, prints the
measured rows (and, where the paper reports numbers, the paper's values next
to them), and asserts the qualitative shape — who wins, by roughly what
factor, where crossovers fall.  Run with ``pytest benchmarks/ --benchmark-only``
(add ``-s`` to see the printed tables).

Tests that compare a production path with its scalar twin import the
tests-side reference oracle (``tests/reference.py``), so the ``tests``
directory is put on the import path here.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Callable, Tuple

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def best_of(fn: Callable[[], Any], rounds: int = 2) -> Tuple[float, Any]:
    """``(best wall-clock seconds, last result)`` over ``rounds`` runs.

    Taking the minimum discards scheduler noise and first-run warmup (cache
    population, lazy imports), which is what a speedup *ratio* should be
    computed from; the result is returned so callers can assert correctness
    on exactly what was timed.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.fixture(name="best_of")
def best_of_fixture() -> Callable:
    """The shared :func:`best_of` timing helper."""
    return best_of
