"""Memoization of cost-model evaluations.

The co-search evaluates the same (workload-shape, arch, mapping, layout)
tuple many times: repeated layer shapes inside one model, the same shapes
across experiments (Fig. 9-14 all sweep ResNet-50), and the canonical
weight-stationary mapping that the mapper appends to every sampled space.
:class:`EvaluationCache` memoizes the resulting
:class:`~repro.layoutloop.cost_model.CostReport` objects and keeps hit/miss
accounting so callers can report cache effectiveness.  Its one scoring
entry point, :meth:`EvaluationCache.evaluate_batch`, prices every miss
through the batched cost model; the per-pair scalar memo the golden
oracle replays lives in ``tests/reference.py``.

Caches are plain dictionaries: a cache is owned by one process (workers in
the parallel engine each build their own) and reports are immutable
dataclasses, so sharing the cached instance is safe.  A cache may also be
shared by the *threads* of one process (a :class:`repro.api.Session`
serving concurrent requests): entry storage and hit/miss accounting are
guarded by a lock, so concurrent lookups never corrupt the dict or lose
counter increments.  The lock is per-operation — two threads missing the
same key both evaluate and both ``put`` (idempotent: evaluations are
deterministic), which keeps the hot hit path cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.search.signatures import (
    arch_signature,
    layout_signature,
    mapping_signature,
    workload_signature,
)


@dataclass
class CacheStats:
    """Hit/miss counters of one cache (or the merged counters of several)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the element-wise sum of two counters (both unchanged)."""
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses)

    def __str__(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.1%} hit rate)")


class EvaluationCache:
    """Memoizes cost-model reports per (workload-shape, arch, mapping, layout).

    Keys are built from :mod:`repro.search.signatures` — never from layer or
    mapping names — so one instance may be shared by mappers for different
    architectures or energy calibrations.  :meth:`evaluate_batch` is the
    memoized scoring entry point; :meth:`get`/:meth:`put` are the raw
    counted lookup and store it is built from.
    """

    def __init__(self) -> None:
        self._reports: Dict[Tuple, object] = {}
        self.stats = CacheStats()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._reports)

    def get(self, key: Tuple):
        """Look up a report; counts a hit or miss. Returns None on miss."""
        with self._lock:
            report = self._reports.get(key)
            if report is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return report

    def put(self, key: Tuple, report) -> None:
        """Store the report computed for ``key``."""
        with self._lock:
            self._reports[key] = report

    def evaluate_batch(self, cost_model, workload, mapping, layouts
                       ) -> List[Tuple[object, bool]]:
        """Memoized evaluation of one mapping under many layouts.

        Returns ``[(report, was_hit), ...]`` in layout order.  Every layout
        is one counted lookup (a layout repeated within the batch is a miss
        on first sight and a hit on every repeat), and all misses are
        priced together by one
        :meth:`~repro.layoutloop.cost_model.CostModel.evaluate_mapping_batch`
        call.  Cache keys exclude free-text names, so a hit may come from a
        different layer/mapping label than the current call's; hits are
        returned as copies relabelled with the caller's names and carrying
        their own breakdown dict, so no returned report aliases mutable
        state with the cached entry (a private copy is stored for the same
        reason).
        """
        prefix = (arch_signature(cost_model.arch, cost_model.energy),
                  workload_signature(workload), mapping_signature(mapping))
        keys = [prefix + (layout_signature(layout),) for layout in layouts]
        out: List = [None] * len(keys)
        missing = {}   # first occurrence of each missing key -> position
        deferred = []  # repeats of a missing key: hits once the batch lands
        for i, (key, layout) in enumerate(zip(keys, layouts)):
            if key in missing:
                deferred.append(i)
                continue
            report = self.get(key)
            if report is not None:
                out[i] = (self._relabel(report, workload, mapping, layout), True)
            else:
                missing[key] = i
        if missing:
            indices = list(missing.values())
            fresh = cost_model.evaluate_mapping_batch(
                workload, mapping, [layouts[i] for i in indices])
            for i, report in zip(indices, fresh):
                self.put(keys[i], replace(
                    report, energy_breakdown_pj=dict(report.energy_breakdown_pj)))
                out[i] = (report, False)
        for i in deferred:
            # A duplicate layout is a miss on first sight and a (counted)
            # hit on every repeat.
            report = self.get(keys[i])
            out[i] = (self._relabel(report, workload, mapping, layouts[i]), True)
        return out

    @staticmethod
    def _relabel(report, workload, mapping, layout):
        """Copy of a cached report with the current call's identity labels
        and a fresh breakdown dict (never the cached entry's)."""
        return replace(report,
                       workload=getattr(workload, "name", str(workload)),
                       mapping=mapping.name, layout=layout.name,
                       energy_breakdown_pj=dict(report.energy_breakdown_pj))

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._reports.clear()
            self.stats = CacheStats()
