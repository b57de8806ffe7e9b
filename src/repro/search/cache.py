"""Memoization of cost-model values.

The co-search prices the same (workload-shape, arch, mapping, layout)
tuple many times: repeated layer shapes inside one model, the same shapes
across requests of one :class:`repro.api.Session`, and the canonical
weight-stationary mapping that the mapper appends to every sampled space.
:class:`EvaluationCache` memoizes each pair's value entry — the
``(total_cycles, total_energy_pj, slowdown)`` triple of
:meth:`~repro.layoutloop.cost_model.CostModel.evaluate_values`, never a
report: a search builds one report, its winner's, from the winner's
memoized slowdown.  It keeps hit/miss accounting so callers can report
cache effectiveness.  :meth:`EvaluationCache.evaluate_batch` is its one
counted lookup-and-store routine: it prices a mapping's misses through
one ``evaluate_values`` call.  The columnar scan of a slowdown-free design
(:meth:`repro.layoutloop.mapper.Mapper.search`) prices its whole universe
at once and never reads the memo: it stores nothing and counts its scored
pairs as misses (:meth:`EvaluationCache.count_misses`).  The per-pair
scalar memo the golden oracle replays lives in ``tests/reference.py``.

Entries are stored per (arch + energy, workload shape, mapping) prefix, so
a batch hashes that prefix once and each layout by its name.  Caches are
plain dictionaries: a cache is owned by one process (workers in the
parallel engine each build their own) and entries are immutable tuples,
so sharing them is safe.  A cache may also be shared by the *threads* of
one process (a :class:`repro.api.Session` serving concurrent requests):
entry storage and hit/miss accounting are guarded by a lock, so concurrent
lookups never corrupt the dict or lose counter increments.  The lock is
per-operation — two threads missing the same key both evaluate and both
store (idempotent: evaluations are deterministic), which keeps the hot hit
path cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.search.signatures import (
    arch_signature,
    layout_signature,
    mapping_signature,
    workload_signature,
)

#: A memoized value: ``(total_cycles, total_energy_pj, slowdown)``.
Entry = Tuple[float, float, float]


@dataclass
class CacheStats:
    """Hit/miss counters of one cache (or the merged counters of several)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Pairs priced or served: every counted lookup, plus the pairs a
        columnar scan priced without the memo."""
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
    """Memoizes value entries per (workload-shape, arch, mapping, layout).

    Keys are built from :mod:`repro.search.signatures` — never from layer or
    mapping names — so one instance may be shared by mappers for different
    architectures.  :meth:`evaluate_batch` is the counted
    lookup-and-store of one mapping's layouts; :meth:`get`/:meth:`put`
    are the raw counted lookup and store under the flat 4-part key
    ``(arch, workload, mapping, layout)`` signature tuple;
    :meth:`count_misses` counts pairs priced without the memo; and
    ``len()`` counts (mapping, layout) pairs.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple, Dict[str, Entry]] = {}
        self.stats = CacheStats()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(row) for row in self._entries.values())

    def get(self, key: Tuple) -> Optional[Entry]:
        """Look up an entry; counts a hit or miss. Returns None on miss."""
        with self._lock:
            entry = self._entries.get(key[:3], {}).get(key[3])
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return entry

    def put(self, key: Tuple, entry: Entry) -> None:
        """Store the entry computed for ``key``."""
        with self._lock:
            self._entries.setdefault(key[:3], {})[key[3]] = entry

    def count_misses(self, pairs: int) -> None:
        """Count ``pairs`` (mapping, layout) pairs priced without the memo
        as misses, in one locked step; nothing is stored."""
        with self._lock:
            self.stats.misses += pairs

    def evaluate_batch(self, cost_model, workload, mapping, layouts,
                       compute_cycles: Optional[int] = None
                       ) -> List[Tuple[Entry, bool]]:
        """Memoized values of one mapping under many layouts.

        Returns ``[(entry, was_hit), ...]`` in layout order.  Every layout
        is one counted lookup (a layout repeated within the call is a miss
        on first sight and a hit on every repeat), and all misses are
        priced together by one
        :meth:`~repro.layoutloop.cost_model.CostModel.evaluate_values` call
        (``compute_cycles`` is passed through), which runs outside the
        lock.  Cache keys exclude free-text names, so a hit may come from a
        different layer/mapping label than the current call's; entries
        carry no names.
        """
        prefix = (arch_signature(cost_model.arch),
                  workload_signature(workload), mapping_signature(mapping))
        names = [layout_signature(layout) for layout in layouts]
        out: List = [None] * len(names)
        missing: Dict[str, int] = {}  # first position of each missing name
        repeats = 0  # repeats of a missing name: hits once the batch lands
        with self._lock:
            # The prefix is hashed once: misses land in the same row.
            row = self._entries.setdefault(prefix, {})
            for i, name in enumerate(names):
                entry = row.get(name)
                if entry is not None:
                    out[i] = (entry, True)
                elif name in missing:
                    repeats += 1
                else:
                    missing[name] = i
            self.stats.misses += len(missing)
            self.stats.hits += len(names) - len(missing)
        if missing:
            fresh = cost_model.evaluate_values(
                workload, mapping, [layouts[i] for i in missing.values()],
                compute_cycles)
            with self._lock:
                for (name, i), entry in zip(missing.items(), fresh):
                    row[name] = entry
                    out[i] = (entry, False)
            if repeats:
                for i, name in enumerate(names):
                    if out[i] is None:
                        out[i] = (out[missing[name]][0], True)
        return out

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()
