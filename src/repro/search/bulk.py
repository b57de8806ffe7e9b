"""Bulk-bounds search core: whole-universe bound pipelines, one numpy pass.

Every search policy scans its candidates through a :class:`BulkUniverse`
instead of a materialized mapping list.  Admissible bound computation,
prune decisions, halving rung scores and frontier dominance bounds depend
only on a mapping's parallelism assignment, so they are computed for the
whole universe at once, and a :class:`~repro.dataflow.mapping.Mapping` is
built only for the entries that survive the prune.

:class:`BulkUniverse` represents a per-shape mapping universe
*symbolically*, as the flat sample indices of a
:class:`~repro.dataflow.space.MappingSpace` (parallelism-major order) plus a
small materialized tail (the canonical weight-stationary baselines), and
computes for the entire universe in single numpy passes:

* ``compute_cycles()`` — exact padded trip-count products (int64), computed
  once per *parallelism candidate* and gathered per flat index, since loop
  order never changes the product;
* ``bounds(metric, statics)`` — the admissible metric lower bound per
  entry, replicating the scalar float op order exactly (int cycles ->
  float64 ``+ reorder_cycles``, then one multiply for EDP), so every value
  is bit-identical to the per-mapping bound of the tests' scalar oracle
  (``tests/reference.py``);
* ``footprints(arch)`` — the exact integer tile footprints of
  :func:`repro.search.frontier.buffer_footprint_bytes`;
* ``columns()`` — what the energy model reads of each entry (parallel
  degrees, the two innermost loop dims, the reduction dims), which
  :meth:`repro.layoutloop.cost_model.CostModel.columnar_values` prices in
  one pass.

Mappings are only materialized lazily, on first ``universe[i]`` access —
i.e. only for entries that actually survive the bulk prune mask.

Exactness of the integer trip counts: the scalar
:meth:`~repro.dataflow.mapping.Mapping.compute_cycles` computes
``math.ceil(extent / degree)`` (float true division); the bulk pipeline uses
int64 ``(extent + degree - 1) // degree``.  The two agree whenever the float
quotient rounds within the same unit interval, which holds for all extents
below 2**52 — astronomically beyond any layer shape — and is pinned by the
hypothesis equivalence tests.
"""

from __future__ import annotations

import math
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.search.bounds import BoundStatics
from repro.search.frontier import buffer_footprint_bytes
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec


class MappingColumns(NamedTuple):
    """What the energy model reads of many mappings, one row per mapping."""

    dims: Tuple[str, ...]
    """Names of the ``degrees`` columns."""
    degrees: np.ndarray
    """(rows, dims) int64 spatial degree per dimension, 1 where
    unparallelised (``Mapping.parallel_dims``)."""
    inner: np.ndarray
    """(rows, 2) int64 positions in ``dims`` of the two innermost loop dims
    (``order[-2:]``), outer first."""
    reduction: frozenset
    """The dimensions that carry a reduction: every row's
    ``reduction_dims``, which the workload's kind fixes."""

    def take(self, positions) -> "MappingColumns":
        """The rows at ``positions``."""
        return self._replace(degrees=self.degrees[positions],
                             inner=self.inner[positions])


def _inner_positions(order: Sequence[str], dims: List[str]) -> List[int]:
    """Positions in ``dims`` of ``order[-2:]``."""
    return [dims.index(d) for d in order[-2:]]


class BulkUniverse:
    """A per-shape mapping universe scored in bulk, materialized lazily.

    ``space`` + ``indices`` describe the sampled part (flat indices into the
    parallelism-major enumeration, in draw order — exactly the sequence
    ``MappingSpace.sample`` would materialize); ``tail`` holds already-built
    mappings appended after the sample (the canonical weight-stationary
    baselines, or the whole universe of a fixed-parallelism architecture).
    Supports ``len()``, indexing and iteration like the mapping list it
    replaces, so the budgeted policies run on it unchanged.
    """

    def __init__(self, space, indices: Sequence[int], tail: Sequence,
                 workload) -> None:
        self._space = space
        self._indices: List[int] = list(indices)
        self._tail = list(tail)
        self.workload = workload
        self._candidates = space.parallelism_candidates() if space else []
        self._n_orders = len(space.orders) if space else 1
        self._memo = {}
        self._flat: Optional[np.ndarray] = None
        self._rows: Optional[np.ndarray] = None
        self._cycles: Optional[np.ndarray] = None
        self._degrees: Optional[np.ndarray] = None
        self._columns: Optional[MappingColumns] = None
        self._footprints = {}
        if space is not None:
            dims = space.dims
            self._orders = [tuple(d for d in order if d in dims)
                            for order in space.orders]
            self._reduction = space.reduction_dims

    @classmethod
    def from_mappings(cls, mappings: Sequence, workload) -> "BulkUniverse":
        """Wrap an explicit mapping list (fixed-parallelism architectures,
        constraint-repaired universes)."""
        return cls(None, (), mappings, workload)

    # ------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self._indices) + len(self._tail)

    def __getitem__(self, pos: int):
        mapping = self._memo.get(pos)
        if mapping is None:
            n_sampled = len(self._indices)
            if pos < 0 or pos >= len(self):
                raise IndexError(pos)
            if pos < n_sampled:
                mapping = self._space._mapping_at(self._candidates,
                                                  self._indices[pos])
            else:
                mapping = self._tail[pos - n_sampled]
            self._memo[pos] = mapping
        return mapping

    def __iter__(self) -> Iterator:
        return (self[pos] for pos in range(len(self)))

    # ------------------------------------------------------------ bulk math
    def _flat_indices(self) -> np.ndarray:
        """The sampled entries' flat indices (int64)."""
        if self._flat is None:
            self._flat = np.asarray(self._indices, dtype=np.int64)
        return self._flat

    def _candidate_rows(self) -> np.ndarray:
        """Each sampled entry's parallelism candidate, ``index // n_orders``
        (the parallelism-major flat layout of ``MappingSpace``)."""
        if self._rows is None:
            self._rows = self._flat_indices() // self._n_orders
        return self._rows

    def _degree_matrix(self) -> np.ndarray:
        """(n_candidates, n_dims) int64 spatial degrees, 1 where
        unparallelised: the space's memoized
        :meth:`~repro.dataflow.space.MappingSpace.degree_matrix`, widened."""
        if self._degrees is None:
            self._degrees = self._space.degree_matrix().astype(np.int64)
        return self._degrees

    def columns(self) -> MappingColumns:
        """Every entry's :class:`MappingColumns`, sampled entries first:
        their degrees gathered from the per-candidate degree matrix and
        their inner loops from ``index % n_orders``, then the tail's,
        read off its mappings (whose dims are the space's, or, without a
        sample, any the tail names)."""
        if self._columns is None:
            dims = list(self._space.dims) if self._indices else []
            for mapping in self._tail:
                dims.extend(d for d in (*mapping.parallel_dims, *mapping.order)
                            if d not in dims)
            degrees, inner = [], []
            if self._indices:
                degrees.append(self._degree_matrix()[self._candidate_rows()])
                orders = self._flat_indices() % self._n_orders
                inner.append(np.array([_inner_positions(order, dims)
                                       for order in self._orders])[orders])
            if self._tail:
                degrees.append(np.array(
                    [[m.parallel_dims.get(d, 1) for d in dims]
                     for m in self._tail], dtype=np.int64))
                inner.append(np.array([_inner_positions(m.order, dims)
                                       for m in self._tail]))
            self._columns = MappingColumns(
                tuple(dims), np.concatenate(degrees), np.concatenate(inner),
                self._reduction if self._indices
                else self._tail[0].reduction_dims)
        return self._columns

    def compute_cycles(self) -> np.ndarray:
        """Exact per-entry compute cycles (int64), one pass for everything.

        Cycles depend only on the parallelism (loop order never changes the
        trip-count product), so the product is computed once per parallelism
        candidate and gathered per flat index with ``index // n_orders``
        (the parallelism-major flat layout of ``MappingSpace``).
        """
        if self._cycles is None:
            parts = []
            if self._indices:
                extents = np.asarray(list(self._space.dims.values()),
                                     dtype=np.int64)
                degrees = self._degree_matrix()
                trips = (extents + degrees - 1) // degrees
                per_candidate = trips.prod(axis=1)
                parts.append(per_candidate[self._candidate_rows()])
            if self._tail:
                parts.append(np.asarray(
                    [m.compute_cycles(self.workload) for m in self._tail],
                    dtype=np.int64))
            self._cycles = (np.concatenate(parts) if parts
                            else np.zeros(0, dtype=np.int64))
        return self._cycles

    def cycles_floor(self, statics: BoundStatics) -> np.ndarray:
        """Admissible latency floor per entry (float64): cycles + reorder."""
        return self.compute_cycles().astype(np.float64) + statics.reorder_cycles

    def bounds(self, metric: str, statics: BoundStatics) -> np.ndarray:
        """Admissible metric lower bound per entry, bit-identical to the
        tests oracle's scalar per-mapping bound (same float op order: int64
        cycles -> float64 add, then one multiply for EDP)."""
        cycles_floor = self.cycles_floor(statics)
        if metric == "latency":
            return cycles_floor
        if metric == "energy":
            return np.full(len(self), statics.energy_floor_pj,
                           dtype=np.float64)
        if metric == "edp":
            return statics.energy_floor_pj * cycles_floor
        raise ValueError(f"unknown metric {metric!r}")

    def footprints(self, arch) -> np.ndarray:
        """Exact per-entry on-chip tile footprints (bytes, int64) — the bulk
        mirror of :func:`repro.search.frontier.buffer_footprint_bytes`
        (pure integer math, so exact by construction)."""
        bits = int(arch.mac_bits)
        cached = self._footprints.get(bits)
        if cached is not None:
            return cached
        parts = []
        if self._indices:
            per_candidate = self._candidate_footprints(bits)
            parts.append(per_candidate[self._candidate_rows()])
        if self._tail:
            parts.append(np.asarray(
                [buffer_footprint_bytes(self.workload, m, arch)
                 for m in self._tail], dtype=np.int64))
        out = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        self._footprints[bits] = out
        return out

    def _candidate_footprints(self, bits: int) -> np.ndarray:
        """Footprint bytes per parallelism candidate.  Space-sampled mappings
        have ``tile == parallel degrees``, so the scalar ``_tile_extent``
        (max of tile size and degree, clamped to the extent) reduces to
        ``max(1, min(extent, degree))`` per dimension."""
        workload = self.workload
        dim_names = list(self._space.dims)
        degrees = self._degree_matrix()

        def tile(dim: str, extent: int) -> np.ndarray:
            column = degrees[:, dim_names.index(dim)]
            return np.maximum(1, np.minimum(int(extent), column))

        if isinstance(workload, ConvLayerSpec):
            n_t = tile("N", workload.n)
            m_t = tile("M", workload.m)
            c_t = tile("C", workload.c // workload.groups)
            p_t = tile("P", workload.p)
            q_t = tile("Q", workload.q)
            r_t = tile("R", workload.r)
            s_t = tile("S", workload.s)
            h_t = np.minimum(workload.h, (p_t - 1) * workload.stride + r_t)
            w_t = np.minimum(workload.w, (q_t - 1) * workload.stride + s_t)
            iact = n_t * c_t * h_t * w_t
            weight = m_t * c_t * r_t * s_t
            oact = n_t * m_t * p_t * q_t
        elif isinstance(workload, GemmSpec):
            m_t = tile("M", workload.m)
            k_t = tile("K", workload.k)
            n_t = tile("N", workload.n)
            iact = m_t * k_t
            weight = k_t * n_t
            oact = m_t * n_t
        else:
            raise TypeError(f"unsupported workload type {type(workload)!r}")
        return (iact * bits) // 8 + (weight * bits) // 8 + (oact * bits) // 8


# ------------------------------------------------------------- constructors
def structured_universe(mapper, workload, count) -> BulkUniverse:
    """The seeded ``count``-entry sample of the mapper's structured space
    (every flat index, in flat order, once ``count`` covers it) followed by
    the canonical weight-stationary tail — the raw, unrepaired universe.
    A fixed-parallelism architecture's universe is its one fixed mapping."""
    space = mapper._mapping_space(workload)
    if space is None:
        return BulkUniverse.from_mappings(
            mapper._fixed_parallelism_mappings(workload), workload)
    return BulkUniverse(space,
                        space.sample_indices(count, seed=mapper.config.seed),
                        mapper._canonical_tail(workload), workload)


def candidate_universe(mapper, workload) -> BulkUniverse:
    """The universe every search policy of ``mapper`` scans: the
    ``max_mappings`` sample plus canonical tail — the whole structured
    space plus the tail under ``max_mappings="auto"`` — without
    materializing any of it; or, with a bound ConstraintSet, that sample
    repaired to legality and deduplicated (the mapper memoizes the repair
    per shape)."""
    if mapper.constraints is not None:
        return BulkUniverse.from_mappings(
            mapper._repaired_universe(workload)[0], workload)
    count = mapper.config.max_mappings
    return structured_universe(mapper, workload,
                               math.inf if count == "auto" else count)
