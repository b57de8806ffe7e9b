"""Dataflow (and layout) search on top of the Layoutloop cost model.

Timeloop's hybrid mapper combines pruned random sampling with exhaustive
enumeration of small subspaces; the paper uses that search (§VI-A2) with a
bound on the number of evaluated mappings.  :class:`Mapper` mirrors this: it
derives the structured mapping space allowed by an architecture's declared
flexibility (fixed-parallelism designs collapse to a handful of mappings,
fully flexible designs enumerate parallelism assignments and loop orders),
optionally samples it, and scores every candidate with the cost model under
each candidate layout.

Candidate scoring runs through :mod:`repro.search`: cost-model values
are memoized in an :class:`~repro.search.cache.EvaluationCache`
(shareable across mappers) and mappings whose admissible lower bound
(:mod:`repro.search.bounds`) already exceeds the incumbent best are skipped
without evaluating any layout.  Both optimisations are exact — the search
returns the same best (mapping, layout) pair it would have found
exhaustively, just faster.

Every search policy runs one path: the candidate universe is a
:class:`~repro.search.bulk.BulkUniverse`
(:func:`repro.search.bulk.candidate_universe`), its admissible bounds come
from one numpy pass (``BulkUniverse.bounds``) and each surviving mapping is
scored under all of its layouts at once through one :class:`Incumbent`,
which counts the scored pairs and keeps the lexicographic winner.  On the
analytical backend a scored pair is a plain value entry
(``(total_cycles, total_energy_pj, slowdown)``,
:meth:`~repro.layoutloop.cost_model.CostModel.evaluate_values`), and the
search builds one :class:`~repro.layoutloop.cost_model.CostReport`: its
winner's, from the winner's slowdown.  On a design that never stalls on
a bank conflict (``CostModel.slowdown_free``: FEATHER's
reorder-in-reduction, the off-chip SIGMA) every layout prices at slowdown
1.0, so the exhaustive scan prices the whole universe in one numpy pass
instead and reads the same winner, ``evaluated`` and ``pruned`` off the
values (:meth:`Mapper._columnar_search`); it prices without the memo, so
its scored pairs all count as cache misses.  The scalar loop this replaces —
materialized sample, per-mapping bound, per-layout evaluation — is kept
only as the tests-side reference oracle the identity suites compare
against.

Scoring itself goes through an :mod:`repro.backends` evaluation backend.
The default ``"analytical"`` backend runs the memoized cost-model values;
any other registered backend (e.g. ``"simulator"``) scores candidates
through its ``evaluate`` — with admissible pruning disabled, since
the bounds are statements about the analytical model only — and its
winner keeps the backend's own report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.mapping import (
    CONV_REDUCTION_DIMS,
    GEMM_REDUCTION_DIMS,
    Mapping,
    ParallelSpec,
    TileLevel,
)
from repro.dataflow.space import MappingSpace
from repro.layout.layout import Layout, parse_layout
from repro.layout.library import conv_layout_library, gemm_layout_library
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cost_model import CostReport
from repro.search import bulk
from repro.search.bounds import bound_statics
from repro.search.cache import EvaluationCache
from repro.search.config import METRIC_FIELDS, SearchConfig
from repro.search.signatures import workload_signature
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec


@dataclass
class SearchResult:
    """Best (mapping, layout) found for one workload on one architecture."""

    workload: str
    """Name of the searched workload (free-text layer label)."""
    arch: str
    """Name of the architecture the search ran on."""
    best_report: CostReport
    """Full cost report (cycles, pJ breakdown) of the winning pair.  A
    :class:`~repro.layoutloop.cost_model.CostReport` on the analytical
    backend, a field-compatible :class:`~repro.backends.base.BackendReport`
    on any other."""
    best_mapping: Mapping
    """The winning dataflow."""
    best_layout: Layout
    """The winning data layout of the streaming tensor."""
    evaluated: int
    """(mapping, layout) candidates scored, including evaluation-cache hits."""
    metric: str
    """Objective the search minimised: ``edp``, ``latency`` or ``energy``."""
    pruned: int = 0
    """Candidates skipped because their lower bound could not beat the best."""
    cache_hits: int = 0
    """Scored candidates served from the evaluation cache (always 0 on the
    columnar scan, which never reads it)."""
    repaired: int = 0
    """(mapping, layout) candidates collapsed away by constraint repair —
    raw candidates whose repaired form duplicated an earlier one, times the
    layout count, so ``evaluated + pruned + repaired`` covers the raw
    universe.  0 when no :class:`~repro.constraints.ConstraintSet` binds."""
    repair: Optional[Dict] = None
    """The :class:`~repro.constraints.RepairLog` payload of the candidate
    universe (plus ``universe_pairs``), or ``None`` when unconstrained."""

    @property
    def best_value(self) -> float:
        """Value of ``metric`` for the winning pair (cycles, pJ or pJ*cycles)."""
        return _metric_value(self.best_report, self.metric)


def _metric_value(report: CostReport, metric: str) -> float:
    return getattr(report, METRIC_FIELDS[metric])


class Incumbent:
    """The scoring step of every search policy (the exhaustive scan of a
    slowdown-free design reads the same winner, ``evaluated`` and
    ``pruned`` off its universe's values instead, without the memo:
    :meth:`Mapper._columnar_search`).

    :meth:`score` prices one mapping of the universe under every candidate
    layout through :meth:`Mapper.score`, counts the scored pairs
    (``evaluated``, ``cache_hits``) and keeps the winner: the
    lexicographic minimum of ``(value, mapping index, layout index)``.  An
    index-order scan that replaces only on strict improvement selects
    exactly that minimum, so the exhaustive scan and the policies that
    visit candidates out of index order (halving, evolutionary) agree on
    every tie.  Values fold from the scored entries: latency is the
    cycles, energy the energy and EDP ``energy * cycles`` (the order
    :attr:`CostReport.edp` multiplies in).  ``min_values`` holds each
    scored mapping's best value over its layouts (the evolutionary
    policy's elite ranking), and :meth:`result` packages the winner as a
    :class:`SearchResult`.

    ``cycles``, when given, holds the exact compute cycles of every
    universe entry (``BulkUniverse.compute_cycles()``, which the bounds
    already computed); scoring passes each survivor's value on instead of
    recomputing it.
    """

    def __init__(self, mapper: "Mapper", workload, layouts: Sequence[Layout],
                 cycles: Optional[Sequence[int]] = None):
        self.mapper = mapper
        self.workload = workload
        self.layouts = layouts
        self.cycles = cycles
        self._metric = mapper.config.metric
        self.key: Optional[Tuple[float, int, int]] = None
        self.entry: Optional[Tuple] = None
        self.mapping: Optional[Mapping] = None
        self.layout: Optional[Layout] = None
        self.min_values: Dict[int, float] = {}
        self.evaluated = 0
        self.cache_hits = 0

    def score(self, index: int, mapping: Mapping) -> List[Tuple[Tuple, bool]]:
        """Score universe entry ``index`` under every layout and fold it
        into the winner; returns :meth:`Mapper.score`'s ``[(entry,
        was_cache_hit), ...]`` pairs in layout order."""
        cycles = None if self.cycles is None else self.cycles[index]
        scored = self.mapper.score(self.workload, mapping, self.layouts,
                                   cycles)
        metric = self._metric
        best = self.key
        vmin = math.inf
        for layout_index, (entry, hit) in enumerate(scored):
            self.cache_hits += hit
            if metric == "edp":
                value = entry[1] * entry[0]
            elif metric == "latency":
                value = entry[0]
            else:
                value = entry[1]
            if value < vmin:
                vmin = value
            if best is None or (value <= best[0]
                                and (value, index, layout_index) < best):
                best = (value, index, layout_index)
                self.entry = entry
                self.mapping = mapping
                self.layout = self.layouts[layout_index]
        self.key = best
        self.evaluated += len(scored)
        self.min_values[index] = vmin
        return scored

    def result(self, pruned: int) -> SearchResult:
        """The winner as a :class:`SearchResult` under the mapper's arch and
        metric, with this scan's counters and ``pruned`` skipped pairs.

        The winner's report is the one report a search builds: on the
        analytical backend :meth:`CostModel.report` assembles it from the
        winner's memoized slowdown (no kernel call); any other backend's
        winner keeps the backend's own report."""
        mapper = self.mapper
        detail = self.entry[2]
        if mapper._analytical:
            cycles = (None if self.cycles is None
                      else self.cycles[self.key[1]])
            report = mapper.cost_model.report(self.workload, self.mapping,
                                              self.layout, detail, cycles)
        else:
            report = detail
        return SearchResult(
            workload=getattr(self.workload, "name", str(self.workload)),
            arch=mapper.arch.name, best_report=report,
            best_mapping=self.mapping, best_layout=self.layout,
            evaluated=self.evaluated, metric=mapper.config.metric,
            pruned=pruned, cache_hits=self.cache_hits)


class _ResultKey(NamedTuple):
    """Memo key of one search: the workload, its shape signature, the
    layout restriction and the mapper's :meth:`SearchConfig.key`."""

    workload: str
    signature: Tuple
    layouts: Optional[Tuple[str, ...]]
    config: Tuple


class Mapper:
    """Search dataflows (and layouts) for an architecture.

    ``config`` is the :class:`~repro.search.config.SearchConfig` every
    search of this mapper runs under (default: ``SearchConfig()``): the
    metric, the ``max_mappings`` sample, the seed, the search policy and
    its budget, and the constraint layer.  ``frontier`` and
    ``fused`` are honoured by the whole-model engine, which calls
    :meth:`search_frontier` and :func:`~repro.layoutloop.cosearch.
    fused_model_search`; a mapper only checks that its backend can run
    them.

    ``evaluation_cache`` memoizes the analytical search's value entries
    and may be shared between mappers — keys embed the architecture
    signature, so cross-architecture sharing is safe.
    ``backend`` selects the evaluation backend scoring candidates: a
    :mod:`repro.backends` registry name, an already-constructed
    :class:`~repro.backends.base.EvaluationBackend`, or ``None`` for the
    default analytical backend.  Non-analytical backends disable pruning —
    the admissible bounds only hold for the analytical model.

    A bound :class:`~repro.constraints.ConstraintSet` repairs every
    candidate universe to legality and deduplicates it before any policy
    scores it, with the repair accounted in ``SearchResult.repaired``/
    ``repair``.  A config with ``constraints=None`` inherits the backend's
    own set — the analytical backend has none, so by default nothing
    changes.

    Invalid configurations raise :class:`~repro.errors.InvalidRequestError`.
    """

    def __init__(self, arch: ArchSpec, config: Optional[SearchConfig] = None,
                 *, evaluation_cache: Optional[EvaluationCache] = None,
                 backend=None):
        from repro.backends import (
            AnalyticalBackend,
            EvaluationBackend,
            create_backend,
        )
        from repro.constraints import resolve_constraints

        self.arch = arch
        self.config = config if config is not None else SearchConfig()
        self.evaluation_cache = (evaluation_cache
                                 if evaluation_cache is not None
                                 else EvaluationCache())
        if isinstance(backend, EvaluationBackend):
            self.backend = backend
        else:
            self.backend = create_backend(backend, arch,
                                          seed=self.config.seed)
        self._analytical = isinstance(self.backend, AnalyticalBackend)
        self.config.check_backend(self._backend_name)
        self.constraints = resolve_constraints(self.config.constraints, arch,
                                               backend=self.backend)
        # The analytical backend scores with it; any other backend's
        # budgeted policies rank candidates by its values (the cheap rung
        # of repro.search.budget).
        self.cost_model = self.backend.cost_model
        self._cache: Dict[_ResultKey, SearchResult] = {}
        # Frontier results memoize separately: frontier pairs are
        # (SearchResult, ShapeFrontier) tuples, and the evolutionary
        # warm start reads `_cache` for winning mappings.
        self._frontier_cache: Dict[_ResultKey, Tuple] = {}
        # Repaired candidate universes per workload signature: (mappings,
        # RepairLog).  Only populated when a ConstraintSet binds.
        self._repair_cache: Dict[Tuple, Tuple] = {}

    @property
    def _backend_name(self) -> str:
        """The backend name :meth:`SearchConfig.check_backend` judges."""
        return "analytical" if self._analytical else self.backend.name

    # ------------------------------------------------------------- candidates
    def candidate_mappings(self, workload) -> List[Mapping]:
        """The candidate universe every search policy scans
        (:func:`repro.search.bulk.candidate_universe`), materialized."""
        return list(bulk.candidate_universe(self, workload))

    def score(self, workload, mapping: Mapping, layouts: Sequence[Layout],
              compute_cycles: Optional[int] = None
              ) -> List[Tuple[Tuple, bool]]:
        """Score one mapping under every layout: ``[((total_cycles,
        total_energy_pj, detail), was_cache_hit), ...]`` in layout order.

        The analytical backend prices all layouts in one memoized
        :meth:`EvaluationCache.evaluate_batch` pass, and ``detail`` is the
        pair's slowdown (``compute_cycles``, the mapping's exact compute
        cycles when the caller knows them, is passed through).  Any other
        backend scores through its ``evaluate`` (never a cache hit), and
        ``detail`` is the backend's report."""
        if self._analytical:
            return self.evaluation_cache.evaluate_batch(
                self.cost_model, workload, mapping, layouts, compute_cycles)
        return [((report.total_cycles, report.total_energy_pj, report), False)
                for report in
                self.backend.evaluate(workload, mapping, layouts)]

    def _repaired_universe(self, workload) -> Tuple:
        """The repaired-legal candidate list and its RepairLog, memoized."""
        key = self._workload_signature(workload)
        cached = self._repair_cache.get(key)
        if cached is None:
            raw = list(bulk.structured_universe(self, workload,
                                                self.config.max_mappings))
            cached = self.constraints.repair_candidates(raw, workload,
                                                        self.arch)
            self._repair_cache[key] = cached
        return cached

    def repair_log(self, workload):
        """The :class:`~repro.constraints.RepairLog` of one workload's
        candidate universe (``None`` when unconstrained)."""
        if self.constraints is None:
            return None
        return self._repaired_universe(workload)[1]

    def _finalize_repair(self, result: SearchResult, workload,
                         layouts: Optional[Sequence[Layout]]) -> SearchResult:
        """Attach the repair counters to a freshly computed result."""
        if self.constraints is None:
            return result
        log = self.repair_log(workload)
        n_layouts = (len(layouts) if layouts
                     else len(self.candidate_layouts(workload)))
        result.repaired = log.merged * n_layouts
        result.repair = dict(log.as_dict(),
                             universe_pairs=log.candidates * n_layouts)
        return result

    def _mapping_space(self, workload) -> Optional[MappingSpace]:
        """The structured mapping space of a flexible architecture, or
        ``None`` when the architecture's parallelism is fixed (the universe
        collapses to :meth:`_fixed_parallelism_mappings`)."""
        arch = self.arch
        if arch.fixed_parallelism is not None:
            return None

        allowed_orders = None
        if not arch.flexible_order:
            # A single canonical weight-stationary order (innermost loops do
            # not index the weights).
            if isinstance(workload, ConvLayerSpec):
                allowed_orders = (("N", "M", "C", "R", "S", "P", "Q"),)
            else:
                allowed_orders = (("M", "K", "N"),)

        return MappingSpace(
            workload=workload,
            array_rows=arch.pe_rows,
            array_cols=arch.pe_cols,
            max_parallel_dims=arch.max_parallel_dims if arch.flexible_parallelism else 1,
            allowed_parallel_dims=arch.allowed_parallel_dims,
            allowed_orders=allowed_orders,
        )

    def _canonical_tail(self, workload) -> List[Mapping]:
        """The canonical weight-stationary mapping(s) appended after the
        sampled space, so the search never misses the obvious baseline —
        but only when the architecture is allowed to parallelise those
        dimensions."""
        arch = self.arch
        canonical = self._fixed_parallelism_mappings(
            workload, rows=arch.pe_rows, cols=arch.pe_cols)
        allowed = (set(d.upper() for d in arch.allowed_parallel_dims)
                   if arch.allowed_parallel_dims else None)
        return [mapping for mapping in canonical
                if allowed is None
                or all(p.dim in allowed for p in mapping.parallel)]

    def _fixed_parallelism_mappings(self, workload, rows: Optional[int] = None,
                                    cols: Optional[int] = None) -> List[Mapping]:
        arch = self.arch
        rows = rows or arch.pe_rows
        cols = cols or arch.pe_cols
        is_conv = isinstance(workload, ConvLayerSpec)
        reduction = CONV_REDUCTION_DIMS if is_conv else GEMM_REDUCTION_DIMS
        if is_conv:
            order = ("N", "M", "C", "R", "S", "P", "Q")
        else:
            order = ("M", "K", "N")

        if arch.fixed_parallelism is not None:
            parallel = tuple(ParallelSpec(d, n) for d, n in arch.fixed_parallelism
                             if self._dim_exists(workload, d))
            tile = TileLevel.of(**{p.dim: p.degree for p in parallel})
            return [Mapping(name=f"{arch.name}_fixed", array_rows=rows, array_cols=cols,
                            parallel=parallel, tile=tile, order=order,
                            reduction_dims=reduction)]

        # Canonical MxC (or MxK) weight-stationary assignment filling the array.
        dim_a = "M"
        dim_b = "C" if is_conv else "K"
        deg_a = min(rows, self._dim_extent(workload, dim_a)) or 1
        deg_b = min(cols, self._dim_extent(workload, dim_b)) or 1
        parallel = (ParallelSpec(dim_a, max(1, deg_a)), ParallelSpec(dim_b, max(1, deg_b)))
        tile = TileLevel.of(**{p.dim: p.degree for p in parallel})
        return [Mapping(name="canonical_ws", array_rows=rows, array_cols=cols,
                        parallel=parallel, tile=tile, order=order,
                        reduction_dims=reduction)]

    def candidate_layouts(self, workload) -> List[Layout]:
        """Layouts the architecture can hold for the streaming tensor.

        A fixed-layout architecture uses the workload-appropriate member of
        its family: conv layouts name C/H/W dimensions, GEMM layouts name
        M/K (the paper's BERT chart lists MK_K32 for the fixed-layout designs).
        """
        arch = self.arch
        if arch.fixed_layout:
            layout = parse_layout(arch.fixed_layout)
            needed = ("C", "H", "W") if isinstance(workload, ConvLayerSpec) else ("M", "K")
            if any(d in layout.intra_dims or d in layout.inter_order for d in needed):
                return [layout]
            fallback = "HWC_C32" if isinstance(workload, ConvLayerSpec) else "MK_K32"
            return [parse_layout(fallback)]
        if isinstance(workload, ConvLayerSpec):
            return conv_layout_library()
        return gemm_layout_library()

    # ----------------------------------------------------------------- search
    def search(self, workload, layouts: Optional[Sequence[Layout]] = None,
               ) -> SearchResult:
        """Find the best (mapping, layout) pair under the configured metric.

        Whole results are memoized per (workload, layouts) under the
        mapper's config.  The analytical search's per-pair values are
        additionally memoized in the (possibly shared) evaluation cache,
        except on the exhaustive scan of a slowdown-free design, which
        prices its whole universe at once and stores nothing
        (:meth:`_columnar_search`).
        """
        key = self._result_key(workload, layouts)
        if key in self._cache:
            return self._cache[key]
        config = self.config
        if config.policy == "exhaustive" and config.max_mappings != "auto":
            result = self._exhaustive_search(workload, layouts)
        else:
            # Budgeted policies live in repro.search.budget (imported lazily:
            # it builds on this module).  "auto" is the uncapped bound-
            # ordered scan of the whole structured space.
            from repro.search.budget import evolutionary_search, halving_search

            search_fn = (evolutionary_search
                         if config.policy == "evolutionary"
                         else halving_search)
            result = search_fn(self, workload, layouts=layouts,
                               budget=config.budget)
        self._finalize_repair(result, workload, layouts)
        self._cache[key] = result
        return result

    def _exhaustive_search(self, workload, layouts: Optional[Sequence[Layout]]
                           ) -> SearchResult:
        """Scan the candidate universe in order through one
        :class:`Incumbent`.  On the analytical backend a mapping whose
        admissible bound cannot beat the incumbent skips all of its layouts
        without evaluation (and is never materialized) — the outcome is
        identical to the unpruned scan because the bound never exceeds the
        true value and ties never replace the incumbent.  The bounds are
        statements about the analytical cost model; any other backend
        scans exhaustively.  A :attr:`~repro.layoutloop.cost_model.
        CostModel.slowdown_free` design reads the same scan off its
        universe's values instead (:meth:`_columnar_search`)."""
        layouts = list(layouts) if layouts else self.candidate_layouts(workload)
        universe = bulk.candidate_universe(self, workload)
        bounds = None
        if self._analytical:
            statics = bound_statics(self.cost_model, workload)
            bounds = universe.bounds(self.config.metric, statics)
            if self.cost_model.slowdown_free:
                return self._columnar_search(workload, layouts, universe,
                                             bounds)
            bounds = bounds.tolist()

        incumbent = Incumbent(self, workload, layouts,
                              universe.compute_cycles().tolist())
        pruned = 0
        for index in range(len(universe)):
            if (bounds is not None and incumbent.key is not None
                    and bounds[index] >= incumbent.key[0]):
                pruned += len(layouts)
                continue
            incumbent.score(index, universe[index])
        return incumbent.result(pruned)

    def _columnar_search(self, workload, layouts: List[Layout], universe,
                         bounds: np.ndarray) -> SearchResult:
        """The index-order scan of :meth:`_exhaustive_search` on a
        slowdown-free design, read off the values of the whole universe.

        Every layout prices at slowdown 1.0, so an entry's value is one
        number (:meth:`CostModel.columnar_values`) and its layouts tie.
        The index scan scores entry ``i`` exactly when ``bounds[i]`` is
        below the minimum value of *all* earlier entries: a pruned entry
        ``j`` has ``value[j] >= bounds[j] >=`` the incumbent, so it never
        lowers that minimum.  ``evaluated``/``pruned`` follow from one
        exclusive running minimum, and the winner is the first argmin
        under layout 0.  That identity needs ``bounds <= values`` on every
        entry, which is checked, never assumed.  The scan prices and does
        not memoize: it stores nothing in the evaluation cache, counts its
        scored pairs as the cache's misses (each was priced here, in one
        locked step) and reports ``cache_hits`` 0; the one report is the
        winner's.
        """
        model = self.cost_model
        metric = self.config.metric
        cycles = universe.compute_cycles()
        total_cycles, energy = model.columnar_values(
            workload, cycles, None if metric == "latency"
            else universe.columns())
        if metric == "latency":
            values = total_cycles
        elif metric == "edp":
            values = energy * total_cycles
        else:
            values = energy
        inadmissible = np.flatnonzero(~(bounds <= values))
        if inadmissible.size:
            pos = int(inadmissible[0])
            raise RuntimeError(
                f"inadmissible {metric} bound on {self.arch.name}, shape "
                f"{workload_signature(workload)} "
                f"({getattr(workload, 'name', workload)}): entry {pos} "
                f"({universe[pos].name}) has bound {bounds[pos]!r} above "
                f"its value {values[pos]!r}")
        incumbent = np.minimum.accumulate(values)
        scored = np.empty(len(values), dtype=bool)
        scored[1:] = bounds[1:] < incumbent[:-1]
        scored[:1] = True
        evaluated = int(np.count_nonzero(scored)) * len(layouts)
        self.evaluation_cache.count_misses(evaluated)

        winner = int(np.argmin(values))
        mapping = universe[winner]
        return SearchResult(
            workload=getattr(workload, "name", str(workload)),
            arch=self.arch.name,
            best_report=model.report(workload, mapping, layouts[0], 1.0,
                                     int(cycles[winner])),
            best_mapping=mapping, best_layout=layouts[0],
            evaluated=evaluated, metric=metric,
            pruned=len(values) * len(layouts) - evaluated)

    def search_frontier(self, workload) -> Tuple:
        """Scan the candidate universe keeping the whole Pareto frontier.

        Returns ``(result, frontier)`` — see
        :func:`repro.search.frontier.frontier_search`.  ``result`` is
        bit-identical to :meth:`search` (same winner report, mapping and
        layout); ``frontier`` is the shape's non-dominated set over
        (EDP, latency, energy, buffer footprint), with the scalar winner a
        member by construction.  Memoized like :meth:`search`, in a
        separate cache.
        """
        from repro.search.frontier import frontier_search

        key = self._result_key(workload)
        cached = self._frontier_cache.get(key)
        if cached is None:
            cached = frontier_search(self, workload)
            self._finalize_repair(cached[0], workload, None)
            self._frontier_cache[key] = cached
        return cached

    def _result_key(self, workload,
                    layouts: Optional[Sequence[Layout]] = None) -> _ResultKey:
        """Memo key of a (workload, layout-restriction) search under this
        mapper's configuration."""
        return _ResultKey(getattr(workload, "name", str(workload)),
                          self._workload_signature(workload),
                          tuple(l.name for l in layouts) if layouts else None,
                          self.config.key())

    def has_result(self, workload,
                   layouts: Optional[Sequence[Layout]] = None) -> bool:
        """Whether :meth:`search` for this workload (under this layout
        restriction) would be served from the whole-result memo."""
        return self._result_key(workload, layouts) in self._cache

    def adopt_result(self, workload, result: SearchResult) -> None:
        """Seed the result-level cache with an externally computed result.

        Used by the façade's request-level process offload
        (:class:`repro.api.Session`) to bring results produced in a worker
        process back into this mapper's cache, so later :meth:`search`
        calls for the same workload return instantly.  The result must have
        been computed under this mapper's config, over the candidate
        layouts.
        """
        self._cache.setdefault(self._result_key(workload), result)

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _dim_exists(workload, dim: str) -> bool:
        try:
            return Mapper._dim_extent(workload, dim) > 0
        except KeyError:
            return False

    @staticmethod
    def _dim_extent(workload, dim: str) -> int:
        if isinstance(workload, ConvLayerSpec):
            try:
                return workload.dim(dim)
            except KeyError:
                return 0
        if isinstance(workload, GemmSpec):
            try:
                return workload.dim(dim)
            except KeyError:
                return 0
        raise TypeError(f"unsupported workload {type(workload)!r}")

    @staticmethod
    def _workload_signature(workload) -> Tuple:
        """Shape signature used for result-level memoization."""
        return workload_signature(workload)
