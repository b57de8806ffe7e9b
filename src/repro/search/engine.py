"""The batch co-search engine: one API every figure reproduction shares.

:func:`search_model` is the single entry point for whole-model (dataflow,
layout) co-search.  It composes the three optimisations this package exists
for:

1. **Shape deduplication** — DNNs repeat layer shapes; only unique shapes
   are searched and each result is weighted by its occurrence count
   (:func:`repro.layoutloop.cosearch.unique_workloads`).
2. **Memoization + pruning** — every per-shape search runs through a
   :class:`~repro.layoutloop.mapper.Mapper` configured with an
   :class:`~repro.search.cache.EvaluationCache` and the admissible metric
   bounds of :mod:`repro.search.bounds`.
3. **Process fan-out** — with ``workers > 1`` unique shapes are chunked
   across a ``ProcessPoolExecutor`` (:mod:`repro.search.parallel`); each
   worker runs the identical deterministic per-shape search, so parallel
   results are bit-identical to serial ones.

The returned :class:`~repro.layoutloop.cosearch.ModelCost` carries a
:class:`SearchStats` record (evaluations, pruned candidates, cache hit
rate, worker count, wall time) in its ``search_stats`` field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidRequestError
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cosearch import LayerChoice, ModelCost, unique_workloads
from repro.layoutloop.energy import EnergyTable
from repro.layoutloop.mapper import Mapper, SearchResult
from repro.search.cache import CacheStats, EvaluationCache
from repro.search.parallel import (
    chunked,
    default_chunk_size,
    run_fanout,
)


@dataclass
class SearchStats:
    """Bookkeeping of one :func:`search_model` run."""

    model: str
    arch: str
    layers_total: int
    """Number of layers in the input model (before deduplication)."""
    layers_unique: int
    """Number of unique layer shapes actually searched."""
    evaluations: int = 0
    """(mapping, layout) candidates scored, including cache hits."""
    backend: str = "analytical"
    """Evaluation backend the candidates were scored on."""
    policy: str = "exhaustive"
    """Search policy the candidates were selected by."""
    budget: Optional[int] = None
    """Per-shape cap on scored pairs (budgeted policies only)."""
    pruned: int = 0
    """Candidates skipped by the admissible lower bound."""
    repaired: int = 0
    """(mapping, layout) pairs of the raw universe that constraint repair
    merged into an already-seen legal candidate (0 with no ConstraintSet
    bound).  ``evaluations + pruned + repaired`` covers the raw universe."""
    repair: Optional[Dict] = None
    """Aggregated :class:`repro.constraints.RepairLog` counters across the
    unique shapes (``None`` with no ConstraintSet bound); carries
    ``universe_pairs`` so coverage checks line up per run."""
    cache: CacheStats = field(default_factory=CacheStats)
    """Merged evaluation-cache counters across all workers."""
    workers: int = 1
    """Worker processes used (1 = serial)."""
    elapsed_s: float = 0.0
    """Wall-clock time of the whole search in seconds."""

    def __str__(self) -> str:
        return (f"search[{self.model} on {self.arch}]: "
                f"{self.layers_unique}/{self.layers_total} unique layers, "
                f"{self.evaluations} evaluations (+{self.pruned} pruned), "
                f"cache {self.cache}, {self.workers} worker(s), "
                f"{self.elapsed_s:.2f}s")


# --------------------------------------------------------------------- engine
class SearchEngine:
    """A configured co-search context with a persistent evaluation cache.

    Wraps a :class:`~repro.layoutloop.mapper.Mapper` so that repeated
    per-layer searches (and whole-model batches) share one cache.  Use the
    module-level :func:`search_model` for one-shot batch searches; use an
    engine when several experiments over the same architecture should share
    memoized evaluations.
    """

    def __init__(self, arch: ArchSpec, energy: Optional[EnergyTable] = None,
                 metric: str = "edp", max_mappings=200, seed: int = 0,
                 prune: bool = True, cache: Optional[EvaluationCache] = None,
                 backend: str = "analytical", policy: str = "exhaustive",
                 budget: Optional[int] = None, frontier: bool = False,
                 fused: bool = False, constraints=None):
        self.arch = arch
        self.energy = energy
        self.metric = metric
        self.max_mappings = max_mappings
        self.seed = seed
        self.prune = prune
        self.backend = backend
        self.policy = policy
        self.budget = budget
        self.frontier = frontier
        self.fused = fused
        self.cache = cache if cache is not None else EvaluationCache()
        self.mapper = Mapper(arch, energy=energy, metric=metric,
                             max_mappings=max_mappings, seed=seed,
                             prune=prune, evaluation_cache=self.cache,
                             backend=backend, policy=policy, budget=budget,
                             constraints=constraints)
        self.constraints = self.mapper.constraints

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of this engine's evaluation cache."""
        return self.cache.stats

    def search_layer(self, workload, layouts: Optional[Sequence] = None
                     ) -> SearchResult:
        """Co-search the best (mapping, layout) pair for one layer."""
        return self.mapper.search(workload, layouts=layouts)

    def search_layer_frontier(self, workload,
                              layouts: Optional[Sequence] = None):
        """Co-search one layer keeping the whole Pareto frontier.

        Returns ``(result, frontier)`` — see
        :meth:`repro.layoutloop.mapper.Mapper.search_frontier`.
        """
        return self.mapper.search_frontier(workload, layouts=layouts)

    def search_model(self, workloads: Sequence, model_name: str = "model",
                     workers: Optional[int] = 1,
                     chunk_size: Optional[int] = None) -> ModelCost:
        """Batch co-search of a whole model with this engine's settings.

        The engine's evaluation cache is shared with the batch on the
        serial path only — worker processes cannot see in-process state
        and always build their own.  Either way, the per-shape results are
        adopted into the engine afterwards, so follow-up
        :meth:`search_layer` calls for the same shapes return instantly.
        The engine's live backend *instance* is forwarded, so on a
        non-analytical backend repeat batches reuse its simulation memos
        (the analytical instance resolves to the normal fan-out path).
        """
        backend = self.mapper.backend
        cost = search_model(self.arch, workloads, model_name=model_name,
                            metric=self.metric, max_mappings=self.max_mappings,
                            energy=self.energy, workers=workers,
                            chunk_size=chunk_size, prune=self.prune,
                            seed=self.seed, cache=self.cache,
                            backend=backend, policy=self.policy,
                            budget=self.budget, frontier=self.frontier,
                            fused=self.fused, constraints=self.constraints)
        for (workload, _), choice in zip(unique_workloads(workloads),
                                         cost.layer_choices):
            self.mapper.adopt_result(workload, choice.result)
        return cost


# ----------------------------------------------------------------- batch API
def _search_chunk(payload: Tuple) -> Tuple[List[SearchResult], int, int]:
    """Worker entry point: search one chunk of unique shapes.

    Must stay a module-level function (pickled by ``ProcessPoolExecutor``).
    The payload carries everything needed to rebuild the exact serial search
    configuration, so a chunk's results do not depend on which process (or
    how many) ran it.
    """
    (arch, energy, metric, max_mappings, seed, prune, layouts, policy,
     budget, constraints, shapes) = payload
    mapper = Mapper(arch, energy=energy, metric=metric,
                    max_mappings=max_mappings, seed=seed, prune=prune,
                    evaluation_cache=EvaluationCache(), policy=policy,
                    budget=budget, constraints=constraints)
    results = [mapper.search(wl, layouts=layouts) for wl in shapes]
    stats = mapper.evaluation_cache.stats
    return results, stats.hits, stats.misses


def _search_model_impl(arch: ArchSpec, workloads: Sequence,
                       model_name: str = "model", metric: str = "edp",
                       max_mappings=200,
                       energy: Optional[EnergyTable] = None,
                       workers: int = 1, chunk_size: Optional[int] = None,
                       prune: bool = True, seed: int = 0,
                       cache: Optional[EvaluationCache] = None,
                       backend="analytical",
                       layouts: Optional[Sequence] = None,
                       executor=None,
                       mapper: Optional[Mapper] = None,
                       policy: str = "exhaustive",
                       budget: Optional[int] = None,
                       frontier: bool = False, fused: bool = False,
                       constraints=None) -> ModelCost:
    """The whole-model co-search engine behind :func:`search_model`.

    This is the execution layer: ``workers`` must already be a concrete
    count (user-facing resolution — explicit argument over the
    ``REPRO_SEARCH_WORKERS`` environment variable over the serial default —
    happens in exactly one place, :meth:`repro.api.Session.resolve_workers`).
    ``layouts`` optionally restricts the candidate layout library (used by
    policy studies like Fig. 2's layout-blind "theory" search), and
    ``executor`` is an optional caller-owned persistent process pool
    (see :func:`repro.search.parallel.run_fanout`).

    ``mapper`` (serial paths only) is a caller-owned persistent
    :class:`Mapper` whose configuration must match the other arguments —
    the :class:`repro.api.Session` passes one per configuration so repeat
    requests hit its whole-result memo instead of re-sampling; determinism
    makes the memoized results identical to fresh ones, but the engine
    counters then report the memo (zero evaluations on a full hit), which
    is why per-call-deterministic callers (records, golden files) do not
    pass one.
    """
    workloads = list(workloads)
    if not workloads:
        raise InvalidRequestError(
            f"search_model({model_name!r}) requires at least one workload")

    from repro.backends import AnalyticalBackend

    if isinstance(backend, AnalyticalBackend):
        # An analytical *instance* is configuration, not a detour: adopt
        # its cache (unless one was passed explicitly), then run the full
        # analytical path — fan-out, pruning, stats.
        if cache is None:
            cache = backend.cache
        backend = "analytical"
    analytical = backend is None or backend == "analytical"
    if max_mappings == "auto":
        # The adaptive universe is a statement about the analytical model's
        # admissible bounds and is defined for the scalar winner only.
        if not analytical:
            raise InvalidRequestError(
                "max_mappings='auto' requires the analytical backend")
        if policy != "exhaustive":
            raise InvalidRequestError(
                "max_mappings='auto' requires policy='exhaustive'")
        if constraints is not None and constraints != "none":
            raise InvalidRequestError(
                "max_mappings='auto' grows the raw structured universe and "
                "cannot be combined with a ConstraintSet; use an integer "
                "max_mappings")
        if frontier or fused:
            raise InvalidRequestError(
                "frontier/fused search requires an integer max_mappings")
    if frontier or fused:
        # Frontier/fused searches are statements about the analytical
        # model (the dominance prune reuses its admissible bounds, the
        # fused energy/cycle discounts its DRAM terms) and must see the
        # whole candidate universe.
        if not analytical:
            raise InvalidRequestError(
                "frontier/fused search requires the analytical backend")
        if policy != "exhaustive":
            raise InvalidRequestError(
                "frontier/fused search requires policy='exhaustive'")
        if fused and len(workloads) < 2:
            raise InvalidRequestError(
                "fused search requires at least two workloads "
                "(adjacency is what gets fused)")
        # Frontier objects and fused pairs live on the ModelCost, which
        # the fan-out's chunked workers cannot assemble: run serially
        # (results are bit-identical for any worker count anyway).
        workers = 1
    start = time.perf_counter()
    grouped = unique_workloads(workloads)
    shapes = [wl for wl, _ in grouped]
    workers = max(1, int(workers)) if analytical else 1
    layouts = list(layouts) if layouts else None

    backend_name = ("analytical" if analytical
                    else getattr(backend, "name", None) or str(backend))
    stats = SearchStats(model=model_name, arch=arch.name,
                        layers_total=len(workloads),
                        layers_unique=len(grouped), workers=workers,
                        backend=backend_name, policy=policy, budget=budget)

    shape_frontiers = None
    if not analytical:
        if mapper is None:
            mapper = Mapper(arch, energy=energy, metric=metric,
                            max_mappings=max_mappings, seed=seed, prune=prune,
                            backend=backend, policy=policy, budget=budget,
                            constraints=constraints)
        results = [mapper.search(wl, layouts=layouts) for wl in shapes]
    elif workers <= 1 or len(shapes) <= 1:
        stats.workers = 1
        if mapper is None:
            eval_cache = cache if cache is not None else EvaluationCache()
            mapper = Mapper(arch, energy=energy, metric=metric,
                            max_mappings=max_mappings, seed=seed, prune=prune,
                            evaluation_cache=eval_cache, policy=policy,
                            budget=budget, constraints=constraints)
        else:
            eval_cache = mapper.evaluation_cache
        # Shared caches outlive this call: report this run's delta, not the
        # cache's cumulative counters.
        before_hits = eval_cache.stats.hits
        before_misses = eval_cache.stats.misses
        if frontier:
            pairs = [mapper.search_frontier(wl, layouts=layouts)
                     for wl in shapes]
            results = [result for result, _ in pairs]
            shape_frontiers = [shape_frontier for _, shape_frontier in pairs]
        else:
            results = [mapper.search(wl, layouts=layouts) for wl in shapes]
        stats.cache = CacheStats(hits=eval_cache.stats.hits - before_hits,
                                 misses=eval_cache.stats.misses - before_misses)
    else:
        size = chunk_size or default_chunk_size(len(shapes), workers)
        payloads = [(arch, energy, metric, max_mappings, seed, prune,
                     layouts, policy, budget, constraints, chunk)
                    for chunk in chunked(shapes, size)]
        chunk_outputs, stats.workers = run_fanout(_search_chunk, payloads,
                                                  workers, executor=executor)
        results = []
        for chunk_results, hits, misses in chunk_outputs:
            results.extend(chunk_results)
            stats.cache = stats.cache.merge(CacheStats(hits=hits,
                                                       misses=misses))

    cost = ModelCost(arch=arch.name, model=model_name)
    for index, (result, (_, count)) in enumerate(zip(results, grouped)):
        choice = LayerChoice(result=result, count=count)
        if shape_frontiers is not None:
            choice.frontier = shape_frontiers[index]
        cost.layer_choices.append(choice)
        stats.evaluations += result.evaluated
        stats.pruned += result.pruned
        stats.repaired += result.repaired
        if result.repair is not None:
            # Sum the numeric repair-log counters over unique shapes; the
            # non-numeric fields (the ConstraintSet name) agree by
            # construction, keep the first.
            agg = dict(stats.repair or {})
            for rkey, rval in result.repair.items():
                if isinstance(rval, (int, float)):
                    agg[rkey] = agg.get(rkey, 0) + rval
                else:
                    agg.setdefault(rkey, rval)
            stats.repair = agg
    if shape_frontiers is not None:
        cost.frontiers = shape_frontiers
    if fused:
        from repro.layoutloop.cosearch import fused_model_search

        # Adjacency is positional: the fused pass walks the original layer
        # order, not the deduplicated shapes.  The per-layout consumer
        # searches memoize in the same mapper, so repeat pairs stay cheap.
        cost.fused_pairs = fused_model_search(mapper, workloads,
                                              layouts=layouts)
    stats.elapsed_s = time.perf_counter() - start
    cost.search_stats = stats
    return cost


def search_model(arch: ArchSpec, workloads: Sequence, model_name: str = "model",
                 metric: str = "edp", max_mappings=200,
                 energy: Optional[EnergyTable] = None,
                 workers: Optional[int] = 1,
                 chunk_size: Optional[int] = None, prune: bool = True,
                 seed: int = 0, cache: Optional[EvaluationCache] = None,
                 backend="analytical", policy: str = "exhaustive",
                 budget: Optional[int] = None, frontier: bool = False,
                 fused: bool = False, constraints=None) -> ModelCost:
    """Co-search a whole model on one architecture and aggregate the cost.

    .. deprecated:: 1.1
        This is now a thin shim over the :mod:`repro.api` façade: it builds
        a :class:`~repro.api.SearchRequest` and runs it on the module-default
        :class:`~repro.api.Session` (bit-identical outputs, pinned by the
        golden tests).  New code should construct a ``Session`` and call
        :meth:`~repro.api.Session.run` directly — a long-lived session
        amortizes its evaluation cache and worker pool across requests,
        which this per-call front deliberately does not
        (``fresh_cache=True`` preserves the legacy per-call semantics).

    Parameters mirror :class:`~repro.layoutloop.mapper.Mapper`; the batch
    level adds:

    * ``workers`` — worker processes for the fan-out over unique shapes.
      ``1`` (default) runs serially; ``None`` consults the
      ``REPRO_SEARCH_WORKERS`` environment variable.  Results are
      bit-identical regardless of the worker count.
    * ``chunk_size`` — unique shapes per worker task (default: balanced
      so each worker receives ~4 chunks).
    * ``cache`` — a shared :class:`EvaluationCache` (serial path only;
      worker processes always build their own).
    * ``backend`` — the :mod:`repro.backends` evaluation backend scoring
      the candidates: a registry name (default ``"analytical"``) or an
      already-constructed backend instance (reused as-is, keeping its
      simulation memos warm).  Non-analytical backends run serially (their
      in-process state — accelerator instances, simulation memos — does
      not ship to worker processes) and without pruning.
    * ``policy``/``budget`` — budgeted search policy over the same
      candidate universe (``"exhaustive"``, ``"halving"``,
      ``"evolutionary"``; see :mod:`repro.search.budget`) and its cap on
      scored pairs per unique shape.
    * ``max_mappings="auto"`` — adaptive universe (analytical backend,
      exhaustive policy): a small seeded sample grown only where the bound
      landscape is tight, returning exactly the uncapped exhaustive winner
      of the full structured space.
    * ``constraints`` — a :class:`repro.constraints.ConstraintSet` (or the
      request strings ``"none"``/``"default"``) binding platform rules to
      the search: every candidate is repaired to legality before scoring
      and the stats carry the repair-log counters.  ``None`` (default)
      inherits the backend's own constraints — the analytical and
      simulator backends carry none, ``systolic``/``noc:*`` carry their
      presets.

    Raises ``ValueError`` on an empty workload list — silently returning an
    all-zero :class:`ModelCost` hid bugs in callers.
    """
    from repro.api import SearchRequest, default_session
    from repro.api.codec import arch_payload, workload_payload

    workloads = list(workloads)
    if not workloads:
        raise InvalidRequestError(
            f"search_model({model_name!r}) requires at least one workload")
    session = default_session()
    # Live objects (a shared cache, an energy calibration, a constructed
    # backend instance) and the chunking override are engine configuration
    # a serializable request cannot carry; those calls go straight to the
    # execution layer with the same session-resolved worker count.
    if (energy is not None or cache is not None or chunk_size is not None
            or not (backend is None or isinstance(backend, str))
            or not (constraints is None or isinstance(constraints, str))):
        return _search_model_impl(
            arch, workloads, model_name=model_name, metric=metric,
            max_mappings=max_mappings, energy=energy,
            workers=session.resolve_workers(workers), chunk_size=chunk_size,
            prune=prune, seed=seed, cache=cache, backend=backend,
            policy=policy, budget=budget, frontier=frontier, fused=fused,
            constraints=constraints)
    request = SearchRequest(
        workloads=tuple(workload_payload(wl) for wl in workloads),
        arch=arch_payload(arch), model=model_name, metric=metric,
        max_mappings=max_mappings, seed=seed, prune=prune,
        backend=backend or "analytical", workers=workers, fresh_cache=True,
        policy=policy, budget=budget, frontier=frontier, fused=fused,
        constraints=constraints)
    return session.run(request).cost


def search_models(arches: Sequence[ArchSpec], workloads: Sequence,
                  model_name: str = "model", metric: str = "edp",
                  max_mappings: int = 200,
                  energy: Optional[EnergyTable] = None,
                  workers: Optional[int] = 1,
                  chunk_size: Optional[int] = None, prune: bool = True,
                  seed: int = 0, backend: str = "analytical",
                  policy: str = "exhaustive", budget: Optional[int] = None,
                  constraints=None) -> Dict[str, ModelCost]:
    """Run :func:`search_model` for several architectures (Fig. 13 style)."""
    return {
        arch.name: search_model(arch, workloads, model_name=model_name,
                                metric=metric, max_mappings=max_mappings,
                                energy=energy, workers=workers,
                                chunk_size=chunk_size, prune=prune, seed=seed,
                                backend=backend, policy=policy, budget=budget,
                                constraints=constraints)
        for arch in arches
    }
