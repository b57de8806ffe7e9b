"""The batch co-search engine under :meth:`repro.api.Session.run`.

:func:`_search_model_impl` is the execution layer of whole-model (dataflow,
layout) co-search; callers reach it through a
:class:`~repro.api.SearchRequest` on a :class:`~repro.api.Session` (single
layers go through :meth:`~repro.layoutloop.mapper.Mapper.search`).  It
composes the three optimisations this package exists for:

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
from repro.layoutloop.mapper import Mapper, SearchResult
from repro.search.cache import CacheStats, EvaluationCache
from repro.search.config import SearchConfig
from repro.search.parallel import (
    chunked,
    default_chunk_size,
    run_fanout,
)


@dataclass
class SearchStats:
    """Bookkeeping of one whole-model search run."""

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


# ----------------------------------------------------------------- batch API
def _search_chunk(payload: Tuple) -> Tuple[List[SearchResult], int, int]:
    """Worker entry point: search one chunk of unique shapes.

    Must stay a module-level function (pickled by ``ProcessPoolExecutor``).
    The payload carries everything needed to rebuild the exact serial search
    configuration, so a chunk's results do not depend on which process (or
    how many) ran it.
    """
    arch, config, shapes = payload
    mapper = Mapper(arch, config, evaluation_cache=EvaluationCache())
    results = [mapper.search(wl) for wl in shapes]
    stats = mapper.evaluation_cache.stats
    return results, stats.hits, stats.misses


def _search_model_impl(arch: ArchSpec, workloads: Sequence,
                       config: SearchConfig, model_name: str = "model",
                       workers: int = 1,
                       cache: Optional[EvaluationCache] = None,
                       backend="analytical",
                       executor=None,
                       mapper: Optional[Mapper] = None) -> ModelCost:
    """The whole-model co-search engine behind :meth:`repro.api.Session.run`.

    Every shape is searched under ``config``.  This is the execution
    layer: ``workers`` must already be a concrete count (user-facing
    resolution — explicit argument over the ``REPRO_SEARCH_WORKERS``
    environment variable over the serial default — happens in exactly one
    place, :meth:`repro.api.Session.resolve_workers`).
    ``backend`` is ``"analytical"`` or a constructed non-analytical backend
    instance (searched serially, keeping its simulation memos warm).
    ``executor`` is an optional caller-owned persistent process pool
    (see :func:`repro.search.parallel.run_fanout`).

    ``mapper`` (serial paths only) is a caller-owned persistent
    :class:`Mapper` built on the same arch, config and backend —
    the :class:`repro.api.Session` passes one per configuration so repeat
    requests hit its whole-result memo instead of re-sampling; determinism
    makes the memoized results identical to fresh ones, evaluation and
    prune counters included, but the evaluation-cache counters then report
    the memo (no lookups on a full hit), which is why per-call-deterministic
    callers (records, golden files) do not pass one.

    The config's own rules and its pairing with the backend are checked by
    :class:`~repro.search.config.SearchConfig` and :class:`Mapper`; this
    layer only rejects what needs the resolved workloads.
    """
    workloads = list(workloads)
    if not workloads:
        raise InvalidRequestError(
            f"model {model_name!r} has no workloads to search")
    analytical = backend == "analytical"
    frontier, fused = config.frontier, config.fused
    if fused and len(workloads) < 2:
        raise InvalidRequestError(
            "fused search requires at least two workloads "
            "(adjacency is what gets fused)")
    if frontier or fused:
        # Frontier objects and fused pairs live on the ModelCost, which
        # the fan-out's chunked workers cannot assemble: run serially
        # (results are bit-identical for any worker count anyway).
        workers = 1
    start = time.perf_counter()
    grouped = unique_workloads(workloads)
    shapes = [wl for wl, _ in grouped]
    workers = max(1, int(workers)) if analytical else 1

    backend_name = "analytical" if analytical else backend.name
    stats = SearchStats(model=model_name, arch=arch.name,
                        layers_total=len(workloads),
                        layers_unique=len(grouped), workers=workers,
                        backend=backend_name, policy=config.policy,
                        budget=config.budget)

    shape_frontiers = None
    if not analytical:
        if mapper is None:
            mapper = Mapper(arch, config, backend=backend)
        results = [mapper.search(wl) for wl in shapes]
    elif workers <= 1 or len(shapes) <= 1:
        stats.workers = 1
        if mapper is None:
            eval_cache = cache if cache is not None else EvaluationCache()
            mapper = Mapper(arch, config, evaluation_cache=eval_cache)
        else:
            eval_cache = mapper.evaluation_cache
        # Shared caches outlive this call: report this run's delta, not the
        # cache's cumulative counters.
        before_hits = eval_cache.stats.hits
        before_misses = eval_cache.stats.misses
        if frontier:
            pairs = [mapper.search_frontier(wl) for wl in shapes]
            results = [result for result, _ in pairs]
            shape_frontiers = [shape_frontier for _, shape_frontier in pairs]
        else:
            results = [mapper.search(wl) for wl in shapes]
        stats.cache = CacheStats(hits=eval_cache.stats.hits - before_hits,
                                 misses=eval_cache.stats.misses - before_misses)
    else:
        size = default_chunk_size(len(shapes), workers)
        payloads = [(arch, config, chunk)
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
        cost.fused_pairs = fused_model_search(mapper, workloads)
    stats.elapsed_s = time.perf_counter() - start
    cost.search_stats = stats
    return cost

