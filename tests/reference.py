"""Scalar reference search: the oracle the production search is checked
against.

The production search (:meth:`repro.layoutloop.mapper.Mapper.search`) scans
a lazily materialized :class:`~repro.search.bulk.BulkUniverse`, takes every
admissible bound from one numpy pass and scores each surviving mapping under
all of its layouts in one batched, memoized call.  The search here is the
loop that path replaced, one object at a time:

* the candidate universe is materialized up front
  (``MappingSpace.sample(materialize=True)`` plus the canonical tail, then
  constraint repair when a set binds);
* each mapping's bound is the scalar
  :func:`repro.search.bounds.metric_lower_bound` of its compute cycles;
* each (mapping, layout) pair is priced by ``EvaluationCache.evaluate``
  (the scalar ``CostModel.evaluate`` behind a per-pair cache lookup), or by
  the backend's ``evaluate_mapping`` on a non-analytical backend.

It covers the exhaustive policy over an integer ``max_mappings``: the
configuration every golden cell uses.  Given a fresh mapper of the same
configuration, it must reproduce the production result exactly — winner
report, mapping, layout and every counter.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.layoutloop.mapper import Mapper, SearchResult, _metric_value
from repro.search.bounds import cached_bound_statics, metric_lower_bound


def reference_candidates(mapper: Mapper, workload) -> Tuple[List, object]:
    """The materialized candidate list of ``mapper`` and its RepairLog
    (``None`` when no ConstraintSet binds)."""
    space = mapper._mapping_space(workload)
    if space is None:
        raw = mapper._fixed_parallelism_mappings(workload)
    else:
        raw = space.sample(mapper.config.max_mappings,
                           seed=mapper.config.seed, materialize=True)
        raw.extend(mapper._canonical_tail(workload))
    if mapper.constraints is None:
        return raw, None
    return mapper.constraints.repair_candidates(raw, workload, mapper.arch)


def reference_search(mapper: Mapper, workload,
                     layouts: Optional[Sequence] = None) -> SearchResult:
    """Exhaustive search of ``mapper``'s configuration, one mapping and one
    layout at a time (see the module docstring)."""
    config = mapper.config
    assert config.policy == "exhaustive" and config.max_mappings != "auto"
    layouts = list(layouts) if layouts else mapper.candidate_layouts(workload)
    mappings, log = reference_candidates(mapper, workload)
    statics = (cached_bound_statics(mapper.cost_model, workload)
               if config.prune and mapper._analytical else None)

    best = None
    best_value = math.inf
    best_mapping = None
    best_layout = None
    evaluated = pruned = cache_hits = 0
    for mapping in mappings:
        if statics is not None and best is not None:
            bound = metric_lower_bound(
                config.metric, mapping.compute_cycles(workload), statics)
            if bound >= best_value:
                pruned += len(layouts)
                continue
        if mapper._analytical:
            scored = [mapper.evaluation_cache.evaluate(
                mapper.cost_model, workload, mapping, layout)
                for layout in layouts]
        else:
            scored = [(report, False) for report in
                      mapper.backend.evaluate_mapping(workload, mapping,
                                                      layouts)]
        for layout, (report, hit) in zip(layouts, scored):
            evaluated += 1
            cache_hits += hit
            value = _metric_value(report, config.metric)
            if best is None or value < best_value:
                best, best_mapping, best_layout = report, mapping, layout
                best_value = value

    result = SearchResult(
        workload=getattr(workload, "name", str(workload)),
        arch=mapper.arch.name, best_report=best, best_mapping=best_mapping,
        best_layout=best_layout, evaluated=evaluated, metric=config.metric,
        pruned=pruned, cache_hits=cache_hits)
    if log is not None:
        result.repaired = log.merged * len(layouts)
        result.repair = dict(log.as_dict(),
                             universe_pairs=log.candidates * len(layouts))
    return result


def reference_mapper_search(mapper: Mapper, workload,
                            layouts: Optional[Sequence] = None
                            ) -> SearchResult:
    """Drop-in for ``Mapper.search`` that computes through
    :func:`reference_search` and memoizes in the mapper's result cache, so a
    whole engine run (scenario cell) can be replayed on the oracle."""
    key = mapper._result_key(workload, layouts)
    if key not in mapper._cache:
        mapper._cache[key] = reference_search(mapper, workload, layouts)
    return mapper._cache[key]
