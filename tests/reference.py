"""Scalar reference oracle: the code the production search is checked
against.

The production path prices every cell through the cost model's one
batched call (array footprints, compiled layouts, the batched concordance
kernel of :mod:`repro.kernel`), and
:meth:`repro.layoutloop.mapper.Mapper.search` scans a lazily materialized
:class:`~repro.search.bulk.BulkUniverse` whose admissible bounds come from
one numpy pass.  This module keeps the scalar twin of each piece, one
object at a time:

* :func:`reference_evaluate` prices one (workload, mapping, layout) cell
  from coordinate dicts through the scalar
  :func:`repro.layout.concordance.analyze_concordance`; only the
  layout-independent terms (``_assemble_report``,
  ``_energy_breakdown_parts``, ``reorder_costs``) are shared with the cost
  model;
* :func:`reference_evaluate_cached` memoizes it in an
  :class:`~repro.search.cache.EvaluationCache` with exactly the keys,
  value entries and hit/miss counts of ``EvaluationCache.evaluate_batch``;
* :func:`metric_lower_bound` is the per-mapping admissible bound;
* :func:`materialized_sample` builds the whole mapping space and samples
  the list;
* :func:`reference_search` is the exhaustive search loop over all of them
  (the candidate universe is materialized up front, then repaired when a
  ConstraintSet binds; non-analytical backends score through their own
  ``evaluate``); with ``prune=False`` it is also the unpruned scan
  the pruning-identity tests compare against.

The search covers the exhaustive policy over an integer ``max_mappings``:
the configuration every golden cell uses.  Given a fresh mapper of the
same configuration, it must reproduce the production result exactly —
winner report, mapping, layout and every counter.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.layout.concordance import analyze_concordance
from repro.layout.patterns import ReorderImplementation
from repro.layoutloop.cost_model import (
    _SAMPLE_BASES,
    CostReport,
    streaming_tensor_dims,
)
from repro.layoutloop.mapper import Mapper, SearchResult, _metric_value
from repro.search.bounds import BoundStatics, bound_statics
from repro.search.signatures import (
    arch_signature,
    layout_signature,
    mapping_signature,
    workload_signature,
)
from repro.workloads.conv import ConvLayerSpec


# ------------------------------------------------------------- cost model
def _conv_iact_coords(layer, mapping, base) -> List[Dict[str, int]]:
    """Concurrent iAct coordinates demanded by the mapping's parallel dims."""
    c0, h0, w0 = base
    deg = mapping.parallel_dims
    coords = [{"C": c0 % max(1, layer.c), "H": h0 % max(1, layer.h),
               "W": w0 % max(1, layer.w)}]

    def expand(count: int, apply):
        nonlocal coords
        if count <= 1:
            return
        expanded = []
        for coord in coords:
            for idx in range(count):
                new = dict(coord)
                apply(new, idx)
                expanded.append(new)
        coords = expanded

    expand(deg.get("C", 1),
           lambda c, i: c.update(C=(c["C"] + i) % max(1, layer.c)))
    expand(deg.get("P", 1),
           lambda c, i: c.update(H=(c["H"] + i * layer.stride)
                                 % max(1, layer.h)))
    expand(deg.get("Q", 1),
           lambda c, i: c.update(W=(c["W"] + i * layer.stride)
                                 % max(1, layer.w)))
    expand(deg.get("R", 1),
           lambda c, i: c.update(H=(c["H"] + i) % max(1, layer.h)))
    expand(deg.get("S", 1),
           lambda c, i: c.update(W=(c["W"] + i) % max(1, layer.w)))
    # M and N parallelism broadcasts the same iActs: no new coordinates.
    return coords


def _gemm_input_coords(gemm, mapping, base) -> List[Dict[str, int]]:
    """Concurrent GEMM input coordinates demanded by the parallel dims."""
    m0, k0, _ = base
    deg = mapping.parallel_dims
    coords = [{"M": m0 % max(1, gemm.m), "K": k0 % max(1, gemm.k)}]

    def expand(dim: str, count: int, extent: int):
        nonlocal coords
        if count <= 1:
            return
        expanded = []
        for coord in coords:
            for idx in range(count):
                new = dict(coord)
                new[dim] = (coord[dim] + idx) % max(1, extent)
                expanded.append(new)
        coords = expanded

    expand("M", deg.get("M", 1), gemm.m)
    expand("K", deg.get("K", 1), gemm.k)
    # N parallelism broadcasts the same input row: no new coordinates.
    return coords


def reference_slowdown(cost_model, workload, mapping, layout) -> float:
    """Average bank-conflict slowdown of streaming-tensor reads under
    ``layout``, from per-cycle coordinate dicts."""
    arch = cost_model.arch
    if arch.reorder_implementation is ReorderImplementation.RIR:
        # FEATHER co-switches to a concordant layout (§IV-B).
        return 1.0
    expand = (_conv_iact_coords if isinstance(workload, ConvLayerSpec)
              else _gemm_input_coords)
    per_cycle = [expand(workload, mapping, base) for base in _SAMPLE_BASES]
    report = analyze_concordance(
        per_cycle, layout, streaming_tensor_dims(workload),
        ports_per_bank=arch.buffer.ports_per_bank,
        lines_per_bank=arch.buffer.conflict_depth,
        num_banks=arch.buffer.banks,
        pattern=arch.reorder_pattern,
    )
    return report.avg_slowdown


def reference_evaluate(cost_model, workload, mapping, layout) -> CostReport:
    """Scalar report of one (workload, mapping, layout) cell."""
    return cost_model._assemble_report(
        workload, mapping, layout,
        reference_slowdown(cost_model, workload, mapping, layout),
        mapping.compute_cycles(workload), cost_model.reorder_costs(workload),
        cost_model._energy_breakdown_parts(workload, mapping))


def reference_evaluate_cached(cache, cost_model, workload, mapping, layout
                              ) -> Tuple[CostReport, bool]:
    """:func:`reference_evaluate` memoized in ``cache``: ``(report,
    was_hit)``.

    One counted lookup per call under the key ``evaluate_batch`` uses
    (arch + energy, workload shape, mapping and layout signatures), and
    a miss stores what production stores: the report's
    ``(total_cycles, total_energy_pj, slowdown)``.  A hit rebuilds the
    report from the stored slowdown, labelled with the caller's names.
    """
    key = (arch_signature(cost_model.arch),
           workload_signature(workload), mapping_signature(mapping),
           layout_signature(layout))
    entry = cache.get(key)
    if entry is not None:
        return cost_model._assemble_report(
            workload, mapping, layout, entry[2],
            mapping.compute_cycles(workload),
            cost_model.reorder_costs(workload),
            cost_model._energy_breakdown_parts(workload, mapping)), True
    report = reference_evaluate(cost_model, workload, mapping, layout)
    cache.put(key, (report.total_cycles, report.total_energy_pj,
                    report.slowdown))
    return report, False


# ------------------------------------------------------- bounds and space
def metric_lower_bound(metric: str, compute_cycles: float,
                       statics: BoundStatics) -> float:
    """Admissible lower bound of ``metric`` for any layout under a mapping
    of ``compute_cycles``."""
    cycles_floor = compute_cycles + statics.reorder_cycles
    if metric == "latency":
        return cycles_floor
    if metric == "energy":
        return statics.energy_floor_pj
    if metric == "edp":
        return statics.energy_floor_pj * cycles_floor
    raise ValueError(f"unknown metric {metric!r}")


def materialized_sample(space, count: int, seed: int = 0) -> List:
    """``space.sample(count, seed)`` computed by building every mapping of
    the space first and sampling the list."""
    all_mappings = list(space.iter_mappings())
    if count >= len(all_mappings):
        return all_mappings
    return random.Random(seed).sample(all_mappings, count)


# ------------------------------------------------------------------ search
def reference_candidates(mapper: Mapper, workload) -> Tuple[List, object]:
    """The materialized candidate list of ``mapper`` and its RepairLog
    (``None`` when no ConstraintSet binds)."""
    space = mapper._mapping_space(workload)
    if space is None:
        raw = mapper._fixed_parallelism_mappings(workload)
    else:
        raw = materialized_sample(space, mapper.config.max_mappings,
                                  seed=mapper.config.seed)
        raw.extend(mapper._canonical_tail(workload))
    if mapper.constraints is None:
        return raw, None
    return mapper.constraints.repair_candidates(raw, workload, mapper.arch)


def reference_search(mapper: Mapper, workload,
                     layouts: Optional[Sequence] = None,
                     prune: bool = True) -> SearchResult:
    """Exhaustive search of ``mapper``'s configuration, one mapping and one
    layout at a time (see the module docstring).

    ``prune=False`` skips the admissible bound and scores every candidate:
    the unpruned scan the pruning-identity tests compare against (the
    production search always prunes where the bounds hold, i.e. on the
    analytical backend)."""
    config = mapper.config
    assert config.policy == "exhaustive" and config.max_mappings != "auto"
    layouts = list(layouts) if layouts else mapper.candidate_layouts(workload)
    mappings, log = reference_candidates(mapper, workload)
    statics = (bound_statics(mapper.cost_model, workload)
               if prune and mapper._analytical else None)

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
            scored = [reference_evaluate_cached(
                mapper.evaluation_cache, mapper.cost_model, workload,
                mapping, layout) for layout in layouts]
        else:
            scored = [(report, False) for report in
                      mapper.backend.evaluate(workload, mapping, layouts)]
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
