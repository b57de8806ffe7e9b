"""Budgeted search policies: spend evaluations where they can still win.

The exhaustive :meth:`repro.layoutloop.mapper.Mapper.search` scores every
sampled mapping under every candidate layout (minus admissibly-pruned
mappings).  The policies here keep the same candidate universe — the
mapper's seeded sample plus the canonical weight-stationary mapping, or the
whole structured space under ``max_mappings="auto"`` — but order and cap
the full-fidelity evaluations:

* :func:`halving_search` — successive halving collapsed to its exact limit:
  rank every mapping by its cheap-rung score (the admissible bound of
  :meth:`repro.search.bulk.BulkUniverse.bounds` on the analytical backend,
  a full analytical pre-pass on any other), then evaluate in rank order.
  Evaluating rungs of size 1 in bound order dominates any coarser halving
  schedule — no candidate is ever evaluated after the bound already proves
  it cannot win — and keeps the exhaustive guarantee: with an admissible
  bound and an uncapped budget the search stops only when every mapping
  whose bound could still beat the incumbent has been scored, so the winner
  is exactly the exhaustive one.
* :func:`evolutionary_search` — seeded population search over the same
  universe, warm-started from per-shape winners already memoized in the
  mapper's whole-result cache (repeat sessions start at the previous
  optimum), with elites mutated to their cheap-rank neighbours plus seeded
  random exploration.  No exactness guarantee at a capped budget, but
  seed-deterministic and exact once the budget covers the universe.

``budget=None`` is uncapped for *both* policies (use
:func:`default_budget` for the legacy quarter-universe refinement cap).
``max_mappings="auto"`` is :func:`halving_search` with no budget over the
whole structured space.

Budget accounting matches :class:`~repro.layoutloop.mapper.SearchResult`:
``evaluated`` counts scored (mapping, layout) pairs *including* evaluation-
cache hits, and a policy never starts a mapping it cannot finish — so
``evaluated <= budget`` whenever ``budget >= len(layouts)`` (one mapping is
always scored, even under a smaller budget, so the result is well-defined).

Both policies score through one
:class:`~repro.layoutloop.mapper.Incumbent`, whose winner is the
lexicographic minimum of ``(value, mapping_index, layout_index)`` — the
pair the exhaustive index-order scan selects — so they are tie-stable even
though they visit candidates out of index order.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.layoutloop.mapper import (
    Incumbent,
    Mapper,
    SearchResult,
    _metric_value,
)
from repro.search import bulk
from repro.search.bounds import bound_statics
from repro.search.signatures import mapping_signature, workload_signature


def default_budget(n_mappings: int, n_layouts: int) -> int:
    """Quarter-universe evaluation budget (at least one mapping's worth).

    ``budget=None`` means *uncapped* for every policy; callers who want the
    refinement-style cap :func:`evolutionary_search` used to default to
    pass this explicitly: ``budget=default_budget(len(mappings),
    len(layouts))``.
    """
    pair_cost = max(1, int(n_layouts))
    return max(pair_cost, (int(n_mappings) * pair_cost) // 4)


def _cheap_rung(mapper: Mapper, workload, universe, layouts) -> List[float]:
    """Per-mapping cheap-rung scores.

    Analytical backend: the admissible metric lower bound of every entry in
    one vectorized pass (orders of magnitude cheaper than an evaluation) —
    ranking *and* sound pruning.  Any other backend: the full analytical
    value (minimum over the candidate layouts), i.e. the multi-fidelity
    ladder's cheap rung — a fast-model ranking with no admissibility claim
    about the expensive model, so the caller may order by it but never
    prune on it (admissible exactly when ``mapper._analytical``).
    """
    metric = mapper.config.metric
    if mapper._analytical:
        statics = bound_statics(mapper.cost_model, workload)
        return universe.bounds(metric, statics).tolist()
    scores = []
    for mapping in universe:
        reports = mapper.cost_model.evaluate_mapping_batch(workload, mapping,
                                                           layouts)
        scores.append(min(_metric_value(report, metric)
                          for report in reports))
    return scores


def halving_search(mapper: Mapper, workload,
                   layouts: Optional[Sequence] = None,
                   budget: Optional[int] = None) -> SearchResult:
    """Bound-ordered successive halving over the mapper's candidate universe.

    Mappings are evaluated in ascending cheap-rung order; on the analytical
    backend the search additionally stops as soon as the next bound strictly
    exceeds the incumbent value, counting the remainder as ``pruned`` — the
    bound-order makes the stop cover every remaining mapping at once.  The
    stop is strict (``>``, not ``>=``) so exact ties with the incumbent are
    still evaluated: the exhaustive winner is the lexicographic minimum of
    ``(value, mapping_index, layout_index)``, and a tie at the incumbent
    value with a smaller mapping index must not be skipped.  With an
    uncapped budget (or one covering the whole universe) the result is
    therefore exactly the exhaustive one.

    ``budget`` caps ``evaluated`` (scored pairs, cache hits included); the
    search never starts a mapping it cannot finish, except the very first —
    every search scores at least one mapping.
    """
    layouts = list(layouts) if layouts else mapper.candidate_layouts(workload)
    mappings = bulk.candidate_universe(mapper, workload)
    pair_cost = len(layouts)
    rung = _cheap_rung(mapper, workload, mappings, layouts)
    order = sorted(range(len(mappings)), key=lambda i: (rung[i], i))

    incumbent = Incumbent(mapper, workload, layouts,
                          mappings.compute_cycles().tolist())
    pruned = 0
    for rank, index in enumerate(order):
        if (mapper._analytical and incumbent.key is not None
                and rung[index] > incumbent.key[0]):
            # Bound order: every remaining mapping's bound is >= this one's,
            # so none of them can contain a pair below (or tying) the
            # incumbent — admissibly prune them all.
            pruned += pair_cost * (len(order) - rank)
            break
        if (budget is not None and incumbent.evaluated
                and incumbent.evaluated + pair_cost > budget):
            break
        incumbent.score(index, mappings[index])
    return incumbent.result(pruned)


def evolutionary_search(mapper: Mapper, workload,
                        layouts: Optional[Sequence] = None,
                        budget: Optional[int] = None) -> SearchResult:
    """Seeded evolutionary refinement over the mapper's candidate universe.

    The population is seeded from (a) per-shape winners already memoized in
    the mapper's whole-result cache — any prior search of the same workload
    shape under the same metric, regardless of policy, contributes its
    winning mapping, so warm sessions start at the previous optimum — (b)
    the canonical weight-stationary mapping, and (c) seeded random picks.
    Each generation fully evaluates the population, keeps the top three
    elites, and breeds the next generation from the elites' unevaluated
    neighbours in cheap-rung rank order (mappings with adjacent lower
    bounds behave similarly) plus seeded random exploration.

    Deterministic for a fixed ``(mapper.config.seed, cache state, budget)``.
    ``budget=None`` is uncapped — the same contract as
    :func:`halving_search`, under which the search covers the whole
    universe and returns exactly the exhaustive winner; pass
    :func:`default_budget` for the legacy quarter-universe refinement cap.
    """
    layouts = list(layouts) if layouts else mapper.candidate_layouts(workload)
    mappings = bulk.candidate_universe(mapper, workload)
    n = len(mappings)
    pair_cost = len(layouts)
    rng = random.Random(mapper.config.seed)
    rung = _cheap_rung(mapper, workload, mappings, layouts)
    order = sorted(range(n), key=lambda i: (rung[i], i))
    rank_of = {index: rank for rank, index in enumerate(order)}

    # Warm start: previous winners for this shape, mapped back into the
    # universe by structural signature (names never matter).
    sig_to_index = {}
    for index, mapping in enumerate(mappings):
        sig_to_index.setdefault(mapping_signature(mapping), index)
    shape_sig = workload_signature(workload)
    seeds = sorted({
        sig_to_index[mapping_signature(prior.best_mapping)]
        for key, prior in mapper._cache.items()
        if key.signature == shape_sig and prior.metric == mapper.config.metric
        and mapping_signature(prior.best_mapping) in sig_to_index
    })
    population = list(seeds)
    canonical = n - 1  # candidate_mappings appends the canonical WS mapping
    if canonical not in population:
        population.append(canonical)
    population_size = max(4, min(n, 8))
    unseen_pool = [i for i in order if i not in set(population)]
    while len(population) < population_size and unseen_pool:
        population.append(unseen_pool.pop(rng.randrange(len(unseen_pool))))

    incumbent = Incumbent(mapper, workload, layouts,
                          mappings.compute_cycles().tolist())
    seen = set()
    exhausted = False
    frontier = population
    while True:
        for index in frontier:
            if index in seen:
                continue
            if (budget is not None and incumbent.evaluated
                    and incumbent.evaluated + pair_cost > budget):
                exhausted = True
                break
            seen.add(index)
            incumbent.score(index, mappings[index])
        if exhausted or len(seen) >= n:
            break
        elites = sorted(incumbent.min_values,
                        key=lambda i: (incumbent.min_values[i], i))[:3]
        children: List[int] = []
        for elite in elites:
            rank = rank_of[elite]
            for delta in (1, -1, 2, -2):
                neighbour_rank = rank + delta
                if 0 <= neighbour_rank < n:
                    candidate = order[neighbour_rank]
                    if candidate not in seen and candidate not in children:
                        children.append(candidate)
        remaining = [i for i in order if i not in seen and i not in set(children)]
        while len(children) < population_size and remaining:
            children.append(remaining.pop(rng.randrange(len(remaining))))
        if not children:
            break
        frontier = children
    return incumbent.result(0)
