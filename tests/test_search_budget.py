"""Budgeted search policies: exactness, determinism and budget compliance.

The contract under test (:mod:`repro.search.budget`):

* **halving is exact at full budget** — on every golden micro-cell's
  (workload set, arch, config), over every backend the cell can run
  analytically or on the simulator, uncapped ``halving_search`` returns
  exactly the exhaustive winner (value, mapping *and* layout: the winner is
  the lexicographic minimum of ``(value, mapping index, layout index)``,
  so tie-breaks must survive the bound-ordered visit).
* **budget compliance** — for any ``budget >= len(layouts)`` both policies
  score at most ``budget`` (mapping, layout) pairs.
* **evolutionary determinism** — same (mapper seed, memo state, budget)
  means the same result object, field for field.
* **warm start** — once any search of a shape is memoized, evolutionary
  refinement finds the exhaustive winner with a budget of two mappings.
* **one incumbent** — the :class:`~repro.layoutloop.mapper.Incumbent`
  every policy scores through returns the index-order winner whatever
  order the pairs are visited in.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.simulator import SimulatorBackend
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.mapper import Incumbent, Mapper
from repro.scenarios.builtin import golden_matrix
from repro.scenarios.registry import resolve_arch, resolve_workload_set
from repro.search.budget import (
    default_budget,
    evolutionary_search,
    halving_search,
)
from repro.search.config import POLICIES, SearchConfig
from repro.search.signatures import workload_signature
from repro.workloads.resnet50 import resnet50_layers

GOLDEN_CELLS = list(golden_matrix())


def _unique(workloads):
    seen = {}
    for workload in workloads:
        seen.setdefault(workload_signature(workload), workload)
    return list(seen.values())


def _mapper_for_cell(cell):
    """An exhaustive mapper on the cell's (arch, config) — analytical for
    analytical/crossval cells, simulator-backed for simulator cells."""
    arch = resolve_arch(cell.arch)
    if cell.backend == "simulator":
        backend = SimulatorBackend(arch, seed=cell.config.seed)
    else:
        backend = "analytical"
    return Mapper(arch, cell.config, backend=backend)


def _same_result(a, b) -> None:
    assert a.best_mapping.name == b.best_mapping.name
    assert a.best_layout.name == b.best_layout.name
    assert a.best_report.total_cycles == b.best_report.total_cycles
    assert a.best_report.total_energy_pj == b.best_report.total_energy_pj


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=lambda c: c.name)
def test_full_budget_halving_matches_exhaustive(cell):
    exhaustive = _mapper_for_cell(cell)
    halving = _mapper_for_cell(cell)
    for workload in _unique(resolve_workload_set(cell.workload_set)):
        reference = exhaustive.search(workload)
        result = halving_search(halving, workload)
        _same_result(result, reference)


def test_policies_tuple_is_the_public_contract():
    assert POLICIES == ("exhaustive", "halving", "evolutionary")
    with pytest.raises(ValueError, match="policy"):
        Mapper(feather_arch(), SearchConfig(policy="anneal"))
    with pytest.raises(ValueError, match="budget"):
        Mapper(feather_arch(), SearchConfig(policy="halving", budget=0))
    with pytest.raises(ValueError, match="budget requires"):
        Mapper(feather_arch(), SearchConfig(budget=10))


def test_mapper_policy_dispatch_matches_direct_call():
    workload = resnet50_layers(include_fc=False)[0]
    exhaustive = Mapper(feather_arch(), SearchConfig(max_mappings=12, seed=0))
    budgeted = Mapper(feather_arch(), SearchConfig(max_mappings=12, seed=0,
                                                   policy="halving"))
    _same_result(budgeted.search(workload), exhaustive.search(workload))
    assert budgeted.search(workload) is budgeted.search(workload)  # memoized


@settings(max_examples=12, deadline=None)
@given(budget_mappings=st.integers(min_value=1, max_value=24),
       policy=st.sampled_from(("halving", "evolutionary")))
def test_evaluated_never_exceeds_budget(budget_mappings, policy):
    workload = resnet50_layers(include_fc=False)[0]
    mapper = Mapper(feather_arch(), SearchConfig(max_mappings=24, seed=0))
    layouts = mapper.candidate_layouts(workload)
    budget = budget_mappings * len(layouts)
    search = halving_search if policy == "halving" else evolutionary_search
    result = search(mapper, workload, budget=budget)
    assert 0 < result.evaluated <= budget


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       budget_mappings=st.integers(min_value=1, max_value=12))
def test_evolutionary_is_seed_deterministic(seed, budget_mappings):
    workload = resnet50_layers(include_fc=False)[0]

    def run():
        mapper = Mapper(feather_arch(),
                        SearchConfig(max_mappings=24, seed=seed))
        budget = budget_mappings * len(mapper.candidate_layouts(workload))
        return evolutionary_search(mapper, workload, budget=budget)

    first, second = run(), run()
    _same_result(first, second)
    assert first.evaluated == second.evaluated
    assert first.cache_hits == second.cache_hits


def test_warm_started_evolutionary_reaches_exhaustive_winner():
    arch = feather_arch()
    exhaustive = Mapper(arch, SearchConfig(max_mappings=24, seed=0))
    warm = Mapper(arch, SearchConfig(max_mappings=24, seed=0))
    for workload in _unique(resnet50_layers(include_fc=False)):
        reference = exhaustive.search(workload)
        warm._cache.update(exhaustive._cache)
        budget = 2 * len(warm.candidate_layouts(workload))
        result = evolutionary_search(warm, workload, budget=budget)
        _same_result(result, reference)
        assert result.evaluated <= budget


def test_uncapped_evolutionary_covers_the_universe():
    # budget >= universe size: every candidate is scored, so the winner is
    # exactly the exhaustive one even with an empty warm-start memo.
    workload = resnet50_layers(include_fc=False)[0]
    mapper = Mapper(feather_arch(), SearchConfig(max_mappings=12, seed=0))
    universe = (len(mapper.candidate_mappings(workload))
                * len(mapper.candidate_layouts(workload)))
    result = evolutionary_search(mapper, workload, budget=universe)
    reference = Mapper(feather_arch(),
                       SearchConfig(max_mappings=12, seed=0)).search(workload)
    _same_result(result, reference)


def test_budget_none_is_uncapped_for_both_policies():
    # ``budget=None`` means uncapped for halving AND evolutionary (the
    # latter used to silently default to a quarter-universe refinement
    # cap) — both must return exactly the exhaustive winner.
    workload = resnet50_layers(include_fc=False)[0]
    reference = Mapper(feather_arch(),
                       SearchConfig(max_mappings=12, seed=0)).search(workload)
    for search in (halving_search, evolutionary_search):
        mapper = Mapper(feather_arch(), SearchConfig(max_mappings=12, seed=0))
        _same_result(search(mapper, workload, budget=None), reference)
    # Uncapped evolutionary scores the whole universe (no hidden cap left).
    mapper = Mapper(feather_arch(), SearchConfig(max_mappings=12, seed=0))
    universe = (len(mapper.candidate_mappings(workload))
                * len(mapper.candidate_layouts(workload)))
    assert evolutionary_search(mapper, workload).evaluated == universe


def test_default_budget_is_the_legacy_quarter_universe():
    assert default_budget(24, 7) == (24 * 7) // 4
    assert default_budget(1, 7) == 7  # floor: one mapping's worth of pairs
    assert default_budget(0, 0) == 1  # degenerate inputs stay a valid budget
    # Passed explicitly, it caps the search like any other budget.
    workload = resnet50_layers(include_fc=False)[0]
    mapper = Mapper(feather_arch(), SearchConfig(max_mappings=24, seed=0))
    budget = default_budget(len(mapper.candidate_mappings(workload)),
                            len(mapper.candidate_layouts(workload)))
    result = evolutionary_search(mapper, workload, budget=budget)
    assert 0 < result.evaluated <= budget


def test_halving_reports_admissible_prunes():
    workload = resnet50_layers(include_fc=False)[0]
    mapper = Mapper(feather_arch(), SearchConfig(max_mappings=24, seed=0))
    result = halving_search(mapper, workload)
    reference = Mapper(feather_arch(),
                       SearchConfig(max_mappings=24, seed=0)).search(workload)
    # Conservation: every (mapping, layout) pair is either scored or pruned.
    universe = (len(mapper.candidate_mappings(workload))
                * len(mapper.candidate_layouts(workload)))
    assert result.evaluated + result.pruned == universe
    assert result.evaluated <= reference.evaluated
    assert math.isfinite(result.best_report.total_cycles)


class _TableMapper:
    """Stand-in mapper whose ``score`` reads latencies from a table (mapping
    ``i`` is the int ``i``), so ties can be forced at will.  Like a
    non-analytical backend, each entry carries its own report."""

    config = SearchConfig(metric="latency")
    arch = feather_arch()
    _analytical = False

    def __init__(self, table):
        self.table = table

    def score(self, workload, mapping, layouts, compute_cycles=None):
        return [((value, 0.0, SimpleNamespace(total_cycles=value)), False)
                for value in self.table[mapping]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n_layouts: st.lists(
    st.lists(st.integers(0, 3), min_size=n_layouts, max_size=n_layouts),
    min_size=1, max_size=8)), st.randoms(use_true_random=False))
def test_incumbent_winner_is_independent_of_visit_order(table, rng):
    """Scoring the same pairs in any order yields the index-order scan's
    winner: the minimum value, ties broken by mapping index, then layout
    index."""
    layouts = [object() for _ in table[0]]
    order = list(range(len(table)))
    rng.shuffle(order)
    incumbent = Incumbent(_TableMapper(table), "w", layouts)
    for index in order:
        scored = incumbent.score(index, index)
        assert [cycles for (cycles, _, _), _ in scored] == table[index]
    # The index-order scan keeps the first strict improvement.
    first = None
    for m, row in enumerate(table):
        for l, value in enumerate(row):
            if first is None or value < first[0]:
                first = (value, m, l)
    assert incumbent.key == first
    assert incumbent.mapping == first[1]
    assert incumbent.layout is layouts[first[2]]
    assert incumbent.evaluated == len(table) * len(layouts)
    assert incumbent.min_values == {m: min(row)
                                    for m, row in enumerate(table)}
    result = incumbent.result(pruned=0)
    assert result.best_value == first[0] and result.best_mapping == first[1]
