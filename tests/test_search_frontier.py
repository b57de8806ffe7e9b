"""Pareto-frontier co-search and fused two-layer mappings.

The contracts under test:

* **Dominance is a strict partial order** — :func:`repro.search.frontier.
  dominates` is irreflexive and transitive (hypothesis, over arbitrary
  objective vectors), and :func:`pareto_fold` maintains a mutually
  non-dominated front whatever the insertion order.
* **The scalar winner is always a frontier member** — on every analytical
  golden cell, ``search_frontier`` returns a :class:`SearchResult`
  bit-identical to :meth:`Mapper.search` (report, mapping and layout),
  the frontier's ``winner()`` is that same candidate, and the scan's
  ``evaluated + pruned`` covers the exhaustive universe exactly.
* **Frontier payloads round-trip bit-identically** — ``to_dict -> json ->
  from_dict -> to_dict`` is the identity for :class:`ShapeFrontier` and
  :class:`FusedPairResult`, and a ``frontier=True``/``fused=True`` cell's
  payloads survive a full :class:`ScenarioRecord` JSON round trip.
* **Fused mappings are legal** — on the ResNet-50 residual block every
  adjacent pair fuses, the winner's shared-tile footprint fits the on-chip
  buffer, and the fused candidates save intermediate DRAM traffic.
* **Isolation** — ``frontier=``/``fused=`` requests demand the analytical
  backend and the exhaustive policy, at request *and* config level.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SearchRequest, Session
from repro.errors import InvalidRequestError
from repro.layoutloop.cosearch import (
    FusedPairResult,
    fused_pair_search,
    fusible,
)
from repro.layoutloop.mapper import Mapper
from repro.scenarios.builtin import golden_matrix
from repro.scenarios.record import ScenarioRecord
from repro.scenarios.registry import resolve_arch, resolve_workload_set
from repro.search.config import SearchConfig
from repro.search.frontier import (
    OBJECTIVES,
    ShapeFrontier,
    buffer_footprint_bytes,
    dominates,
    pareto_fold,
)
from repro.search.signatures import workload_signature
from repro.workloads.resnet50 import resnet50_residual_block

ANALYTICAL_GOLDEN_CELLS = [cell for cell in golden_matrix()
                           if cell.backend == "analytical"]

_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
              allow_infinity=False),
    min_size=len(OBJECTIVES), max_size=len(OBJECTIVES)).map(tuple)


def _unique(workloads):
    seen = {}
    for workload in workloads:
        seen.setdefault(workload_signature(workload), workload)
    return list(seen.values())


# ----------------------------------------------------------- dominance order
@settings(max_examples=100, deadline=None)
@given(vector=_vectors)
def test_dominance_is_irreflexive(vector):
    assert not dominates(vector, vector)


@settings(max_examples=100, deadline=None)
@given(a=_vectors, b=_vectors, c=_vectors)
def test_dominance_is_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


@settings(max_examples=100, deadline=None)
@given(a=_vectors, b=_vectors)
def test_dominance_is_antisymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))


@settings(max_examples=60, deadline=None)
@given(vectors=st.lists(_vectors, min_size=1, max_size=24))
def test_pareto_fold_front_is_mutually_non_dominated(vectors):
    front = []
    for index, vector in enumerate(vectors):
        pareto_fold(front, vector, index)
    kept = [vector for vector, _ in front]
    # No kept point dominates another kept point.
    for i, a in enumerate(kept):
        for j, b in enumerate(kept):
            if i != j:
                assert not dominates(a, b)
    # Completeness: every input is dominated-or-equalled by some kept point.
    for vector in vectors:
        assert any(all(k <= v for k, v in zip(kept_vec, vector))
                   for kept_vec in kept)


# ------------------------------------------------- winner membership/identity
@pytest.mark.parametrize("cell", ANALYTICAL_GOLDEN_CELLS,
                         ids=lambda c: c.name)
def test_frontier_winner_is_bit_identical_to_scalar_search(cell):
    arch = resolve_arch(cell.arch)
    for workload in _unique(resolve_workload_set(cell.workload_set)):
        scalar = Mapper(arch, cell.config).search(workload)
        mapper = Mapper(arch, cell.config)
        result, frontier = mapper.search_frontier(workload)
        # The dominance prune only removes work: the scan covers the whole
        # exhaustive universe and scores no more than it.
        universe = (len(mapper.candidate_mappings(workload))
                    * len(mapper.candidate_layouts(workload)))
        assert result.evaluated + result.pruned == universe
        assert result.evaluated <= universe
        assert result.best_report == scalar.best_report
        assert result.best_mapping.name == scalar.best_mapping.name
        assert result.best_layout.name == scalar.best_layout.name
        winner = frontier.winner()
        assert winner.mapping == scalar.best_mapping.name
        assert winner.layout == scalar.best_layout.name
        assert winner.edp == scalar.best_report.edp
        assert winner.total_cycles == scalar.best_report.total_cycles
        assert winner.total_energy_pj == scalar.best_report.total_energy_pj


def test_frontier_points_are_mutually_non_dominated_and_canonical():
    arch = resolve_arch("FEATHER")
    workload = resnet50_residual_block()[0]
    _, frontier = Mapper(arch, SearchConfig(max_mappings=12)).search_frontier(
        workload)
    assert len(frontier.points) >= 1
    vectors = [p.objectives for p in frontier.points]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j:
                assert not dominates(a, b)
    keys = [(p.objectives, p.mapping_index, p.layout_index)
            for p in frontier.points]
    assert keys == sorted(keys)  # canonical order, deterministic JSON
    # The footprint objective is the documented tile measure.
    mapper = Mapper(arch, SearchConfig(max_mappings=12))
    by_index = {m_idx: mapping
                for m_idx, mapping in enumerate(
                    mapper.candidate_mappings(workload))}
    for point in frontier.points:
        assert point.buffer_footprint_bytes == buffer_footprint_bytes(
            workload, by_index[point.mapping_index], arch)


def test_frontier_requires_exhaustive_analytical():
    arch = resolve_arch("FEATHER")
    workload = resnet50_residual_block()[0]
    with pytest.raises(ValueError, match="exhaustive"):
        Mapper(arch, SearchConfig(policy="halving")).search_frontier(workload)


# ------------------------------------------------------------- round tripping
def test_shape_frontier_round_trips_bit_identically():
    arch = resolve_arch("FEATHER")
    workload = resnet50_residual_block()[1]
    _, frontier = Mapper(arch, SearchConfig(max_mappings=12)).search_frontier(
        workload)
    payload = frontier.to_dict()
    rebuilt = ShapeFrontier.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt == frontier
    assert rebuilt.to_dict() == payload
    assert rebuilt.winner() == frontier.winner()


def test_fused_pair_result_round_trips_bit_identically():
    arch = resolve_arch("FEATHER")
    producer, consumer = resnet50_residual_block()[:2]
    fused = fused_pair_search(Mapper(arch, SearchConfig(max_mappings=12)),
                              producer, consumer)
    payload = fused.to_dict()
    rebuilt = FusedPairResult.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt == fused
    assert rebuilt.to_dict() == payload


def test_frontier_cell_record_round_trips_through_json(tmp_path):
    cell = golden_matrix().get("golden-fused-residual")
    with Session(name="frontier-test") as session:
        response = session.run(SearchRequest(
            workloads=cell.workload_set, arch=cell.arch, model=cell.name,
            metric=cell.config.metric, max_mappings=cell.config.max_mappings,
            seed=cell.config.seed, frontier=True, fused=True,
            fresh_cache=True))
    assert response.frontiers is not None and len(response.frontiers) == 3
    assert response.fused is not None and len(response.fused) == 2
    from repro.scenarios.runner import run_cell

    result = run_cell(cell, runs_dir=tmp_path, workers=1)
    record = result.record
    assert record.frontiers == response.frontiers
    assert record.fused == response.fused
    reread = ScenarioRecord.read(result.path)
    assert reread.to_dict() == record.to_dict()
    assert reread.deterministic_payload() == record.deterministic_payload()
    # The typed views rebuild from the recorded payloads bit-identically.
    for shape_payload in reread.frontiers:
        frontier = ShapeFrontier.from_dict(shape_payload)
        assert frontier.to_dict() == shape_payload
        assert frontier.points[frontier.winner_index] is frontier.winner()


# ------------------------------------------------------------ fused mappings
def test_residual_block_pairs_are_fusible_and_legal():
    arch = resolve_arch("FEATHER")
    layers = resnet50_residual_block()
    assert [l.name for l in layers] == [
        "resnet50_layer6", "resnet50_layer7", "resnet50_layer8"]
    mapper = Mapper(arch, SearchConfig(max_mappings=12))
    for producer, consumer in zip(layers, layers[1:]):
        assert fusible(producer, consumer)
        fused = fused_pair_search(mapper, producer, consumer)
        assert fused.capacity_bytes == arch.buffer.capacity_bytes
        winner = fused.winner()
        # The winning shared-tile mapping is legal and saves DRAM traffic.
        assert winner["legal"]
        assert winner["buffer_footprint_bytes"] <= fused.capacity_bytes
        assert winner["saved_dram_bytes"] > 0
        # Both member mappings exist and share the intermediate layout.
        assert winner["producer_mapping"] and winner["consumer_mapping"]
        assert isinstance(winner["layout"], str)


def test_fused_rejects_non_fusible_pairs():
    arch = resolve_arch("FEATHER")
    layers = resnet50_residual_block()
    assert not fusible(layers[1], layers[0])
    with pytest.raises(InvalidRequestError, match="fusible"):
        # layer7 -> layer6: the 3x3 emits 64 channels, layer6 eats 256.
        fused_pair_search(Mapper(arch, SearchConfig(max_mappings=12)),
                          layers[1], layers[0])


# ---------------------------------------------------------------- validation
def test_frontier_request_requires_analytical_exhaustive():
    with pytest.raises(InvalidRequestError, match="frontier"):
        SearchRequest(workloads="resnet50_residual_block", arch="FEATHER",
                      frontier=True, policy="halving")
    with pytest.raises(InvalidRequestError, match="frontier"):
        SearchRequest(workloads="resnet50_residual_block", arch="FEATHER",
                      fused=True, backend="simulator")


def test_search_config_validates_frontier_policy():
    with pytest.raises(ValueError, match="exhaustive"):
        SearchConfig(name="bad", frontier=True, policy="evolutionary")
    config = SearchConfig(name="ok", frontier=True, fused=True)
    rebuilt = SearchConfig.from_dict(config.as_dict())
    assert rebuilt == config
    assert config.key() != SearchConfig(name="ok").key()
