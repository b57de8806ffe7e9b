"""Tests for the parallel, cached co-search engine (``repro.search``).

Whole-model searches run as :class:`~repro.api.SearchRequest` objects on a
:class:`~repro.api.Session`, single layers through :class:`Mapper`.
Covers the acceptance properties of the engine:

* parallel results are bit-identical to serial results (ResNet-50 conv
  layers and the BERT GEMM set),
* cache hit/miss accounting is exact,
* pruning with admissible bounds never drops the optimum (direct checks
  plus a hypothesis property test over random shapes),
* the zero-MAC / empty-model edge cases fail loudly or degrade sanely.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import reference_search
from repro.api import InvalidRequestError, SearchRequest, Session
from repro.api.codec import arch_payload, workload_payload
from repro.baselines.registry import eyeriss_like, nvdla_like
from repro.dataflow.mapping import Mapping, ParallelSpec, TileLevel
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.cosearch import LayerChoice, ModelCost, unique_workloads
from repro.layoutloop.cost_model import CostReport
from repro.layoutloop.mapper import Mapper, SearchResult, _metric_value
from repro.search import (
    CacheStats,
    EvaluationCache,
    bound_statics,
    mapping_signature,
    resolve_workers,
    workload_signature,
)
from repro.search.bulk import candidate_universe
from repro.search.config import SearchConfig
from repro.search.parallel import WORKERS_ENV_VAR, chunked, default_chunk_size
from repro.workloads.bert import bert_unique_gemms
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec
from repro.workloads.resnet50 import resnet50_layers

LAYER = ConvLayerSpec("layer", m=64, c=64, h=14, w=14, r=3, s=3, stride=1, padding=1)
RENAMED = ConvLayerSpec("other_name", m=64, c=64, h=14, w=14, r=3, s=3, stride=1,
                        padding=1)
SMALL = ConvLayerSpec("small", m=16, c=8, h=8, w=8, r=3, s=3, padding=1)
GEMM = GemmSpec("gemm", m=64, k=128, n=96)


def search(arch, workloads, session=None, fresh_cache=True, **config):
    """Whole-model co-search through the façade; returns the ModelCost."""
    request = SearchRequest(
        workloads=tuple(workload_payload(w) for w in workloads),
        arch=arch_payload(arch), fresh_cache=fresh_cache, **config)
    if session is not None:
        return session.run(request).cost
    with Session(name="test") as own:
        return own.run(request).cost


class TestSignatures:
    def test_names_do_not_matter(self):
        assert workload_signature(LAYER) == workload_signature(RENAMED)

    def test_shapes_do_matter(self):
        assert workload_signature(LAYER) != workload_signature(SMALL)
        assert workload_signature(LAYER) != workload_signature(GEMM)

    def test_mapping_signature_ignores_name(self):
        mapper = Mapper(nvdla_like())
        mapping = mapper.candidate_mappings(LAYER)[0]
        renamed = type(mapping)(name="renamed", array_rows=mapping.array_rows,
                                array_cols=mapping.array_cols,
                                parallel=mapping.parallel, tile=mapping.tile,
                                order=mapping.order,
                                reduction_dims=mapping.reduction_dims)
        assert mapping_signature(mapping) == mapping_signature(renamed)

    def test_mapping_signature_format(self):
        """Evaluation-cache and ``EvalRequest`` content keys hash this
        tuple, so its format is pinned literally."""
        mapping = Mapping("m", array_rows=4, array_cols=8,
                          parallel=(ParallelSpec("M", 4), ParallelSpec("C", 8)),
                          tile=TileLevel.of(M=4, C=8),
                          order=("N", "P", "Q", "M", "C", "R", "S"),
                          reduction_dims=frozenset({"S", "C", "R"}))
        assert mapping_signature(mapping) == (
            4, 8, (("M", 4), ("C", 8)), (("C", 8), ("M", 4)),
            ("N", "P", "Q", "M", "C", "R", "S"), ("C", "R", "S"))


class TestEvaluationCache:
    # Eyeriss-like scores through the memo; FEATHER's exhaustive scan
    # prices without it (tests/test_columnar_scan.py).
    def test_hit_miss_accounting(self):
        mapper = Mapper(eyeriss_like(), SearchConfig(max_mappings=20))
        first = mapper.search(LAYER)
        assert first.cache_hits == 0
        assert mapper.evaluation_cache.stats.misses == first.evaluated
        # Same shape under a different name misses the result-level cache
        # but hits the evaluation cache for every scored candidate.
        second = mapper.search(RENAMED)
        assert second.cache_hits == second.evaluated
        assert mapper.evaluation_cache.stats.hits == second.evaluated
        assert second.best_value == first.best_value

    def test_lookups_equal_scored_candidates(self):
        cost = search(feather_arch(), [LAYER, SMALL], max_mappings=20)
        stats = cost.search_stats
        assert stats.cache.lookups == stats.evaluations

    def test_stats_merge_and_rate(self):
        merged = CacheStats(hits=3, misses=1).merge(CacheStats(hits=1, misses=3))
        assert merged.hits == 4 and merged.misses == 4
        assert merged.hit_rate == pytest.approx(0.5)
        assert CacheStats().hit_rate == 0.0

    def test_clear(self):
        cache = EvaluationCache()
        mapper = Mapper(eyeriss_like(), SearchConfig(max_mappings=10),
                        evaluation_cache=cache)
        mapper.search(SMALL)
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0 and cache.stats.lookups == 0

    def test_cache_hit_reports_carry_current_labels(self):
        # Keys exclude names, so a hit may come from another layer's search;
        # the returned report must still be labelled for the current call.
        mapper = Mapper(eyeriss_like(), SearchConfig(max_mappings=15))
        mapper.search(LAYER)
        second = mapper.search(RENAMED)
        assert second.cache_hits > 0
        assert second.best_report.workload == "other_name"

    def test_shared_cache_across_engine_batches(self):
        # Without fresh_cache, requests on one session share its evaluation
        # cache: a same-shape, differently named layer is scored from it.
        with Session(name="shared") as session:
            search(eyeriss_like(), [LAYER], session=session,
                   fresh_cache=False, model="a", max_mappings=15)
            second = search(eyeriss_like(), [RENAMED], session=session,
                            fresh_cache=False, model="b", max_mappings=15)
        assert second.search_stats.cache.hits > 0


class TestBounds:
    @pytest.mark.parametrize("metric", ["edp", "latency", "energy"])
    @pytest.mark.parametrize("arch_fn", [feather_arch, nvdla_like, eyeriss_like])
    def test_bound_is_admissible(self, metric, arch_fn):
        """The pruning bound never exceeds the true metric value."""
        arch = arch_fn()
        mapper = Mapper(arch, SearchConfig(metric=metric, max_mappings=12))
        statics = bound_statics(mapper.cost_model, LAYER)
        universe = candidate_universe(mapper, LAYER)
        layouts = mapper.candidate_layouts(LAYER)
        for bound, mapping in zip(universe.bounds(metric, statics).tolist(),
                                  universe):
            for report in mapper.cost_model.evaluate_mapping_batch(
                    LAYER, mapping, layouts):
                assert bound <= _metric_value(report, metric) * (1 + 1e-12)

    def test_unknown_metric_rejected(self):
        mapper = Mapper(feather_arch())
        statics = bound_statics(mapper.cost_model, SMALL)
        with pytest.raises(ValueError):
            candidate_universe(mapper, SMALL).bounds("speed", statics)


class TestPruning:
    @pytest.mark.parametrize("metric", ["edp", "latency", "energy"])
    def test_pruned_matches_exhaustive(self, metric):
        for workload in (LAYER, SMALL, GEMM):
            config = SearchConfig(metric=metric, max_mappings=25)
            pruned = Mapper(feather_arch(), config).search(workload)
            full = reference_search(Mapper(feather_arch(), config), workload,
                                    prune=False)
            assert pruned.best_value == full.best_value
            assert pruned.best_mapping == full.best_mapping
            assert pruned.best_layout.name == full.best_layout.name
            assert pruned.evaluated + pruned.pruned == full.evaluated

    def test_pruning_actually_prunes(self):
        result = Mapper(feather_arch(),
                        SearchConfig(max_mappings=40)).search(LAYER)
        assert result.pruned > 0

    @settings(max_examples=12, deadline=None)
    @given(m=st.integers(1, 48), c=st.integers(1, 48),
           h=st.integers(3, 20), w=st.integers(3, 20),
           r=st.integers(1, 3), s=st.integers(1, 3),
           stride=st.integers(1, 2), padding=st.integers(0, 1))
    def test_pruning_never_drops_the_optimum(self, m, c, h, w, r, s, stride,
                                             padding):
        """Property: for random conv shapes the pruned best == exhaustive best."""
        assume(h + 2 * padding >= r and w + 2 * padding >= s)
        layer = ConvLayerSpec("prop", m=m, c=c, h=h, w=w, r=r, s=s,
                              stride=stride, padding=padding)
        pruned = Mapper(feather_arch(8, 8),
                        SearchConfig(max_mappings=10)).search(layer)
        full = reference_search(
            Mapper(feather_arch(8, 8), SearchConfig(max_mappings=10)), layer,
            prune=False)
        assert pruned.best_value == full.best_value
        assert pruned.best_mapping == full.best_mapping
        assert pruned.best_layout.name == full.best_layout.name


class TestParallelDeterminism:
    def _assert_identical(self, serial: ModelCost, parallel: ModelCost):
        assert parallel.total_cycles == serial.total_cycles
        assert parallel.total_energy_pj == serial.total_energy_pj
        assert parallel.total_macs == serial.total_macs
        assert len(parallel.layer_choices) == len(serial.layer_choices)
        for ps, ss in zip(parallel.layer_choices, serial.layer_choices):
            assert ps.count == ss.count
            assert ps.result.best_mapping == ss.result.best_mapping
            assert ps.result.best_layout.name == ss.result.best_layout.name
            assert ps.result.best_report == ss.result.best_report

    def test_resnet50_parallel_bit_identical(self):
        layers = resnet50_layers(include_fc=False)[:14]
        serial = search(feather_arch(), layers, model="rn50",
                        max_mappings=10, workers=1)
        parallel = search(feather_arch(), layers, model="rn50",
                          max_mappings=10, workers=2)
        self._assert_identical(serial, parallel)
        assert parallel.search_stats.workers == 2
        assert serial.search_stats.workers == 1

    def test_bert_parallel_bit_identical(self):
        gemms = bert_unique_gemms()
        serial = search(feather_arch(), gemms, model="bert",
                        max_mappings=8, workers=1)
        parallel = search(feather_arch(), gemms, model="bert",
                          max_mappings=8, workers=3)
        self._assert_identical(serial, parallel)

    def test_search_models_multi_arch(self):
        with Session(name="multi") as session:
            costs = {arch.name: search(arch, [LAYER, SMALL], session=session,
                                       model="toy", max_mappings=10)
                     for arch in (nvdla_like(), feather_arch())}
        assert set(costs) == {"NVDLA-like", "FEATHER"}
        for cost in costs.values():
            assert cost.search_stats is not None
            assert cost.search_stats.evaluations > 0


class TestSearchModelAPI:
    def test_dedup_accounting(self):
        cost = search(feather_arch(), [LAYER, RENAMED, SMALL, LAYER],
                      max_mappings=10)
        stats = cost.search_stats
        assert stats.layers_total == 4
        assert stats.layers_unique == 2
        assert cost.total_macs == 3 * LAYER.macs + SMALL.macs

    def test_matches_legacy_evaluate_model(self):
        # The engine equals the plain per-shape Mapper loop weighted by
        # occurrence count, float for float.
        layers = [LAYER, SMALL, LAYER]
        mapper = Mapper(feather_arch(), SearchConfig(max_mappings=10))
        plain = ModelCost(arch="FEATHER", model="model", layer_choices=[
            LayerChoice(result=mapper.search(wl), count=count)
            for wl, count in unique_workloads(layers)])
        engine = search(feather_arch(), layers, max_mappings=10)
        assert engine.total_cycles == plain.total_cycles
        assert engine.total_energy_pj == plain.total_energy_pj

    def test_empty_model_raises(self):
        with Session(name="empty") as session:
            with pytest.raises(InvalidRequestError,
                               match="no workloads") as excinfo:
                session.run(SearchRequest(workloads="resnet50[:0]",
                                          arch="FEATHER"))
        assert excinfo.value.payload()["code"] == "invalid_request"

    def test_stats_str_mentions_model(self):
        cost = search(feather_arch(), [SMALL], model="tiny",
                      max_mappings=8)
        assert "tiny" in str(cost.search_stats)

    def test_workers_env_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        monkeypatch.setenv(WORKERS_ENV_VAR, "zebra")
        with pytest.raises(ValueError):
            resolve_workers(None)
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert resolve_workers(None) == 1

    def test_chunking_helpers(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            chunked([1], 0)
        assert default_chunk_size(20, 2) == 2
        assert default_chunk_size(3, 8) == 1

    def test_run_fanout_reports_effective_workers(self):
        from repro.search.parallel import run_fanout

        # Serial paths (workers=1, or a single payload) must report 1, not
        # the requested count — SearchStats.workers shows what actually ran.
        results, effective = run_fanout(lambda x: x * 2, [1, 2, 3], workers=1)
        assert results == [2, 4, 6] and effective == 1
        results, effective = run_fanout(lambda x: x + 1, [5], workers=4)
        assert results == [6] and effective == 1


class TestEdgeCases:
    def _zero_mac_report(self, energy_pj: float) -> CostReport:
        return CostReport(workload="degenerate", arch="a", mapping="m",
                          layout="l", macs=0, compute_cycles=0.0, slowdown=1.0,
                          stall_cycles=0.0, reorder_cycles_exposed=0.0,
                          total_cycles=0.0, utilization=0.25,
                          practical_utilization=0.25,
                          energy_breakdown_pj={"dram": energy_pj})

    def test_zero_mac_report_energy_per_mac(self):
        assert self._zero_mac_report(10.0).energy_per_mac_pj == math.inf
        assert self._zero_mac_report(0.0).energy_per_mac_pj == 0.0

    def _zero_mac_model(self, energy_pj: float) -> ModelCost:
        report = self._zero_mac_report(energy_pj)
        result = SearchResult(workload="degenerate", arch="a",
                              best_report=report, best_mapping=None,
                              best_layout=None, evaluated=1, metric="edp")
        return ModelCost(arch="a", model="degenerate",
                         layer_choices=[LayerChoice(result=result, count=1)])

    def test_zero_mac_model_cost(self):
        assert self._zero_mac_model(10.0).energy_per_mac_pj == math.inf
        assert self._zero_mac_model(0.0).energy_per_mac_pj == 0.0

    def test_zero_mac_avg_utilization_falls_back_to_mean(self):
        # A zero-MAC model must not silently report 0% utilization.
        assert self._zero_mac_model(1.0).avg_utilization == pytest.approx(0.25)

    def test_empty_model_cost_properties(self):
        empty = ModelCost(arch="a", model="empty")
        assert empty.avg_utilization == 0.0
        assert empty.energy_per_mac_pj == 0.0
