"""The columnar exhaustive scan of slowdown-free designs.

On a design that never stalls on a bank conflict (FEATHER's
reorder-in-reduction, the off-chip SIGMA's cross-line permute) every
layout prices at slowdown 1.0, so ``Mapper.search`` prices the whole
candidate universe in one numpy pass (``CostModel.columnar_values`` over
``BulkUniverse.columns()``) and reads the index-order scan off the values
with one running minimum.  The pins:

* **Energy columns** — for random conv (strided and depthwise) and GEMM
  shapes, every entry of a small FEATHER space plus its tail (and of a
  constraint-repaired universe, which is all tail) gets the energy terms
  of the scalar ``_energy_breakdown_parts`` bit for bit, and
  ``columnar_values`` equals ``evaluate_values``.
* **Signatures** — every mapping of thirteen universes (sampled entries
  of every loop order, canonical and fixed-parallelism tails) is rebuilt
  from its ``mapping_signature`` alone, so the content keys and
  constraint repair's dedup, which hash it, leave out no field but the
  name.
* **The cache** — a columnar search prices and does not memoize: on a
  fresh cache or one the oracle warmed, it stores nothing, never calls
  ``evaluate_batch``/``get``/``put``, counts every pair the oracle looked
  up as a miss and reports no hit, alone, shape after shape and ahead of
  a halving search on one shared cache; a session answering distinct
  FEATHER requests keeps an empty cache.
* **The path** — FEATHER and off-chip SIGMA searches never call
  ``evaluate_values``/``evaluate_batch`` and build no mapping but the
  winner; a one-layout restriction equals the oracle's; a bound that
  overestimates raises instead of returning a wrong winner.
* **Admissibility on every interpreter** — energy totals add left to
  right (``energy_total``), never with the builtin ``sum``'s compensated
  rounding (CPython 3.12 on), so a mapping that reaches every term of the
  energy floor has its bound equal to its value under every metric.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import threading
import urllib.error
import urllib.request
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_search
from repro.api import SearchRequest, Session
from repro.baselines.registry import fig13_arch_suite, sigma_like
from repro.constraints import systolic_constraints
from repro.dataflow.mapping import Mapping, ParallelSpec, TileLevel
from repro.dataflow.space import MappingSpace
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.cost_model import CostModel, CostReport, energy_total
from repro.layoutloop.cosearch import LayerChoice, ModelCost
from repro.layoutloop.mapper import Mapper, SearchResult
from repro.scenarios.registry import resolve_workload_set
from repro.search.bounds import bound_statics
from repro.search.bulk import candidate_universe
from repro.search.cache import EvaluationCache
from repro.search.config import SearchConfig
from repro.search.signatures import mapping_signature, workload_signature
from repro.serve import create_server
from repro.workloads.conv import ConvLayerSpec, LayerKind
from repro.workloads.gemm import GemmSpec

UNCAPPED = 10 ** 9


def _unique(workload_set: str):
    shapes = {}
    for workload in resolve_workload_set(workload_set):
        shapes.setdefault(workload_signature(workload), workload)
    return list(shapes.values())


def _offchip_sigma():
    return next(arch for arch in fig13_arch_suite()
                if arch.name == "SIGMA-like (off-chip reorder)")


@st.composite
def _small_universe(draw):
    """A FEATHER mapper over a random conv (strided or depthwise) or GEMM
    shape, uncapped, optionally bound to the systolic constraint preset."""
    pe = draw(st.sampled_from([4, 8]))
    arch = feather_arch(pe, pe)
    kind = draw(st.sampled_from(["conv", "depthwise", "gemm"]))
    if kind == "gemm":
        workload = GemmSpec("g", m=draw(st.integers(1, 64)),
                            k=draw(st.integers(1, 64)),
                            n=draw(st.integers(1, 64)))
    else:
        rs = draw(st.sampled_from([1, 3]))
        c = draw(st.integers(1, 48))
        workload = ConvLayerSpec(
            "c", m=c if kind == "depthwise" else draw(st.integers(1, 48)),
            c=c, h=draw(st.integers(3, 16)), w=draw(st.integers(3, 16)),
            r=rs, s=rs, stride=draw(st.sampled_from([1, 2])),
            padding=rs // 2,
            kind=(LayerKind.DEPTHWISE if kind == "depthwise"
                  else LayerKind.CONV))
    constraints = systolic_constraints(arch) if draw(st.booleans()) else None
    config = SearchConfig(metric=draw(st.sampled_from(["edp", "energy"])),
                          max_mappings=UNCAPPED, constraints=constraints)
    return Mapper(arch, config), workload


# ------------------------------------------------------------ energy columns
@settings(max_examples=30, deadline=None)
@given(_small_universe())
def test_energy_columns_match_the_scalar_parts(case):
    mapper, workload = case
    model = mapper.cost_model
    universe = candidate_universe(mapper, workload)
    columns = model._energy_breakdown_columns(workload, universe.columns())
    cycles = universe.compute_cycles()
    total_cycles, energy = model.columnar_values(workload, cycles,
                                                 universe.columns())
    layouts = mapper.candidate_layouts(workload)
    assert len(total_cycles) == len(energy) == len(universe)
    columns = {term: np.broadcast_to(column, len(universe))
               for term, column in columns.items()}
    for pos, mapping in enumerate(universe):
        parts = model._energy_breakdown_parts(workload, mapping)
        assert list(columns) == list(parts)
        for term, value in parts.items():
            assert columns[term][pos].item() == value, (pos, term)
        values = model.evaluate_values(workload, mapping, layouts,
                                       int(cycles[pos]))
        assert values == [(total_cycles[pos].item(), energy[pos].item(),
                           1.0)] * len(layouts)


# ---------------------------------------------------------------- signatures
@pytest.mark.parametrize("arch,workload,max_mappings", [
    (feather_arch(), ConvLayerSpec("c", m=64, c=32, h=14, w=14, r=3, s=3,
                                   padding=1), UNCAPPED),
    (feather_arch(), ConvLayerSpec("dw", m=96, c=96, h=28, w=28, r=3, s=3,
                                   stride=2, padding=1,
                                   kind=LayerKind.DEPTHWISE), 40),
    (feather_arch(4, 4), GemmSpec("g", m=96, k=64, n=128), UNCAPPED),
    (sigma_like(reorder="offchip"), GemmSpec("g", m=8, k=512, n=64), 50),
] + [(arch, ConvLayerSpec("c", m=64, c=32, h=14, w=14, r=3, s=3), 30)
     for arch in fig13_arch_suite()],
    ids=["feather-conv", "feather-depthwise", "feather-gemm",
         "sigma-offchip-gemm"] + [arch.name for arch in fig13_arch_suite()])
def test_signatures_match_the_built_mappings(arch, workload, max_mappings):
    """Sampled entries (every loop order, including a fixed canonical
    order) and the materialized tail (canonical, fixed-parallelism): each
    mapping is rebuilt from its signature and its name alone."""
    universe = candidate_universe(
        Mapper(arch, SearchConfig(max_mappings=max_mappings)), workload)
    for mapping in universe:
        rows, cols, parallel, tile, order, reduction = \
            mapping_signature(mapping)
        assert Mapping(mapping.name, rows, cols,
                       tuple(ParallelSpec(*p) for p in parallel),
                       TileLevel(tile), order, frozenset(reduction)) == mapping


# --------------------------------------------------------------------- cache
_SLOWDOWN_FREE_GRIDS = pytest.mark.parametrize(
    "arch_fn,workload_set,max_mappings", [
        (feather_arch, "resnet50", UNCAPPED),
        (_offchip_sigma, "mobilenet_v3[:12]", 50),
    ], ids=["feather-resnet50", "sigma-offchip-mobilenet_v3"])


@_SLOWDOWN_FREE_GRIDS
def test_columnar_search_leaves_the_oracles_cache(arch_fn, workload_set,
                                                  max_mappings):
    """Searched shape after shape on one fresh cache each, the columnar
    scan stores nothing, reports no hit, and counts as misses exactly the
    pairs the oracle looked up."""
    config = SearchConfig(max_mappings=max_mappings)
    columnar, oracle = EvaluationCache(), EvaluationCache()
    for workload in _unique(workload_set):
        result = Mapper(arch_fn(), config,
                        evaluation_cache=columnar).search(workload)
        expected = reference_search(
            Mapper(arch_fn(), config, evaluation_cache=oracle), workload)
        assert result.cache_hits == 0, workload.name
        assert result.evaluated == expected.evaluated, workload.name
    assert columnar._entries == {} and len(oracle) > 0
    assert ((columnar.stats.hits, columnar.stats.misses)
            == (0, oracle.stats.lookups))


@_SLOWDOWN_FREE_GRIDS
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_columnar_search_prices_without_the_memo(arch_fn, workload_set,
                                                 max_mappings, warm):
    """On a fresh cache, and on one the oracle warmed over the same
    shapes, the columnar scan leaves the entries untouched, adds no hit
    and exactly ``evaluated`` misses, never calls ``evaluate_batch``,
    ``get`` or ``put``, and returns the oracle's winner, ``evaluated`` and
    ``pruned``."""
    config = SearchConfig(max_mappings=max_mappings)
    cache = EvaluationCache()
    workloads = _unique(workload_set)
    expected = [reference_search(
        Mapper(arch_fn(), config,
               evaluation_cache=cache if warm else EvaluationCache()),
        workload) for workload in workloads]
    entries = copy.deepcopy(cache._entries)
    assert bool(entries) == warm
    guards = [mock.patch.object(EvaluationCache, name,
                                side_effect=AssertionError(name))
              for name in ("evaluate_batch", "get", "put")]
    for guard in guards:
        guard.start()
    try:
        for workload, oracle in zip(workloads, expected):
            hits, misses = cache.stats.hits, cache.stats.misses
            result = Mapper(arch_fn(), config,
                            evaluation_cache=cache).search(workload)
            assert result.best_report == oracle.best_report
            assert result.best_mapping == oracle.best_mapping
            assert result.best_layout == oracle.best_layout
            assert ((result.evaluated, result.pruned, result.cache_hits)
                    == (oracle.evaluated, oracle.pruned, 0))
            assert cache.stats.hits == hits
            assert cache.stats.misses == misses + result.evaluated
    finally:
        for guard in guards:
            guard.stop()
    assert cache._entries == entries


def test_shared_cache_sequence_counts_like_the_oracle():
    """EDP, then latency, then halving on one shared cache: the exhaustive
    steps are the oracle's searches but store nothing and hit nothing, so
    the halving step, and the cache it leaves, equal a halving run on a
    fresh cache; only the misses carry the exhaustive steps' pairs."""
    workloads = _unique("resnet50")[:8]
    exhaustive = [SearchConfig(metric="edp", max_mappings=UNCAPPED),
                  SearchConfig(metric="latency", max_mappings=UNCAPPED)]
    halving = SearchConfig(metric="edp", max_mappings=60, policy="halving")

    def trace(results):
        return [(result.best_report, result.best_mapping, result.evaluated,
                 result.pruned, result.cache_hits) for result in results]

    shared = EvaluationCache()
    scanned = 0
    for config in exhaustive:
        for workload in workloads:
            result = Mapper(feather_arch(), config,
                            evaluation_cache=shared).search(workload)
            expected = reference_search(Mapper(feather_arch(), config),
                                        workload)
            assert trace([result]) == [(
                expected.best_report, expected.best_mapping,
                expected.evaluated, expected.pruned, 0)]
            scanned += result.evaluated
        assert shared._entries == {}
        assert (shared.stats.hits, shared.stats.misses) == (0, scanned)

    fresh = EvaluationCache()
    on_shared = [Mapper(feather_arch(), halving,
                        evaluation_cache=shared).search(workload)
                 for workload in workloads]
    on_fresh = [Mapper(feather_arch(), halving,
                       evaluation_cache=fresh).search(workload)
                for workload in workloads]
    assert trace(on_shared) == trace(on_fresh)
    assert shared._entries == fresh._entries != {}
    assert ((shared.stats.hits, shared.stats.misses)
            == (fresh.stats.hits, fresh.stats.misses + scanned))


def test_a_session_of_distinct_feather_searches_keeps_no_entries():
    """Fifty distinct-seed FEATHER requests on one session: every search
    is a columnar scan, so the session's evaluation cache stays empty."""
    with Session(name="test-columnar-entries") as session:
        for seed in range(50):
            response = session.run(SearchRequest(
                workloads="resnet50[:4]", arch="FEATHER", seed=seed))
            assert response.search["cache_hits"] == 0
        assert session.describe()["evaluation_cache_entries"] == 0


# ---------------------------------------------------------------------- path
@pytest.mark.parametrize("arch_fn,workload_set,max_mappings", [
    (feather_arch, "resnet50[:6]", UNCAPPED),
    (_offchip_sigma, "mobilenet_v3[:6]", 50),
], ids=["feather", "sigma-offchip"])
def test_slowdown_free_searches_price_no_mapping_one_at_a_time(
        arch_fn, workload_set, max_mappings):
    """No ``evaluate_values`` or ``evaluate_batch`` call, and no mapping
    built from the sampled space but the winner."""
    assert CostModel(arch_fn()).slowdown_free
    mapping_at = MappingSpace._mapping_at
    with mock.patch.object(CostModel, "evaluate_values",
                           side_effect=AssertionError("evaluate_values")), \
            mock.patch.object(EvaluationCache, "evaluate_batch",
                              side_effect=AssertionError("evaluate_batch")), \
            mock.patch.object(MappingSpace, "_mapping_at", autospec=True,
                              side_effect=mapping_at) as built:
        for workload in _unique(workload_set):
            built.reset_mock()
            result = Mapper(arch_fn(), SearchConfig(
                max_mappings=max_mappings)).search(workload)
            assert result.evaluated > 0
            assert built.call_count <= 1, workload.name


def test_one_layout_restriction_matches_the_oracle():
    """The fused consumer's one-layout search takes the columnar path."""
    config = SearchConfig(max_mappings=UNCAPPED)
    for workload in _unique("resnet50")[:4]:
        for layout in Mapper(feather_arch(), config).candidate_layouts(
                workload)[:3]:
            result = Mapper(feather_arch(), config).search(
                workload, layouts=[layout])
            expected = reference_search(Mapper(feather_arch(), config),
                                        workload, layouts=[layout])
            assert result.best_report == expected.best_report
            assert result.best_mapping == expected.best_mapping
            assert result.best_layout == expected.best_layout == layout
            assert ((result.evaluated, result.pruned, result.cache_hits)
                    == (expected.evaluated, expected.pruned, 0))


# --------------------------------------------------------------- admissible
def _tripled_energy_floor(cost_model, workload):
    statics = bound_statics(cost_model, workload)
    return dataclasses.replace(statics,
                               energy_floor_pj=3 * statics.energy_floor_pj)


def test_an_inadmissible_bound_raises_instead_of_answering():
    """With the energy floor tripled, the bound exceeds the value of most
    entries; the scan names the arch, the shape and the first bad entry
    rather than pruning the winner away."""
    workload = resolve_workload_set("resnet50")[4]
    mapper = Mapper(feather_arch(), SearchConfig(max_mappings=UNCAPPED))
    with mock.patch("repro.layoutloop.mapper.bound_statics",
                    side_effect=_tripled_energy_floor):
        with pytest.raises(RuntimeError,
                           match=r"inadmissible edp bound on FEATHER, shape "
                                 r"\('conv'.*entry 0 \(df_serial"):
            mapper.search(workload)
    # Unpatched, the same mapper answers.
    assert mapper.search(workload).best_mapping.name == "df_M16_C16_n.r.s"


def test_energy_totals_add_left_to_right_on_every_interpreter():
    """The builtin ``sum`` gives 2.0 here from CPython 3.12 on; every
    energy total of the model is the plain left fold, whose last step
    cancels to 0.0, as the bound's floor adds its terms."""
    terms = {"mac": 1.0, "register": 1e100, "buffer_read": 1.0,
             "buffer_write": -1e100}
    assert energy_total(terms.values()) == 0.0
    report = CostReport(
        workload="w", arch="a", mapping="m", layout="l", macs=1,
        compute_cycles=1.0, slowdown=1.0, stall_cycles=0.0,
        reorder_cycles_exposed=0.0, total_cycles=1.0, utilization=1.0,
        practical_utilization=1.0, energy_breakdown_pj=terms)
    assert report.total_energy_pj == 0.0
    columns = [np.full(3, term) for term in terms.values()]
    assert energy_total(columns).tolist() == [0.0] * 3


def test_model_totals_add_left_to_right_on_every_interpreter():
    """A whole-model total is the same left fold: 1e16 + 1.0 rounds back
    to 1e16 at each step, where the builtin ``sum`` of CPython 3.12 on
    gives 1.0000000000000002e16.  The goldens pin model totals float for
    float, so a compensated total fails them on those interpreters."""
    choices = []
    for value in (1e16, 1.0, 1.0):
        report = CostReport(
            workload="w", arch="a", mapping="m", layout="l", macs=1,
            compute_cycles=value, slowdown=1.0, stall_cycles=0.0,
            reorder_cycles_exposed=0.0, total_cycles=value,
            utilization=1.0, practical_utilization=1.0,
            energy_breakdown_pj={"mac": value})
        result = SearchResult(workload="w", arch="a", best_report=report,
                              best_mapping=None, best_layout=None,
                              evaluated=1, metric="edp")
        choices.append(LayerChoice(result=result, count=1))
    cost = ModelCost(arch="a", model="m", layer_choices=choices)
    assert cost.total_energy_pj == 1e16
    assert cost.total_cycles == 1e16
    assert cost.edp == 1e32


@pytest.mark.parametrize("metric", ["edp", "energy", "latency"])
def test_the_floor_equals_the_total_where_every_term_is_reached(metric):
    """GEMM 4x4x4 on FEATHER-4x4 with M and K four-way parallel and inner
    loops (M, N) reads each input tensor once and keeps its partial sums in
    place, so each of its energy terms equals the floor's.  The floor and
    the total add the same terms in the same order, so its bound equals its
    value, bit for bit, and the search answers.  (A compensated total
    exceeds this floor by one ulp.)"""
    workload = GemmSpec("g", m=4, k=4, n=4)
    mapper = Mapper(feather_arch(4, 4), SearchConfig(metric=metric,
                                                     max_mappings=UNCAPPED))
    universe = candidate_universe(mapper, workload)
    pos = [mapping.name for mapping in universe].index("df_M4_K4_k.m.n")
    mapping = universe[pos]
    assert [(p.dim, p.degree) for p in mapping.parallel] == [("M", 4),
                                                             ("K", 4)]
    assert mapping.order[-2:] == ("M", "N")
    statics = bound_statics(mapper.cost_model, workload)
    cycles, energy, _ = mapper.cost_model.evaluate_values(
        workload, mapping, mapper.candidate_layouts(workload))[0]
    assert energy == statics.energy_floor_pj
    value = {"edp": energy * cycles, "energy": energy,
             "latency": cycles}[metric]
    assert universe.bounds(metric, statics)[pos].item() == value
    assert mapper.search(workload).evaluated > 0


def test_an_inadmissible_bound_is_an_internal_error_on_the_wire():
    session = Session(name="test-columnar-500", threads=1)
    server = create_server("127.0.0.1", 0, session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    body = json.dumps({"workloads": "fig10_gemms", "arch": "FEATHER-4x4",
                       "metric": "edp", "max_mappings": 6}).encode()
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/search", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with mock.patch("repro.layoutloop.mapper.bound_statics",
                        side_effect=_tripled_energy_floor):
            with pytest.raises(urllib.error.HTTPError) as raised:
                urllib.request.urlopen(request, timeout=60)
        assert raised.value.code == 500
        error = json.loads(raised.value.read())["error"]
        assert error["code"] == "internal_error"
        assert "inadmissible edp bound" in error["message"]
    finally:
        server.shutdown()
        server.server_close()
        session.close()
        thread.join(timeout=10)
