"""The bulk-bounds search core (:mod:`repro.search.bulk`).

Property tests (hypothesis) over the two exactness claims the bulk
pipeline makes:

* **Bound identity** — for random conv/GEMM shapes, every entry of
  ``BulkUniverse.bounds`` equals the oracle's scalar
  ``metric_lower_bound`` (``tests/reference.py``) of the materialized
  mapping bit for bit (same float op order), and every entry of
  ``BulkUniverse.footprints`` equals the scalar
  :func:`repro.search.frontier.buffer_footprint_bytes` exactly (integer
  math).  The int64 ceil-division behind the bulk trip counts is pinned
  against the scalar ``math.ceil`` float division it replaces.
* **Adaptive exactness** — on every analytical golden cell,
  ``max_mappings="auto"`` returns the winner of the *uncapped* exhaustive
  scan of the full structured space (report, mapping and layout), while
  covering exactly the same (mapping, layout) universe.

Plus the constructor/validation contract: the bulk universe enumerates
exactly what the scalar reference (``tests/reference.py``) materializes, in
the same order, and ``max_mappings="auto"`` is rejected everywhere it
cannot keep its exactness guarantee (non-analytical backends, budgeted
policies, frontier search).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import metric_lower_bound, reference_candidates
from repro.api import InvalidRequestError, SearchRequest
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.mapper import Mapper
from repro.scenarios.builtin import golden_matrix
from repro.scenarios.registry import resolve_arch, resolve_workload_set
from repro.search.bounds import bound_statics
from repro.search.bulk import candidate_universe
from repro.search.config import SearchConfig
from repro.search.frontier import buffer_footprint_bytes
from repro.search.signatures import workload_signature
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

#: Adaptive growth is an analytical-bound argument, so its golden-cell
#: property is pinned on every cell the analytical model scores (the
#: simulator cells search a different backend; crossval *searches* on the
#: analytical model, so it belongs here).
ANALYTICAL_GOLDEN = [cell for cell in golden_matrix()
                     if cell.backend != "simulator"
                     and not cell.config.frontier]

#: Larger than any structured space in the repo: an uncapped sample, i.e.
#: the exhaustive full universe.
UNCAPPED = 10 ** 9

_metrics = st.sampled_from(["edp", "latency", "energy"])


def _unique(workloads):
    seen = {}
    for workload in workloads:
        seen.setdefault(workload_signature(workload), workload)
    return list(seen.values())


# ------------------------------------------------------------ bound identity
@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 48), c=st.integers(1, 48),
       h=st.integers(3, 20), w=st.integers(3, 20),
       r=st.integers(1, 3), s=st.integers(1, 3),
       stride=st.integers(1, 2), padding=st.integers(0, 1),
       pe=st.sampled_from([8, 16]), metric=_metrics)
def test_bulk_bounds_match_scalar_on_random_convs(m, c, h, w, r, s, stride,
                                                  padding, pe, metric):
    assume(h + 2 * padding >= r and w + 2 * padding >= s)
    layer = ConvLayerSpec("prop", m=m, c=c, h=h, w=w, r=r, s=s,
                          stride=stride, padding=padding)
    mapper = Mapper(feather_arch(pe, pe),
                    SearchConfig(metric=metric, max_mappings=40, seed=3))
    universe = candidate_universe(mapper, layer)
    statics = bound_statics(mapper.cost_model, layer)
    bounds = universe.bounds(metric, statics).tolist()
    footprints = universe.footprints(mapper.arch).tolist()
    cycles = universe.compute_cycles().tolist()
    for pos, mapping in enumerate(universe):
        scalar_cycles = mapping.compute_cycles(layer)
        assert cycles[pos] == scalar_cycles
        assert bounds[pos] == metric_lower_bound(metric, scalar_cycles,
                                                 statics)
        assert footprints[pos] == buffer_footprint_bytes(layer, mapping,
                                                         mapper.arch)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 96), k=st.integers(1, 96), n=st.integers(1, 96),
       pe=st.sampled_from([8, 16]), metric=_metrics)
def test_bulk_bounds_match_scalar_on_random_gemms(m, k, n, pe, metric):
    gemm = GemmSpec("prop", m=m, k=k, n=n)
    mapper = Mapper(feather_arch(pe, pe),
                    SearchConfig(metric=metric, max_mappings=40, seed=5))
    universe = candidate_universe(mapper, gemm)
    statics = bound_statics(mapper.cost_model, gemm)
    bounds = universe.bounds(metric, statics).tolist()
    footprints = universe.footprints(mapper.arch).tolist()
    for pos, mapping in enumerate(universe):
        assert bounds[pos] == metric_lower_bound(
            metric, mapping.compute_cycles(gemm), statics)
        assert footprints[pos] == buffer_footprint_bytes(gemm, mapping,
                                                         mapper.arch)


@given(extent=st.integers(1, 10 ** 7), degree=st.integers(1, 1 << 16))
def test_int_ceil_division_matches_the_scalar_float_ceil(extent, degree):
    """The int64 ``(E + D - 1) // D`` behind the bulk trip counts equals
    the scalar oracle's ``math.ceil(E / D)`` (float true division) for
    every extent a layer can have — they only diverge past 2**52."""
    assert (extent + degree - 1) // degree == math.ceil(extent / degree)


def test_universe_enumerates_candidate_mappings_in_order():
    """The symbolic universe is the same sequence the scalar reference
    materializes — same sample draw, same canonical tail, same order."""
    layer = ConvLayerSpec("layer", m=32, c=64, h=16, w=16, r=3, s=3,
                          stride=1, padding=1)
    mapper = Mapper(feather_arch(), SearchConfig(max_mappings=24, seed=0))
    universe = candidate_universe(mapper, layer)
    mappings, _ = reference_candidates(mapper, layer)
    assert len(universe) == len(mappings)
    assert list(universe) == mappings


def test_full_universe_covers_the_whole_space_plus_tail():
    layer = ConvLayerSpec("layer", m=16, c=16, h=8, w=8, r=3, s=3, padding=1)
    mapper = Mapper(feather_arch(), SearchConfig(max_mappings="auto", seed=0))
    space = mapper._mapping_space(layer)
    universe = candidate_universe(mapper, layer)
    assert len(universe) == space.size() + len(mapper._canonical_tail(layer))


# -------------------------------------------------------- adaptive exactness
@pytest.mark.parametrize("cell", ANALYTICAL_GOLDEN, ids=lambda c: c.name)
def test_adaptive_never_loses_the_uncapped_exhaustive_winner(cell):
    arch = resolve_arch(cell.arch)
    auto = Mapper(arch, SearchConfig(metric=cell.config.metric,
                                     max_mappings="auto",
                                     seed=cell.config.seed))
    exhaustive = Mapper(arch, SearchConfig(metric=cell.config.metric,
                                           max_mappings=UNCAPPED,
                                           seed=cell.config.seed))
    for workload in _unique(resolve_workload_set(cell.workload_set)):
        adaptive = auto.search(workload)
        reference = exhaustive.search(workload)
        assert adaptive.best_mapping == reference.best_mapping
        assert adaptive.best_layout.name == reference.best_layout.name
        assert adaptive.best_report == reference.best_report
        # Same universe, accounted pair for pair: what the growth policy
        # never scored is pruned, not lost.
        assert (adaptive.evaluated + adaptive.pruned
                == reference.evaluated + reference.pruned)


@settings(max_examples=10, deadline=None)
@given(m=st.integers(1, 32), c=st.integers(1, 32),
       h=st.integers(3, 12), w=st.integers(3, 12),
       r=st.integers(1, 3), metric=_metrics)
def test_adaptive_matches_uncapped_exhaustive_on_random_convs(m, c, h, w, r,
                                                              metric):
    assume(h >= r and w >= r)
    layer = ConvLayerSpec("prop", m=m, c=c, h=h, w=w, r=r, s=r)
    auto = Mapper(feather_arch(8, 8),
                  SearchConfig(metric=metric, max_mappings="auto"))
    exhaustive = Mapper(feather_arch(8, 8),
                        SearchConfig(metric=metric, max_mappings=UNCAPPED))
    adaptive = auto.search(layer)
    reference = exhaustive.search(layer)
    assert adaptive.best_mapping == reference.best_mapping
    assert adaptive.best_layout.name == reference.best_layout.name
    assert adaptive.best_report == reference.best_report


# ------------------------------------------------------- validation contract
class TestAutoValidation:
    def test_auto_requires_the_analytical_backend(self):
        from repro.backends.simulator import SimulatorBackend

        arch = feather_arch(4, 4)
        with pytest.raises(ValueError, match="analytical"):
            Mapper(arch, SearchConfig(max_mappings="auto"),
                   backend=SimulatorBackend(arch, seed=0))

    def test_auto_requires_the_exhaustive_policy(self):
        with pytest.raises(ValueError, match="auto"):
            SearchConfig(max_mappings="auto", policy="halving", budget=24)

    def test_non_auto_strings_are_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            Mapper(feather_arch(), SearchConfig(max_mappings="all"))
        with pytest.raises(InvalidRequestError, match="auto"):
            SearchRequest(workloads="fig10_gemms", arch="FEATHER-4x4",
                          max_mappings="all")

    def test_frontier_search_rejects_auto(self):
        layer = ConvLayerSpec("layer", m=16, c=16, h=8, w=8, r=3, s=3,
                              padding=1)
        mapper = Mapper(feather_arch(), SearchConfig(max_mappings="auto"))
        with pytest.raises(ValueError, match="frontier"):
            mapper.search_frontier(layer)
        with pytest.raises(InvalidRequestError, match="frontier"):
            SearchRequest(workloads="resnet50_residual_block", arch="FEATHER",
                          max_mappings="auto", frontier=True)

    def test_request_rejects_auto_off_the_analytical_backend(self):
        with pytest.raises(InvalidRequestError, match="analytical"):
            SearchRequest(workloads="micro_gemms", arch="FEATHER-4x4",
                          max_mappings="auto", backend="simulator")
