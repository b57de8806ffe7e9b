"""The production search equals the scalar reference oracle, shape by shape.

Every unique shape of every golden cell whose search is analytical or
constraint-repaired is searched twice on fresh mappers of the cell's
configuration: once by ``Mapper.search`` (bulk universe, one-pass bounds,
batched scoring) and once by the tests-side scalar loop of
``tests/reference.py``.  The winner report, mapping and layout and every
counter must agree exactly.  Analytical cells are additionally searched
with a ConstraintSet bound — the architecture's own rules and the systolic
preset, which repairs most candidates — the only route on which repaired
universes are pruned by the bulk bounds.

The same identity is then checked on the real workload grid: every unique
ResNet-50 and MobileNet-V3 conv shape on FEATHER over the whole mapping
space (``max_mappings=10**9``), the exhaustive-feather benchmark's three
requests, plus BERT, and ResNet-50 for energy at a capped sample.
Golden universes hold at most a few hundred pairs; this grid has 661k,
with within-search duplicates and deep pruning.  FEATHER is RIR and
never runs the concordance kernel (its searches take the columnar scan of
slowdown-free designs, which prices the duplicates the oracle's memo
serves, so it reports no cache hit), so the Fig. 13 grid checks the kernel's designs
too: every other design of the ResNet-50 and BERT charts over the unique
shapes at the benchmark's ``max_mappings=50``.
"""

import dataclasses

import pytest

from reference import reference_search
from repro.backends import create_backend
from repro.baselines.registry import fig13_arch_suite
from repro.constraints import systolic_constraints
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.mapper import Mapper
from repro.scenarios import golden_matrix
from repro.scenarios.registry import resolve_arch, resolve_workload_set
from repro.search.config import SearchConfig
from repro.search.signatures import workload_signature


def _cases():
    for cell in golden_matrix():
        if cell.backend == "simulator":
            continue  # its search scores on the simulator, not the model
        seen = {}
        for workload in resolve_workload_set(cell.workload_set):
            seen.setdefault(workload_signature(workload), workload)
        analytical = cell.backend in ("analytical", "crossval")
        for constraints in ((None, "default", "systolic") if analytical
                            else (None,)):
            for index, workload in enumerate(seen.values()):
                label = f"{cell.name}-{index}"
                if constraints:
                    label += f"-{constraints}"
                yield pytest.param(cell, workload, constraints, id=label)


def _mapper(cell, constraints) -> Mapper:
    arch = resolve_arch(cell.arch)
    backend = ("analytical" if cell.backend in ("analytical", "crossval")
               else create_backend(cell.backend, arch, seed=cell.config.seed))
    if constraints == "systolic":
        constraints = systolic_constraints(arch)
    return Mapper(arch, dataclasses.replace(cell.config,
                                            constraints=constraints),
                  backend=backend)


@pytest.mark.parametrize("cell,workload,constraints", list(_cases()))
def test_search_matches_scalar_reference(cell, workload, constraints):
    result = _mapper(cell, constraints).search(workload)
    expected = reference_search(_mapper(cell, constraints), workload)
    assert result.best_report == expected.best_report
    assert result.best_mapping == expected.best_mapping
    assert result.best_layout == expected.best_layout
    assert ((result.evaluated, result.pruned, result.cache_hits,
             result.repaired)
            == (expected.evaluated, expected.pruned, expected.cache_hits,
                expected.repaired))
    assert result.repair == expected.repair


def _grid_totals(arch, workload_set, config):
    """Search every unique shape of ``workload_set`` on fresh mappers, both
    ways; assert the winner and every counter equal the oracle's, and
    return the summed (evaluated, pruned, cache hits).  A design that never
    stalls on a bank conflict prices its universe without the memo, so it
    reports no hit where the oracle's memo serves a within-search
    duplicate."""
    shapes = {}
    for workload in resolve_workload_set(workload_set):
        shapes.setdefault(workload_signature(workload), workload)
    summed = [0, 0, 0]
    for workload in shapes.values():
        mapper = Mapper(arch, config)
        result = mapper.search(workload)
        expected = reference_search(Mapper(arch, config), workload)
        assert result.best_report == expected.best_report, workload.name
        assert result.best_mapping == expected.best_mapping, workload.name
        assert result.best_layout == expected.best_layout, workload.name
        counters = (result.evaluated, result.pruned, result.cache_hits)
        assert counters == (expected.evaluated, expected.pruned,
                            0 if mapper.cost_model.slowdown_free
                            else expected.cache_hits), workload.name
        summed = [a + b for a, b in zip(summed, counters)]
    return tuple(summed)


@pytest.mark.parametrize("workload_set,metric,totals", [
    ("resnet50", "edp", (9618, 160755, 0)),
    ("resnet50", "latency", (1463, 168910, 0)),
    ("mobilenet_v3", "edp", (28763, 291739, 0)),
    ("bert", "edp", (882, 6336, 0)),
], ids=["resnet50-edp", "resnet50-latency", "mobilenet_v3-edp", "bert-edp"])
def test_real_grid_matches_scalar_reference(workload_set, metric, totals):
    """Every unique shape of the grid, uncapped on FEATHER: the winner and
    every counter equal the oracle's; the grid's summed (evaluated,
    pruned, cache hits) are pinned."""
    config = SearchConfig(metric=metric, max_mappings=10**9)
    assert _grid_totals(feather_arch(), workload_set, config) == totals


def test_energy_grid_matches_scalar_reference():
    """The energy bound is one floor per shape, so an energy search scores
    every entry: ResNet-50 on FEATHER at ``max_mappings=100`` (uncapped,
    the oracle takes seconds) against the oracle, totals pinned."""
    config = SearchConfig(metric="energy", max_mappings=100)
    assert (_grid_totals(feather_arch(), "resnet50", config)
            == (16261, 0, 0))


@pytest.mark.parametrize("workload_set,arch_name,totals", [
    ("resnet50", "NVDLA-like", (23, 0, 0)),
    ("resnet50", "Eyeriss-like", (232, 918, 0)),
    ("resnet50", "SIGMA-like (HWC_C32)", (301, 872, 4)),
    ("resnet50", "SIGMA-like (HWC_C4W8)", (277, 896, 4)),
    ("resnet50", "SIGMA-like (off-chip reorder)", (1358, 6853, 0)),
    ("resnet50", "Medusa-like", (1428, 6783, 28)),
    ("resnet50", "MTIA-like", (1428, 6783, 28)),
    ("resnet50", "TPU-like", (1428, 6783, 28)),
    ("bert", "NVDLA-like", (6, 0, 0)),
    ("bert", "Eyeriss-like", (88, 212, 0)),
    ("bert", "SIGMA-like (MK_K32)", (59, 247, 0)),
], ids=["resnet50-nvdla", "resnet50-eyeriss", "resnet50-sigma-c32",
        "resnet50-sigma-c4w8", "resnet50-sigma-offchip", "resnet50-medusa",
        "resnet50-mtia", "resnet50-tpu", "bert-nvdla", "bert-eyeriss",
        "bert-sigma-mk-k32"])
def test_fig13_grid_matches_scalar_reference(workload_set, arch_name,
                                             totals):
    """Every non-FEATHER design of the Fig. 13 chart, over the chart's
    unique shapes at the benchmark's sample size: the winner and every
    counter equal the oracle's; the summed counters are pinned."""
    suite = fig13_arch_suite(gemm=workload_set == "bert")
    arch = next(arch for arch in suite if arch.name == arch_name)
    config = SearchConfig(metric="edp", max_mappings=50, seed=0)
    assert _grid_totals(arch, workload_set, config) == totals
