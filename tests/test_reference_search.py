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
requests.  Golden universes hold at most a few hundred pairs; this grid
has 661k, with within-search duplicate hits and deep pruning.
"""

import dataclasses

import pytest

from reference import reference_search
from repro.backends import create_backend
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


@pytest.mark.parametrize("workload_set,metric,totals", [
    ("resnet50", "edp", (9618, 160755, 154)),
    ("resnet50", "latency", (1463, 168910, 0)),
    ("mobilenet_v3", "edp", (28763, 291739, 119)),
], ids=["resnet50-edp", "resnet50-latency", "mobilenet_v3-edp"])
def test_real_grid_matches_scalar_reference(workload_set, metric, totals):
    """Every unique shape of the grid, uncapped on FEATHER: the winner and
    every counter equal the oracle's; the grid's summed (evaluated,
    pruned, cache hits) are pinned."""
    config = SearchConfig(metric=metric, max_mappings=10**9)
    shapes = {}
    for workload in resolve_workload_set(workload_set):
        shapes.setdefault(workload_signature(workload), workload)
    summed = [0, 0, 0]
    for workload in shapes.values():
        result = Mapper(feather_arch(), config).search(workload)
        expected = reference_search(Mapper(feather_arch(), config), workload)
        assert result.best_report == expected.best_report, workload.name
        assert result.best_mapping == expected.best_mapping, workload.name
        assert result.best_layout == expected.best_layout, workload.name
        counters = (result.evaluated, result.pruned, result.cache_hits)
        assert counters == (expected.evaluated, expected.pruned,
                            expected.cache_hits), workload.name
        summed = [a + b for a, b in zip(summed, counters)]
    assert tuple(summed) == totals
