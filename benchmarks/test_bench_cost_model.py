"""Microbenchmark: scalar vs vectorized cost-model evaluation.

Times the innermost co-search kernel — scoring one mapping under every
candidate layout — both ways over the deduplicated ResNet-50 conv shapes:

* **scalar** — the tests oracle's ``reference_evaluate`` per (mapping,
  layout) (dict-per-coordinate addressing, per-cycle Python concordance;
  ``tests/reference.py``);
* **batched** — one ``CostModel.evaluate_mapping_batch`` call per mapping
  (compiled layouts + ``(cycles, lanes, ndims)`` footprints +
  ``analyze_concordance_batch``), the only production pricing path.

Three architectures are measured: MTIA-like (transpose reordering: the
batched concordance kernel runs on every layout, so this case is the
kernel's speed gate), SIGMA with off-chip reordering (arbitrary reorder
serves every bank conflict, so the batched path skips the footprint and
the kernel while the scalar oracle still walks every cycle) and
FEATHER/RIR (concordance is skipped, so the win is amortizing the
mapping-level quantities).  Each must produce identical reports; the
batched path must be measurably faster on each.
"""

from __future__ import annotations

import pytest

from reference import reference_evaluate
from repro.baselines.registry import mtia_like, sigma_like
from repro.dataflow.space import MappingSpace
from repro.layout.library import conv_layout_library
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.cosearch import unique_workloads
from repro.layoutloop.cost_model import CostModel
from repro.workloads.resnet50 import resnet50_layers

MAPPINGS_PER_SHAPE = 8


def _workbench():
    shapes = [wl for wl, _ in
              unique_workloads(resnet50_layers(include_fc=False))]
    layouts = conv_layout_library()
    cases = []
    for shape in shapes:
        space = MappingSpace(shape, 16, 16)
        for mapping in space.sample(MAPPINGS_PER_SHAPE, seed=0):
            cases.append((shape, mapping))
    return cases, layouts


def _run_scalar(model: CostModel, cases, layouts):
    return [[reference_evaluate(model, wl, mapping, layout)
             for layout in layouts]
            for wl, mapping in cases]


def _run_batched(model: CostModel, cases, layouts):
    return [model.evaluate_mapping_batch(wl, mapping, layouts)
            for wl, mapping in cases]


@pytest.mark.benchmark(group="cost-model")
@pytest.mark.parametrize("arch_fn,min_speedup", [
    pytest.param(mtia_like, 3.0, id="mtia"),
    pytest.param(lambda: sigma_like(reorder="offchip"), 3.0, id="offchip"),
    pytest.param(feather_arch, 1.2, id="feather-rir"),
])
def test_batched_evaluate_speedup(benchmark, arch_fn, min_speedup, best_of):
    arch = arch_fn()
    model = CostModel(arch)
    cases, layouts = _workbench()
    evals = len(cases) * len(layouts)

    scalar_s, scalar_reports = best_of(lambda: _run_scalar(model, cases, layouts))
    batched_s, batched_reports = benchmark.pedantic(
        lambda: best_of(lambda: _run_batched(model, cases, layouts)),
        iterations=1, rounds=1)

    title = (f"Cost-model kernel — {arch.name}: {len(cases)} (shape, mapping) "
             f"cases x {len(layouts)} layouts = {evals} evaluations")
    line = "=" * len(title)
    print(f"\n{line}\n{title}\n{line}")
    print(f"{'path':10s} {'seconds':>8s} {'us/eval':>9s} {'evals/s':>10s}")
    for name, seconds in (("scalar", scalar_s), ("batched", batched_s)):
        print(f"{name:10s} {seconds:8.3f} {seconds / evals * 1e6:9.1f} "
              f"{evals / seconds:10.0f}")
    print(f"speedup: {scalar_s / batched_s:.2f}x")

    assert batched_reports == scalar_reports  # bit-identical, report by report
    assert scalar_s >= min_speedup * batched_s, (
        f"batched path ({batched_s:.3f}s) not measurably faster than scalar "
        f"({scalar_s:.3f}s) on {arch.name}")
