"""The built-in scenario matrix: everything the repo can run end-to-end.

Seven groups, combined (deduplicated) by :func:`builtin_matrix`:

* **smoke** — five tiny cells spanning every workload family (dense conv,
  skewed GEMM, depthwise, skewed attention heads, batched conv); the CI
  smoke sweep and the quickstart run these in seconds.
* **figures** — the paper's co-searches (Fig. 2, Fig. 10, Fig. 13, the
  search-stats table) at the experiments' default settings, via
  :mod:`repro.scenarios.ports`.
* **coverage** — the scenario-diversity sweep beyond the paper's grid:
  depthwise/pointwise MobileNet blocks, the skewed BERT-head GEMM sweep
  and batch-size (N>1) model variants, each on several architectures.
* **simulator** — micro-cells co-searched on the cycle-level FEATHER
  simulator backend (``backend="simulator"``).
* **crossval** — micro-cells cross-validating the analytical model
  against the simulator; their records embed per-cell
  analytical-vs-simulated cycle/utilization deltas.
* **cross-architecture** — the same workload grid searched on the
  flexible analytical FEATHER model, the rigid ``systolic`` baseline and
  the reference reduction-NoC backends (``noc:linear``/``noc:tree``), the
  Table I-style comparison as one sweep; the constrained backends repair
  every candidate to their legal universes and their records carry the
  repair-log counters.
* **golden** — pinned micro-cells (analytical, simulator, crossval,
  systolic and NoC) whose records are checked into ``tests/golden/`` and
  asserted bit-identical by ``tests/test_scenarios_golden.py``.
"""

from __future__ import annotations

from repro.scenarios.ports import (
    fig2_scenarios,
    fig10_scenario,
    fig13_scenarios,
    tables_scenarios,
)
from repro.scenarios.spec import Scenario, ScenarioMatrix, SearchConfig

_SMOKE_EDP = SearchConfig(name="smoke", metric="edp", max_mappings=8)
_SMOKE_LATENCY = SearchConfig(name="smoke-latency", metric="latency",
                              max_mappings=16)
_SWEEP_EDP = SearchConfig(name="edp-50", metric="edp", max_mappings=50)


def smoke_matrix() -> ScenarioMatrix:
    """Seconds-scale cells touching every workload family once."""
    return ScenarioMatrix(name="smoke", scenarios=[
        Scenario("smoke-resnet50", "resnet50[:2]", "FEATHER",
                 _SMOKE_EDP, tags=("smoke",)),
        Scenario("smoke-fig10-gemms", "fig10_gemms", "FEATHER-4x4",
                 _SMOKE_LATENCY, tags=("smoke",)),
        Scenario("smoke-mobilenet-depthwise", "mobilenet_v3_depthwise[:2]",
                 "FEATHER", _SMOKE_EDP, tags=("smoke",)),
        Scenario("smoke-bert-heads", "bert_head_sweep[:2]",
                 "SIGMA-like (MK_K32)", _SMOKE_EDP, tags=("smoke",)),
        Scenario("smoke-resnet50-batch4", "resnet50_batch4[:2]", "FEATHER",
                 _SMOKE_EDP, tags=("smoke", "batch")),
    ])


def figure_matrix() -> ScenarioMatrix:
    """The paper's co-searches at the experiments' default settings."""
    matrix = ScenarioMatrix(name="figures")
    matrix.extend(fig2_scenarios())
    matrix.add(fig10_scenario())
    matrix.extend(fig13_scenarios())
    matrix.extend(tables_scenarios())
    return matrix


def coverage_matrix() -> ScenarioMatrix:
    """Scenario-diversity sweep beyond the paper's fixed evaluation grid."""
    matrix = ScenarioMatrix(name="coverage")
    matrix.cross(["mobilenet_v3_depthwise", "mobilenet_v3_pointwise"],
                 ["FEATHER", "Eyeriss-like"], [_SWEEP_EDP],
                 tags=("coverage", "mobilenet"))
    matrix.cross(["bert_head_sweep"], ["FEATHER", "SIGMA-like (MK_K32)"],
                 [_SWEEP_EDP], tags=("coverage", "bert"))
    matrix.cross(["resnet50_batch4[:12]", "mobilenet_v3_batch4[:12]"],
                 ["FEATHER"], [_SWEEP_EDP], tags=("coverage", "batch"))
    return matrix


_SIM_EDP = SearchConfig(name="sim-edp", metric="edp", max_mappings=4)
_SIM_LATENCY = SearchConfig(name="sim-latency", metric="latency",
                            max_mappings=6)


def simulator_matrix() -> ScenarioMatrix:
    """Micro-cells co-searched on the cycle-level simulator backend."""
    return ScenarioMatrix(name="simulator", scenarios=[
        Scenario("sim-micro-convs", "micro_convs", "FEATHER-4x4",
                 _SIM_EDP, backend="simulator", tags=("simulator", "micro")),
        Scenario("sim-micro-gemms", "micro_gemms", "FEATHER-4x4",
                 _SIM_LATENCY, backend="simulator",
                 tags=("simulator", "micro")),
        Scenario("sim-fig10-gemms", "fig10_gemms", "FEATHER-4x4",
                 _SIM_LATENCY, backend="simulator",
                 tags=("simulator", "micro", "fig10")),
    ])


def crossval_matrix() -> ScenarioMatrix:
    """Analytical-vs-simulator cross-validation micro-cells.

    Each record embeds the per-cell cycle/utilization deltas and the
    simulator's independently measured read slowdown / write
    serialization — the machine-check of the RIR claim.
    """
    return ScenarioMatrix(name="crossval", scenarios=[
        Scenario("crossval-micro-convs", "micro_convs", "FEATHER-4x4",
                 _SIM_EDP, backend="crossval", tags=("crossval", "micro")),
        Scenario("crossval-micro-gemms", "micro_gemms", "FEATHER-4x4",
                 _SIM_LATENCY, backend="crossval",
                 tags=("crossval", "micro")),
    ])


#: Backends of the cross-architecture comparison sweep; ``simulator`` is
#: deliberately absent (its MAC bound rejects paper-scale layers — it has
#: its own micro-cell group above).
CROSS_ARCHITECTURE_BACKENDS = ("analytical", "systolic", "noc:linear",
                               "noc:tree")

_XARCH_EDP = SearchConfig(name="xarch-edp", metric="edp", max_mappings=30)


def cross_architecture_matrix() -> ScenarioMatrix:
    """FEATHER vs. systolic vs. reference NoCs on one workload grid.

    One cell per (workload set, backend) over the same architecture, so a
    single ``run --filter xarch`` sweep answers the paper's Table I-style
    question end-to-end: what does the flexible analytical model buy over
    a rigid weight-stationary array or an alternative reduction topology
    on identical layers?  The constrained backends search their own
    repaired-legal universes (their ConstraintSets ride on the backend),
    and every record embeds the repair-log counters.
    """
    matrix = ScenarioMatrix(name="cross-architecture")
    for backend in CROSS_ARCHITECTURE_BACKENDS:
        slug = backend.replace(":", "-")
        for wset in ("resnet50[:4]", "fig10_gemms"):
            wslug = wset.split("[")[0].replace("_", "-")
            matrix.add(Scenario(
                f"xarch-{slug}-{wslug}", wset, "FEATHER", _XARCH_EDP,
                backend=backend,
                tags=("xarch", "cross-architecture", backend)))
    return matrix


def golden_matrix() -> ScenarioMatrix:
    """The pinned micro-cells backing the golden-file regression tests.

    Changing anything here (or anything these cells execute) shows up as a
    golden diff; regenerate with
    ``pytest tests/test_scenarios_golden.py --update-golden``.
    """
    golden_edp = SearchConfig(name="golden-edp", metric="edp",
                              max_mappings=12)
    golden_latency = SearchConfig(name="golden-latency", metric="latency",
                                  max_mappings=40)
    return ScenarioMatrix(name="golden", scenarios=[
        Scenario("golden-resnet50-head", "resnet50[:2]", "FEATHER",
                 golden_edp, tags=("golden",)),
        Scenario("golden-fig10-gemms", "fig10_gemms", "FEATHER-4x4",
                 golden_latency, tags=("golden",)),
        Scenario("golden-mobilenet-depthwise", "mobilenet_v3_depthwise[:2]",
                 "Eyeriss-like", golden_edp, tags=("golden",)),
        Scenario("golden-bert-heads", "bert_head_sweep[:2]",
                 "SIGMA-like (MK_K32)", golden_edp, tags=("golden",)),
        Scenario("golden-sim-micro-convs", "micro_convs", "FEATHER-4x4",
                 SearchConfig(name="golden-sim", metric="edp",
                              max_mappings=4),
                 backend="simulator", tags=("golden", "simulator")),
        Scenario("golden-crossval-micro-gemms", "micro_gemms", "FEATHER-4x4",
                 SearchConfig(name="golden-crossval", metric="latency",
                              max_mappings=6),
                 backend="crossval", tags=("golden", "crossval")),
        Scenario("golden-frontier-residual", "resnet50_residual_block",
                 "FEATHER", SearchConfig(name="golden-frontier", metric="edp",
                                         max_mappings=12, frontier=True),
                 tags=("golden", "frontier")),
        Scenario("golden-fused-residual", "resnet50_residual_block",
                 "FEATHER", SearchConfig(name="golden-fused", metric="edp",
                                         max_mappings=12, frontier=True,
                                         fused=True),
                 tags=("golden", "frontier", "fused")),
        Scenario("golden-systolic-micro-convs", "micro_convs", "FEATHER-4x4",
                 SearchConfig(name="golden-systolic", metric="latency",
                              max_mappings=12),
                 backend="systolic", tags=("golden", "systolic")),
        Scenario("golden-noc-tree-micro-convs", "micro_convs", "FEATHER-4x4",
                 SearchConfig(name="golden-noc", metric="edp",
                              max_mappings=12),
                 backend="noc:tree", tags=("golden", "noc")),
    ])


def builtin_matrix() -> ScenarioMatrix:
    """All built-in cells (smoke + figures + coverage + simulator +
    crossval + cross-architecture + golden), deduplicated."""
    return ScenarioMatrix(name="builtin").merged(
        smoke_matrix(), figure_matrix(), coverage_matrix(),
        simulator_matrix(), crossval_matrix(), cross_architecture_matrix(),
        golden_matrix())
