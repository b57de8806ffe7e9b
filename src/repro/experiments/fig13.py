"""Fig. 13 — FEATHER vs SoTA accelerators in Layoutloop (latency and pJ/MAC).

For BERT, ResNet-50 and MobileNet-V3 the paper compares nine accelerator
configurations (Table IV) after a per-layer (dataflow, layout) co-search with
the energy-delay-product objective, reporting per-design normalised latency
and normalised energy per MAC (both relative to FEATHER), average steady-state
utilization, the bank-conflict stall share and the off-chip reordering share.

This experiment runs the Fig. 13 scenario cells
(:func:`repro.scenarios.ports.fig13_scenarios`) through
:func:`repro.scenarios.run_matrix` and normalises the records with
:func:`repro.scenarios.ports.fig13_series_from_records`.  ``max_mappings``
bounds the pruned-random mapping search per layer; the default keeps a
full-model run in the tens of seconds while preserving the orderings.
``workers`` fans unique layer shapes out across processes (``None`` honours
``REPRO_SEARCH_WORKERS``); results are bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class Fig13Series:
    """Normalised results for one workload chart."""

    workload: str
    reference: str
    normalized_latency: Dict[str, float] = field(default_factory=dict)
    normalized_energy_per_mac: Dict[str, float] = field(default_factory=dict)
    utilization: Dict[str, float] = field(default_factory=dict)
    stall_fraction: Dict[str, float] = field(default_factory=dict)
    reorder_fraction: Dict[str, float] = field(default_factory=dict)

    def arch_names(self) -> List[str]:
        return list(self.normalized_latency)


def run(workload_names: Sequence[str] = ("bert", "resnet50", "mobilenet_v3"),
        max_mappings: int = 50, max_layers: Optional[int] = None,
        workers: Optional[int] = None, seed: int = 0) -> Dict[str, Fig13Series]:
    """Reproduce Fig. 13's three charts (or a subset of them).

    Unknown workload names raise :class:`~repro.errors.InvalidRequestError`.
    """
    # Imported here: the scenario ports build Fig13Series from this module.
    from repro.scenarios.ports import fig13_scenarios, fig13_series_from_records
    from repro.scenarios.runner import run_matrix

    results: Dict[str, Fig13Series] = {}
    for name in workload_names:
        matrix = fig13_scenarios((name,), max_layers=max_layers,
                                 max_mappings=max_mappings, seed=seed)
        records = run_matrix(matrix, workers=workers).records
        results[name] = fig13_series_from_records(name, records)
    return results


# The paper's reported normalised latency / energy (for EXPERIMENTS.md and the
# shape checks in tests — keys follow the arch names of ``fig13_arch_suite``).
PAPER_LATENCY = {
    "bert": {"NVDLA-like": 2.00, "Eyeriss-like": 1.43, "SIGMA-like (MK_K32)": 1.00,
             "FEATHER": 1.00},
    "resnet50": {"NVDLA-like": 2.00, "Eyeriss-like": 1.27,
                 "SIGMA-like (HWC_C32)": 1.01, "SIGMA-like (HWC_C4W8)": 1.03,
                 "SIGMA-like (off-chip reorder)": 1.70, "Medusa-like": 1.01,
                 "MTIA-like": 1.15, "TPU-like": 1.15, "FEATHER": 1.00},
    "mobilenet_v3": {"NVDLA-like": 2.89, "Eyeriss-like": 1.87,
                     "SIGMA-like (HWC_C32)": 1.17, "SIGMA-like (HWC_C4W8)": 1.07,
                     "SIGMA-like (off-chip reorder)": 1.70, "Medusa-like": 1.18,
                     "MTIA-like": 1.36, "TPU-like": 1.36, "FEATHER": 1.00},
}

PAPER_ENERGY = {
    "bert": {"NVDLA-like": 6.43, "Eyeriss-like": 5.98, "SIGMA-like (MK_K32)": 1.44,
             "FEATHER": 1.00},
    "resnet50": {"NVDLA-like": 1.30, "Eyeriss-like": 3.09,
                 "SIGMA-like (HWC_C32)": 1.09, "SIGMA-like (HWC_C4W8)": 1.46,
                 "SIGMA-like (off-chip reorder)": 1.99, "Medusa-like": 1.90,
                 "MTIA-like": 2.20, "TPU-like": 2.20, "FEATHER": 1.00},
    "mobilenet_v3": {"NVDLA-like": 1.35, "Eyeriss-like": 1.92,
                     "SIGMA-like (HWC_C32)": 1.29, "SIGMA-like (HWC_C4W8)": 1.54,
                     "SIGMA-like (off-chip reorder)": 1.66, "Medusa-like": 1.85,
                     "MTIA-like": 2.06, "TPU-like": 2.06, "FEATHER": 1.00},
}
