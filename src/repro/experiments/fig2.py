"""Fig. 2 — the theory/practice latency gap on a 16x16 PE array.

For selected ResNet-50 and MobileNet-V3 layers (and the full models) the paper
compares four policies:

1. **fixed** — a fixed output-stationary dataflow with a fixed layout (the
   error bar spans the layouts); the conventional compromise.
2. **theory** — the best dataflow reported by a layout-blind search (what a
   Timeloop-style mapper promises).
3. **practice** — that same "best" dataflow executed under real layouts with
   bank conflicts (the error bar again spans layouts); this is where the up to
   128x theory/practice gap appears.
4. **feather** — FEATHER co-switching (dataflow, layout), which restores the
   theoretical latency.

The experiment returns, per workload entry, the latency of each policy
normalised to the FEATHER policy, plus the min/max across layouts for the
policies with layout error bars.

The FEATHER and theory columns are one search, run only through the
scenario port (:func:`repro.scenarios.ports.fig2_scenarios`): FEATHER
prices every layout at slowdown 1.0 and breaks ties to the first layout,
so the layout-blind search returns FEATHER's winner
(``tests/test_experiments_small.py`` pins this on every Fig. 2 layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.api import EvalRequest, Session
from repro.api.codec import arch_payload, mapping_payload, workload_payload
from repro.baselines.registry import sigma_like
from repro.experiments.common import geomean
from repro.layout.library import conv_layout_library
from repro.layoutloop.cosearch import unique_workloads
from repro.layoutloop.mapper import SearchResult
from repro.search.signatures import workload_signature
from repro.workloads.conv import ConvLayerSpec


@dataclass
class Fig2Row:
    """Latency of the four policies for one workload entry."""

    workload: str
    fixed_latency: float
    fixed_latency_range: tuple
    theory_latency: float
    practice_latency: float
    practice_latency_range: tuple
    feather_latency: float

    @property
    def practice_gap(self) -> float:
        """Worst-case practice / theory latency ratio (the paper's 2-128x gap)."""
        return self.practice_latency_range[1] / self.theory_latency if self.theory_latency else 0.0

    @property
    def feather_vs_fixed(self) -> float:
        """Latency reduction of FEATHER over the fixed policy (paper: ~63% overall)."""
        return 1.0 - self.feather_latency / self.fixed_latency if self.fixed_latency else 0.0

    def normalized(self) -> Dict[str, float]:
        base = self.feather_latency or 1.0
        return {
            "fixed": self.fixed_latency / base,
            "theory": self.theory_latency / base,
            "practice": self.practice_latency / base,
            "feather": 1.0,
        }


def _policies_for_layer(layer: ConvLayerSpec, winner: SearchResult,
                        session: Session, no_reorder_payload: Dict) -> Fig2Row:
    """Price the four policies for one layer.

    ``winner`` is the layer's FEATHER co-search result: its latency is
    policies 2 and 4, its dataflow is what policy 3 runs under real
    layouts.  Policies 1 and 3 are cell evaluations
    (:class:`~repro.api.EvalRequest` on the no-reorder baseline arch).
    """
    layouts = conv_layout_library()
    workload = workload_payload(layer)

    def _eval_cycles(mapping, layout) -> float:
        response = session.run(EvalRequest(
            workload=workload, arch=no_reorder_payload, mapping=mapping,
            layout=layout.name))
        return response.backend_report.total_cycles

    # Policy 1: fixed output-stationary dataflow across layouts.
    fixed_lat = [_eval_cycles("output_stationary", lay) for lay in layouts]
    # Policy 3: the theory dataflow under real layouts with conflicts.
    theory_mapping = mapping_payload(winner.best_mapping)
    practice_lat = [_eval_cycles(theory_mapping, lay) for lay in layouts]
    latency = winner.best_report.total_cycles
    return Fig2Row(
        workload=layer.name,
        fixed_latency=geomean(fixed_lat),
        fixed_latency_range=(min(fixed_lat), max(fixed_lat)),
        theory_latency=latency,
        practice_latency=geomean(practice_lat),
        practice_latency_range=(min(practice_lat), max(practice_lat)),
        feather_latency=latency,
    )


def _aggregate(rows: Sequence[Fig2Row], name: str) -> Fig2Row:
    return Fig2Row(
        workload=name,
        fixed_latency=sum(r.fixed_latency for r in rows),
        fixed_latency_range=(sum(r.fixed_latency_range[0] for r in rows),
                             sum(r.fixed_latency_range[1] for r in rows)),
        theory_latency=sum(r.theory_latency for r in rows),
        practice_latency=sum(r.practice_latency for r in rows),
        practice_latency_range=(sum(r.practice_latency_range[0] for r in rows),
                                sum(r.practice_latency_range[1] for r in rows)),
        feather_latency=sum(r.feather_latency for r in rows),
    )


def run(max_mappings: int = 60, full_model_layers: Optional[int] = 12,
        seed: int = 0, models: Sequence[str] = ("resnet50", "mobilenet_v3"),
        ) -> Dict[str, List[Fig2Row]]:
    """Reproduce Fig. 2 on the 16x16 FEATHER of Table IV.

    ``full_model_layers`` bounds how many layers feed the "Full Model"
    bar to keep the run fast; ``None`` uses every layer.  ``models``
    selects which of the two charts to produce; ``seed`` feeds the mapping
    sampler of the co-searches.

    Each chart's FEATHER co-searches are its two
    :func:`~repro.scenarios.ports.fig2_scenarios` cells, run as their
    :func:`~repro.scenarios.runner.cell_request` on one
    :class:`~repro.api.Session`; every layer of a cell, in order, is
    looked up among the cell's per-shape winners by its shape signature.
    """
    # Imported here: the scenario ports import this package (Fig13Series).
    from repro.scenarios.ports import fig2_scenarios
    from repro.scenarios.registry import resolve_workload_set
    from repro.scenarios.runner import cell_request

    # A plain no-reorder architecture; the layout under evaluation is supplied
    # per request inside ``_policies_for_layer``, so the fixed-layout name
    # here is irrelevant.
    no_reorder_payload = arch_payload(sigma_like(16, 16, layout="HWC_C32",
                                                 reorder="none"))
    cells = list(fig2_scenarios(max_mappings, seed, models,
                                full_model_layers))
    results: Dict[str, List[Fig2Row]] = {}
    with Session(name="fig2") as session:

        def cell_rows(scenario) -> List[Fig2Row]:
            layers = resolve_workload_set(scenario.workload_set)
            cost = session.run(cell_request(scenario)).cost
            winners = {workload_signature(shape): choice.result
                       for (shape, _), choice
                       in zip(unique_workloads(layers), cost.layer_choices)}
            return [_policies_for_layer(layer,
                                        winners[workload_signature(layer)],
                                        session, no_reorder_payload)
                    for layer in layers]

        for model, motivation, full in zip(models, cells[::2], cells[1::2]):
            results[model] = cell_rows(motivation) + [
                _aggregate(cell_rows(full), f"{model}_full_model")]
    return results
