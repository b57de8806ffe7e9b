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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import EvalRequest, SearchRequest, Session
from repro.api.codec import arch_payload, mapping_payload, workload_payload
from repro.layout.library import conv_layout_library
from repro.layoutloop.arch import feather_arch
from repro.baselines.registry import sigma_like
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.resnet50 import resnet50_layers, resnet50_motivation_layers
from repro.workloads.mobilenet_v3 import mobilenet_v3_layers, mobilenet_v3_motivation_layers
from repro.experiments.common import geomean


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


def _policies_for_layer(layer: ConvLayerSpec, session: Session,
                        feather_payload: Dict, no_reorder_payload: Dict,
                        max_mappings: int, seed: int) -> Fig2Row:
    """Price the four policies for one layer through the façade.

    Policies 1 and 3 are plain cell evaluations
    (:class:`~repro.api.EvalRequest` on the no-reorder baseline arch);
    policies 2 and 4 are per-layer co-searches
    (:class:`~repro.api.SearchRequest` on FEATHER, policy 2 with the
    candidate library pinned to a single layout — the layout-blind
    "theory" search).  The shared session plays the old engine cache's
    role for the searches: a revisited shape is served from its mapper
    memo and evaluation cache.  The cell evaluations of policies 1 and 3
    are priced afresh (eval requests are not memoized).
    """
    layouts = conv_layout_library()
    workload = workload_payload(layer)

    def _eval_cycles(mapping, layout) -> float:
        response = session.run(EvalRequest(
            workload=workload, arch=no_reorder_payload, mapping=mapping,
            layout=layout.name))
        return response.backend_report.total_cycles

    def _search(layout_names=None):
        response = session.run(SearchRequest(
            workloads=(workload,), arch=feather_payload, model=layer.name,
            metric="latency", max_mappings=max_mappings, seed=seed,
            layouts=layout_names))
        return response.cost.layer_choices[0].result

    # Policy 1: fixed output-stationary dataflow across layouts.
    fixed_lat = [_eval_cycles("output_stationary", lay) for lay in layouts]

    # Policy 2: layout-blind best dataflow (slowdown ignored => FEATHER model).
    theory = _search(layout_names=(layouts[0].name,))
    theory_mapping = mapping_payload(theory.best_mapping)
    theory_lat = theory.best_report.total_cycles

    # Policy 3: that dataflow under real layouts with conflicts.
    practice_lat = [_eval_cycles(theory_mapping, lay) for lay in layouts]

    # Policy 4: FEATHER co-switching (dataflow, layout).
    feather_lat = _search().best_report.total_cycles

    return Fig2Row(
        workload=layer.name,
        fixed_latency=geomean(fixed_lat),
        fixed_latency_range=(min(fixed_lat), max(fixed_lat)),
        theory_latency=theory_lat,
        practice_latency=geomean(practice_lat),
        practice_latency_range=(min(practice_lat), max(practice_lat)),
        feather_latency=feather_lat,
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


def motivation_workloads(model: str) -> List[ConvLayerSpec]:
    """The Fig. 2 motivation layers of one model, in chart order.

    The same lists back the ``fig2_*_motivation`` workload sets of the
    scenario matrix, so the scenario-layer port searches exactly the
    workloads this experiment does.
    """
    if model == "resnet50":
        return [layer for key, layer
                in sorted(resnet50_motivation_layers().items()) if key != 47]
    if model == "mobilenet_v3":
        return [layer for _, layer
                in sorted(mobilenet_v3_motivation_layers().items())]
    raise ValueError(f"unknown Fig. 2 model {model!r}")


def run(rows: int = 16, cols: int = 16, max_mappings: int = 60,
        full_model_layers: Optional[int] = 12, seed: int = 0,
        models: Sequence[str] = ("resnet50", "mobilenet_v3"),
        ) -> Dict[str, List[Fig2Row]]:
    """Reproduce Fig. 2.

    ``full_model_layers`` bounds how many (unique) layers feed the "Full
    Model" bar to keep the run fast; ``None`` uses every layer.  ``models``
    selects which of the two charts to produce; ``seed`` feeds the mapping
    sampler of the per-run session.

    All per-layer requests share one :class:`~repro.api.Session`, so the
    searches of repeated shapes (and of the full-model bars, which revisit
    the motivation layers) are served from the session's memos instead of
    re-searching.
    """
    results: Dict[str, List[Fig2Row]] = {}
    feather_payload = arch_payload(feather_arch(rows, cols))
    # A plain no-reorder architecture; the layout under evaluation is supplied
    # per request inside ``_policies_for_layer``, so the fixed-layout name
    # here is irrelevant.
    no_reorder_payload = arch_payload(sigma_like(rows, cols, layout="HWC_C32",
                                                 reorder="none"))
    full_tables = {"resnet50": lambda: resnet50_layers(include_fc=False),
                   "mobilenet_v3": lambda: mobilenet_v3_layers(include_fc=False)}

    with Session(name="fig2") as session:
        for model in models:
            model_rows = [
                _policies_for_layer(layer, session, feather_payload,
                                    no_reorder_payload, max_mappings, seed)
                for layer in motivation_workloads(model)]
            all_layers = full_tables[model]()
            if full_model_layers:
                all_layers = all_layers[:full_model_layers]
            full = [_policies_for_layer(l, session, feather_payload,
                                        no_reorder_payload, max_mappings, seed)
                    for l in all_layers]
            model_rows.append(_aggregate(full, f"{model}_full_model"))
            results[model] = model_rows
    return results
