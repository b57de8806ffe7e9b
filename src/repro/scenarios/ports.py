"""The paper's figure/table co-searches as thin scenario definitions.

Each port pairs (a) a function returning the figure's cells as a
:class:`~repro.scenarios.spec.ScenarioMatrix` with (b) a converter from the
resulting :class:`~repro.scenarios.record.ScenarioRecord` objects back to
the figure's native output structures.  The ports use the same workload
sets, architecture suite, metric, mapping budget and seed as the
``repro.experiments`` modules, and every figure's co-search is computed
*only* here: ``repro.experiments.fig13.run`` runs :func:`fig13_scenarios`
and converts the records with :func:`fig13_series_from_records`,
``repro.experiments.fig10.run`` runs :func:`fig10_scenario` and reads
:func:`fig10_feather_utilizations`, and ``repro.experiments.fig2.run``
runs the :func:`fig2_scenarios` cells and reads its FEATHER and theory
columns from their per-layer winners.

Only the engine-shaped part of each figure is a scenario (a scenario *is*
a co-search cell).  Fig. 2's fixed and practice policies and Fig. 10's
systolic baseline are cell evaluations and stay in their experiment
modules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.registry import fig13_arch_suite
from repro.experiments.fig13 import Fig13Series
from repro.scenarios.record import ScenarioRecord
from repro.scenarios.spec import (
    Scenario,
    ScenarioMatrix,
    SearchConfig,
    default_cell_name,
)


def _suite_names(gemm: bool = False) -> List[str]:
    return [arch.name for arch in fig13_arch_suite(gemm=gemm)]


def _sliced(workload_set: str, max_layers: Optional[int]) -> str:
    return f"{workload_set}[:{max_layers}]" if max_layers else workload_set


# ----------------------------------------------------------------- Fig. 2
def fig2_scenarios(max_mappings: int = 60, seed: int = 0,
                   models: Sequence[str] = ("resnet50", "mobilenet_v3"),
                   full_model_layers: Optional[int] = 12) -> ScenarioMatrix:
    """Fig. 2's FEATHER co-searches: two cells per model chart.

    Per model, in model order: its motivation layers, then its "Full
    Model" slice (the first ``full_model_layers`` conv layers, all of them
    for ``None``).  The defaults are the Fig. 2 experiment's: latency
    objective, ``max_mappings=60``, seed 0.
    """
    config = SearchConfig(name=f"latency-{max_mappings}", metric="latency",
                          max_mappings=max_mappings, seed=seed)
    matrix = ScenarioMatrix(name="fig2")
    for model in models:
        matrix.cross([f"fig2_{model}_motivation",
                      _sliced(model, full_model_layers)],
                     ["FEATHER"], [config], tags=("fig2", "figure"))
    return matrix


def fig2_feather_latencies(record: ScenarioRecord) -> Dict[str, float]:
    """Per-layer FEATHER latency (cycles), keyed by motivation-layer name."""
    return {layer.workload: layer.total_cycles for layer in record.layers}


# ---------------------------------------------------------------- Fig. 10
def fig10_scenario(max_mappings: int = 200, seed: int = 0) -> Scenario:
    """The FEATHER side of Fig. 10: the four skewed GEMMs on a 4x4 array."""
    config = SearchConfig(name=f"latency-{max_mappings}", metric="latency",
                          max_mappings=max_mappings, seed=seed)
    return Scenario(name=default_cell_name("fig10_gemms", "FEATHER-4x4",
                                           config),
                    workload_set="fig10_gemms", arch="FEATHER-4x4",
                    config=config, tags=("fig10", "figure"))


def fig10_feather_utilizations(record: ScenarioRecord) -> Dict[str, float]:
    """FEATHER practical utilization per Fig. 10 workload."""
    return {layer.workload: layer.practical_utilization
            for layer in record.layers}


# ---------------------------------------------------------------- Fig. 13
def fig13_scenarios(
        workload_names: Sequence[str] = ("bert", "resnet50", "mobilenet_v3"),
        max_layers: Optional[int] = None, max_mappings: int = 50,
        seed: int = 0) -> ScenarioMatrix:
    """Fig. 13's grid: each paper workload across its architecture suite.

    One cell per (workload, architecture); the BERT chart uses the
    four-design GEMM suite, the CNN charts the full nine-design suite, as
    in the paper.
    """
    config = SearchConfig(name=f"edp-{max_mappings}", metric="edp",
                          max_mappings=max_mappings, seed=seed)
    matrix = ScenarioMatrix(name="fig13")
    for name in workload_names:
        matrix.cross([_sliced(name, max_layers)],
                     _suite_names(gemm=name == "bert"), [config],
                     tags=("fig13", "figure", name))
    return matrix


def fig13_series_from_records(workload: str,
                              records: Sequence[ScenarioRecord],
                              reference: str = "FEATHER") -> Fig13Series:
    """Rebuild a :class:`Fig13Series` from one workload's cell records.

    ``records`` must be the workload's cells in suite order (as produced by
    :func:`fig13_scenarios`); every series is normalised to the
    ``reference`` design's totals.
    """
    by_arch = {record.arch: record for record in records}
    ref = by_arch[reference]
    series = Fig13Series(workload=workload, reference=reference)
    for record in records:
        totals = record.totals
        series.normalized_latency[record.arch] = (
            totals["total_cycles"] / ref.totals["total_cycles"]
            if ref.totals["total_cycles"] else 0.0)
        series.normalized_energy_per_mac[record.arch] = (
            totals["energy_per_mac_pj"] / ref.totals["energy_per_mac_pj"]
            if ref.totals["energy_per_mac_pj"] else 0.0)
        series.utilization[record.arch] = totals["avg_utilization"]
        series.stall_fraction[record.arch] = totals["stall_fraction"]
        series.reorder_fraction[record.arch] = totals["reorder_fraction"]
    return series


# ----------------------------------------------------------------- Tables
def tables_scenarios(workload_set: str = "resnet50", gemm: bool = False,
                     max_mappings: int = 50, seed: int = 0) -> ScenarioMatrix:
    """The search-stats sweep: one workload set across the Fig. 13 suite."""
    config = SearchConfig(name=f"edp-{max_mappings}", metric="edp",
                          max_mappings=max_mappings, seed=seed)
    matrix = ScenarioMatrix(name="tables")
    return matrix.cross([workload_set], _suite_names(gemm=gemm), [config],
                        tags=("tables", "figure"))


def frontier_rows_from_record(record: ScenarioRecord,
                              ) -> List[Dict[str, object]]:
    """Flattened Pareto-frontier rows of a ``frontier=True`` cell record.

    One row per frontier point across every unique shape, in record order:
    the shape's workload name, the point's mapping/layout names, its four
    objective values and whether it is the shape's scalar (lexicographic)
    winner — the tabular view the frontier plots and reports consume.
    Raises ``ValueError`` on records without frontier payloads so a caller
    can't silently chart an empty table.
    """
    if record.frontiers is None:
        raise ValueError(
            f"record {record.scenario!r} carries no frontier payloads "
            "(re-run the cell with frontier=True)")
    rows: List[Dict[str, object]] = []
    for shape in record.frontiers:
        for index, point in enumerate(shape["points"]):
            rows.append({
                "workload": shape["workload"],
                "mapping": point["mapping"],
                "layout": point["layout"],
                "edp": point["edp"],
                "total_cycles": point["total_cycles"],
                "total_energy_pj": point["total_energy_pj"],
                "buffer_footprint_bytes": point["buffer_footprint_bytes"],
                "is_winner": index == shape["winner_index"],
            })
    return rows


def search_stats_rows_from_records(records: Sequence[ScenarioRecord],
                                   ) -> List[Dict[str, object]]:
    """Per-architecture engine statistics of :func:`tables_scenarios` cells.

    One row per record: unique layers, scored and pruned candidates and
    the evaluation-cache hit rate.  ``workers`` and ``elapsed_s`` are run
    metadata and deliberately absent, so the rows are deterministic.
    """
    rows = []
    for record in records:
        search = record.search
        lookups = search["cache_hits"] + search["cache_misses"]
        rows.append({
            "arch": record.arch,
            "unique_layers": search["layers_unique"],
            "evaluations": search["evaluations"],
            "pruned": search["pruned"],
            "cache_hit_rate": (search["cache_hits"] / lookups
                               if lookups else 0.0),
        })
    return rows
