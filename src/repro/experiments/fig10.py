"""Fig. 10 — FEATHER vs a rigid systolic array on skewed GEMMs.

Four GEMM workloads (A regular, B reduction-free, C mixed, D reduction-heavy)
run on (a) an output/weight-stationary systolic array with its single fixed
mapping and (b) FEATHER, whose BIRRD allows cross-column spatial reduction and
per-column independent mappings.  The paper's takeaway: FEATHER sustains near
full utilization on the skewed shapes where the systolic array collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.api import SearchRequest, Session
from repro.api.codec import arch_payload, workload_payload
from repro.baselines.systolic import SystolicArray
from repro.layoutloop.arch import feather_arch
from repro.workloads.gemm import GemmSpec, fig10_workloads


@dataclass
class Fig10Row:
    """Utilization of both designs on one workload."""

    workload: str
    m: int
    k: int
    n: int
    systolic_utilization: float
    feather_utilization: float

    @property
    def feather_advantage(self) -> float:
        if self.systolic_utilization <= 0:
            return float("inf")
        return self.feather_utilization / self.systolic_utilization


def run(array_rows: int = 4, array_cols: int = 4, max_mappings: int = 200,
        seed: int = 0) -> List[Fig10Row]:
    """Evaluate the four Fig. 10 workloads on a small array (4x4 as drawn).

    The FEATHER side runs through the :mod:`repro.api` façade: one
    :class:`~repro.api.SearchRequest` per GEMM on a shared
    :class:`~repro.api.Session`, whose evaluation cache is shared across
    the four searches (bit-identical to separate searches).
    """
    systolic = SystolicArray(array_rows, array_cols, name="systolic")
    arch = arch_payload(feather_arch(array_rows, array_cols))

    rows = []
    with Session(name="fig10") as session:
        for gemm in fig10_workloads():
            sa_util = systolic.steady_state_utilization_gemm(gemm)
            response = session.run(SearchRequest(
                workloads=(workload_payload(gemm),), arch=arch,
                model=gemm.name, metric="latency",
                max_mappings=max_mappings, seed=seed))
            feather_report = response.cost.layer_choices[0].result.best_report
            rows.append(Fig10Row(
                workload=gemm.name,
                m=gemm.m, k=gemm.k, n=gemm.n,
                systolic_utilization=sa_util,
                feather_utilization=feather_report.practical_utilization,
            ))
    return rows


def summary(rows: List[Fig10Row]) -> Dict[str, float]:
    """Aggregate comparison: average utilization of each design."""
    return {
        "systolic_avg_utilization": sum(r.systolic_utilization for r in rows) / len(rows),
        "feather_avg_utilization": sum(r.feather_utilization for r in rows) / len(rows),
    }
