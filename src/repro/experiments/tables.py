"""Tables I, III, IV and V of the paper as structured data.

Tables I and III are qualitative feature comparisons (reproduced directly from
the baseline registry); Table IV is the evaluation setup (reproduced from the
architecture specs); Table V is the post-PnR area/power of FEATHER at several
shapes (paper values next to the analytical model's estimate).

Per-architecture engine statistics of a Fig. 13-style sweep (evaluations,
pruned candidates, cache hit rate) are reproduction tooling rather than a
paper table: run :func:`repro.scenarios.ports.tables_scenarios` and read
them with :func:`repro.scenarios.ports.search_stats_rows_from_records`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List

from repro.area.asic import table_v
from repro.baselines.registry import (
    feature_table,
    fig13_arch_suite,
    reorder_support_table,
)


def table_i() -> List[Dict[str, object]]:
    """Table I: dataflow switching / layout reordering support of prior work."""
    return [asdict(row) for row in feature_table()]


def table_iii() -> List[Dict[str, object]]:
    """Table III: on-chip reordering patterns and implementations."""
    return [asdict(row) for row in reorder_support_table()]


def table_iv() -> List[Dict[str, object]]:
    """Table IV: the Layoutloop evaluation setup, one row per architecture."""
    rows = []
    for arch in fig13_arch_suite():
        rows.append({
            "name": arch.name,
            "pes": arch.num_pes,
            "layout": "flexible" if arch.runtime_layout_flexible else (arch.fixed_layout or "fixed"),
            "dataflow": ("TOPS" if arch.flexible_parallelism and arch.flexible_order
                         and arch.flexible_shape else
                         ("TS" if arch.flexible_shape else "T")),
            "reorder_pattern": arch.reorder_pattern.value,
            "reorder_implementation": arch.reorder_implementation.value,
            "datatype": f"int{arch.mac_bits}",
        })
    return rows


def table_v_rows() -> List[Dict[str, float]]:
    """Table V: FEATHER post-PnR area/power across shapes (paper vs model)."""
    return table_v()

