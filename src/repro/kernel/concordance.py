"""Batched concordance analysis: all cycles x all candidate layouts at once.

:func:`analyze_concordance_batch` is the vectorized counterpart of
:func:`repro.layout.concordance.analyze_concordance`.  Instead of walking one
coordinate dict at a time it:

1. addresses the whole ``(cycles, lanes, ndims)`` footprint through every
   candidate layout's :class:`~repro.kernel.compiled.CompiledLayout` in one
   numpy expression (a ``(layouts, cycles, lanes)`` line tensor),
2. deduplicates lines per (layout, cycle) and counts lines per bank with
   ``np.unique``/``np.bincount``,
3. applies the per-bank slowdown rule vectorized over every bank of every
   cycle of every layout.

The returned :class:`~repro.layout.concordance.ConcordanceReport` objects are
**bit-identical** to the scalar ones (same integer dedup, same IEEE-754
divisions, per-cycle sums accumulated in the same order); the per-cycle
``trace`` is the one scalar-only feature — callers that need ``keep_trace``
run the scalar oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernel.compiled import compile_layout
from repro.layout.concordance import ConcordanceReport
from repro.layout.layout import Layout
from repro.layout.patterns import ReorderPattern, capability


def cycle_slowdowns(counts: np.ndarray, ports: int,
                    pattern: ReorderPattern = ReorderPattern.NONE) -> np.ndarray:
    """Vector form of :func:`repro.layout.concordance.cycle_slowdown`.

    ``counts`` is an integer array of lines-per-bank values; the result is a
    float64 array of per-bank slowdowns, element-wise identical to the
    scalar rule (same divisions, same branch structure).
    """
    counts = np.asarray(counts)
    cap = capability(pattern)
    if cap.cross_line_permute:
        return np.ones(counts.shape, dtype=np.float64)
    effective_ports = ports + cap.extra_bandwidth_ports
    slow = np.maximum(counts / effective_ports, 1.0)
    if cap.transpose:
        limit = cap.max_rows_per_bank * effective_ports
        transposed = np.where(counts <= limit, 1.0, counts / limit)
        slow = np.where(counts > effective_ports, transposed, slow)
    return slow


def analyze_concordance_batch(
    per_cycle_coords: np.ndarray,
    dim_names: Sequence[str],
    layouts: Sequence[Layout],
    dims: Dict[str, int],
    *,
    ports_per_bank: int = 2,
    lines_per_bank: int = 1,
    num_banks: Optional[int] = None,
    pattern: ReorderPattern = ReorderPattern.NONE,
) -> List[ConcordanceReport]:
    """Analyse one access footprint against many layouts in one shot.

    ``per_cycle_coords`` — int array of shape ``(cycles, lanes, ndims)`` with
    coordinate columns aligned to ``dim_names`` (see
    :mod:`repro.kernel.footprint`).  Returns one report per layout, in input
    order, each equal (``==``) to what the scalar
    :func:`~repro.layout.concordance.analyze_concordance` produces for the
    same footprint with ``keep_trace=False``.
    """
    coords = np.asarray(per_cycle_coords, dtype=np.int64)
    if coords.ndim != 3:
        raise ValueError(
            f"expected (cycles, lanes, ndims) coordinates, got shape {coords.shape}")
    cycles, lanes, _ = coords.shape
    num_layouts = len(layouts)
    if num_layouts == 0:
        return []
    if cycles == 0 or lanes == 0:
        # No accesses: every cycle is conflict-free, matching the scalar loop
        # (which averages a run of 1.0 slowdowns, or defaults to 1.0 when
        # there are no cycles at all).
        return [ConcordanceReport(layout_name=layout.name, cycles=cycles,
                                  conflict_cycles=0, avg_lines_per_cycle=0.0,
                                  worst_slowdown=1.0, avg_slowdown=1.0)
                for layout in layouts]

    names = tuple(dim_names)
    vectors = [compile_layout(layout, dims).vectors(names)
               for layout in layouts]
    line_div = np.stack([v[0] for v in vectors])
    line_stride = np.stack([v[1] for v in vectors])
    # (layouts, cycles, lanes) line indices in one integer expression.
    lines = ((coords[None, :, :, :] // line_div[:, None, None, :])
             * line_stride[:, None, None, :]).sum(axis=-1)

    groups = num_layouts * cycles
    # Distinct lines per (layout, cycle): fold the (layout, cycle) pair and
    # the line index into one key and unique it.  Negative coordinates are
    # legal scalar-path inputs and floor-divide to negative lines; the
    # keying shifts them non-negative (a bijection per group) and shifts
    # back before the bank computation, which needs the true line value.
    line_min = min(0, int(lines.min()))
    line_span = int(lines.max()) - line_min + 1
    group_idx = np.arange(groups, dtype=np.int64).reshape(
        num_layouts, cycles, 1)
    uniq = np.unique(group_idx * line_span + (lines - line_min))
    uniq_group = uniq // line_span
    uniq_line = uniq % line_span + line_min

    # Lines per bank per (layout, cycle), then the slowdown rule per bank.
    bank = uniq_line // max(1, lines_per_bank)
    if num_banks:
        bank %= num_banks
    bank -= min(0, int(bank.min()))
    bank_span = int(bank.max()) + 1
    bank_keys, bank_counts = np.unique(uniq_group * bank_span + bank,
                                       return_counts=True)
    bank_slow = cycle_slowdowns(bank_counts, ports_per_bank, pattern)

    # Per-(layout, cycle) slowdown = max over the cycle's banks, floor 1.
    group_slow = np.ones(groups, dtype=np.float64)
    np.maximum.at(group_slow, bank_keys // bank_span, bank_slow)
    group_lines = np.bincount(uniq_group, minlength=groups)

    reports: List[ConcordanceReport] = []
    for idx, layout in enumerate(layouts):
        slowdowns = group_slow[idx * cycles:(idx + 1) * cycles].tolist()
        # Accumulate in cycle order with plain float adds so the averages are
        # bit-identical to the scalar loop's sequential accumulation.
        total_slowdown = 0.0
        conflict_cycles = 0
        worst = 1.0
        for value in slowdowns:
            if value > 1.0:
                conflict_cycles += 1
            total_slowdown += value
            if value > worst:
                worst = value
        total_lines = int(group_lines[idx * cycles:(idx + 1) * cycles].sum())
        reports.append(ConcordanceReport(
            layout_name=layout.name,
            cycles=cycles,
            conflict_cycles=conflict_cycles,
            avg_lines_per_cycle=total_lines / cycles,
            worst_slowdown=worst,
            avg_slowdown=total_slowdown / cycles,
        ))
    return reports
