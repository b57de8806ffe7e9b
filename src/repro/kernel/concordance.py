"""Batched concordance analysis: all cycles x all candidate layouts at once.

:func:`analyze_concordance_batch` is the vectorized counterpart of
:func:`repro.layout.concordance.analyze_concordance`.  Instead of walking one
coordinate dict at a time it:

1. addresses the whole ``(cycles, lanes, ndims)`` footprint through every
   candidate layout's :class:`~repro.kernel.compiled.CompiledLayout` in one
   numpy expression (a ``(layouts, cycles, lanes)`` line tensor),
2. finds each (layout, cycle)'s distinct lines by sorting the tensor along
   lanes and marking the first of every run of equal lines,
3. counts lines per bank with one ``np.bincount`` over the ``(group,
   bank)`` keys of those distinct lines (a group is one (layout, cycle);
   banks that would not fit in ``lanes`` columns are numbered by rank
   within their group, so the count matrix is at most ``lanes`` wide),
4. applies the per-bank slowdown rule to the whole ``(groups, banks)``
   count matrix and takes the worst used bank of every group.

The returned :class:`~repro.layout.concordance.ConcordanceReport` objects are
**bit-identical** to the scalar ones (same integer dedup, same IEEE-754
divisions, per-cycle sums accumulated in the same order); the per-cycle
``trace`` is the one scalar-only feature — callers that need ``keep_trace``
run the scalar oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
    # (layouts, cycles, lanes) line indices: every column's tile indices
    # times their strides, as (ndims, layouts, cycles, lanes) terms summed
    # over the leading axis.
    columns = np.ascontiguousarray(coords.transpose(2, 0, 1))[:, None]
    terms = columns // line_div.T[:, :, None, None]
    terms *= line_stride.T[:, :, None, None]
    lines = terms.sum(axis=0)

    # Distinct lines per (layout, cycle): sort each cycle's lanes and keep
    # the first of every run of equal lines.
    lines.sort(axis=-1)
    first = np.empty(lines.shape, dtype=bool)
    first[..., 0] = True
    np.not_equal(lines[..., 1:], lines[..., :-1], out=first[..., 1:])

    line_totals = first.reshape(num_layouts, -1).sum(axis=1).tolist()

    # Lines per bank: one bincount over the (group, bank) keys of the
    # distinct lines, a (groups, span) count matrix.  Only the partition
    # of lines into banks matters, not the bank numbers, and a cycle
    # touches at most ``lanes`` banks, so the matrix is never more than
    # ``lanes`` columns wide.
    bank = lines // max(1, lines_per_bank)
    span = abs(num_banks) if num_banks else 0
    if span:
        # ``x % n`` and ``x % -n`` partition the lines alike.
        bank %= span
    if not span or span > lanes:
        if span:
            # Wrapping unsorted the banks: sort the distinct lines' banks,
            # the other lanes (marked ``span``) after them.
            bank = np.where(first, bank, span)
            bank.sort(axis=-1)
            first = bank < span
        # The banks are sorted along lanes but may lie far apart: number
        # each cycle's banks 0, 1, ... by rank.
        new_bank = np.empty(bank.shape, dtype=bool)
        new_bank[..., 0] = False
        np.not_equal(bank[..., 1:], bank[..., :-1], out=new_bank[..., 1:])
        bank = new_bank.cumsum(axis=-1)
        span = lanes
    groups = num_layouts * cycles
    bank += np.arange(0, groups * span, span).reshape(num_layouts, cycles, 1)
    counts = np.bincount(bank[first], minlength=groups * span).reshape(
        groups, span)

    # The slowdown rule on the whole count matrix, then the worst used
    # bank per (layout, cycle) with the scalar rule's floor of 1.0.
    slow = cycle_slowdowns(counts, ports_per_bank, pattern)
    group_slow = np.where(counts > 0, slow, 1.0).max(axis=1, initial=1.0)
    slow_rows = group_slow.reshape(num_layouts, cycles).tolist()

    reports: List[ConcordanceReport] = []
    for layout, slowdowns, total_lines in zip(layouts, slow_rows,
                                              line_totals):
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
        reports.append(ConcordanceReport(
            layout_name=layout.name,
            cycles=cycles,
            conflict_cycles=conflict_cycles,
            avg_lines_per_cycle=total_lines / cycles,
            worst_slowdown=worst,
            avg_slowdown=total_slowdown / cycles,
        ))
    return reports
