"""Concordance analysis: does a (dataflow, layout) pair cause bank conflicts?

The paper calls a (dataflow, layout) pair *concordant* when the data a
dataflow needs every cycle can be read without exceeding the per-bank port
budget, and *discordant* otherwise (§II-C).  The analysis here takes the
per-cycle access footprint a mapping generates (a list of logical tensor
coordinates per cycle), maps each coordinate through a :class:`~repro.layout.Layout`,
groups the touched lines into banks, and reports the slowdown
``max(lines_per_bank / ports, 1)`` from §V-B.

This scalar analysis serves the functional simulator, which measures
conflicts on its own access stream, and the Fig. 4 tables, which need
per-cycle traces (``keep_trace``); the cost model prices cells through the vectorized, bit-identical
:func:`repro.kernel.concordance.analyze_concordance_batch` instead, and
``tests/test_kernel_equivalence.py`` property-tests the two against each
other (the tests' scalar cost model, ``tests/reference.py``, is built on
this one).  Keep behaviour changes mirrored in both.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.layout.layout import Layout
from repro.layout.patterns import ReorderPattern, capability


@dataclass(frozen=True)
class AccessTraceEntry:
    """The buffer activity of one cycle."""

    cycle: int
    lines: Tuple[int, ...]
    banks_touched: Dict[int, int]
    slowdown: float

    @property
    def num_lines(self) -> int:
        return len(self.lines)


@dataclass
class ConcordanceReport:
    """Result of analysing a (dataflow, layout) pair over an access trace."""

    layout_name: str
    cycles: int
    conflict_cycles: int
    avg_lines_per_cycle: float
    worst_slowdown: float
    avg_slowdown: float
    trace: List[AccessTraceEntry] = field(default_factory=list, repr=False)

    @property
    def concordant(self) -> bool:
        """True when no cycle stalls on a bank conflict."""
        return self.conflict_cycles == 0

    def effective_utilization(self, theoretical_utilization: float) -> float:
        """Practical compute utilization (paper Fig. 4 tables)."""
        if self.avg_slowdown <= 0:
            return theoretical_utilization
        return theoretical_utilization / self.avg_slowdown


def _bank_of_line(line: int, lines_per_bank: int) -> int:
    """Lines are striped across banks in contiguous blocks of ``lines_per_bank``."""
    return line // max(1, lines_per_bank)


def lines_touched(coords: Iterable[Dict[str, int]], layout: Layout,
                  dims: Dict[str, int]) -> List[int]:
    """Distinct buffer lines touched by a set of concurrent accesses."""
    touched = set()
    for coord in coords:
        line, _offset = layout.address(coord, dims)
        touched.add(line)
    return sorted(touched)


def cycle_slowdown(num_lines_in_bank: int, ports: int,
                   pattern: ReorderPattern = ReorderPattern.NONE) -> float:
    """Slowdown contributed by one bank in one cycle (paper §V-B).

    Reordering patterns that can eliminate the conflict reduce the slowdown
    to 1; line rotation can serve one extra row by borrowing a port.
    """
    cap = capability(pattern)
    if cap.cross_line_permute:
        return 1.0
    effective_ports = ports + cap.extra_bandwidth_ports
    if cap.transpose and num_lines_in_bank > effective_ports:
        # A transposed read turns a column access into a row access, which at
        # best collapses the request to a single line.
        return 1.0 if num_lines_in_bank <= cap.max_rows_per_bank * effective_ports else (
            num_lines_in_bank / (cap.max_rows_per_bank * effective_ports))
    return max(num_lines_in_bank / effective_ports, 1.0)


def analyze_concordance(
    per_cycle_coords: Sequence[Iterable[Dict[str, int]]],
    layout: Layout,
    dims: Dict[str, int],
    *,
    ports_per_bank: int = 2,
    lines_per_bank: int = 1,
    num_banks: Optional[int] = None,
    pattern: ReorderPattern = ReorderPattern.NONE,
    keep_trace: bool = False,
) -> ConcordanceReport:
    """Analyse a per-cycle access trace against a layout.

    ``per_cycle_coords`` — one entry per cycle, each an iterable of logical
    coordinates (dicts of dimension name to index) read that cycle.

    ``lines_per_bank`` is the paper's ``conflict_depth``: number of lines a
    physical bank holds.  ``num_banks`` wraps line-to-bank assignment (banks
    repeat modulo ``num_banks``) when given.
    """
    entries: List[AccessTraceEntry] = []
    conflict_cycles = 0
    total_lines = 0
    total_slowdown = 0.0
    worst = 1.0

    for cycle, coords in enumerate(per_cycle_coords):
        lines = lines_touched(coords, layout, dims)
        per_bank: Dict[int, int] = defaultdict(int)
        for line in lines:
            bank = _bank_of_line(line, lines_per_bank)
            if num_banks:
                bank %= num_banks
            per_bank[bank] += 1
        slowdown = 1.0
        for count in per_bank.values():
            slowdown = max(slowdown, cycle_slowdown(count, ports_per_bank, pattern))
        if slowdown > 1.0:
            conflict_cycles += 1
        total_lines += len(lines)
        total_slowdown += slowdown
        worst = max(worst, slowdown)
        if keep_trace:
            entries.append(AccessTraceEntry(cycle, tuple(lines), dict(per_bank), slowdown))

    cycles = len(per_cycle_coords)
    return ConcordanceReport(
        layout_name=layout.name,
        cycles=cycles,
        conflict_cycles=conflict_cycles,
        avg_lines_per_cycle=(total_lines / cycles) if cycles else 0.0,
        worst_slowdown=worst,
        avg_slowdown=(total_slowdown / cycles) if cycles else 1.0,
        trace=entries,
    )


def required_parallel_coords(parallel_dims: Dict[str, int],
                             base: Optional[Dict[str, int]] = None) -> List[Dict[str, int]]:
    """Expand a parallelism spec into the set of coordinates read in one cycle.

    ``parallel_dims`` maps dimension name to the number of concurrent indices
    along that dimension (e.g. ``{"C": 4}`` for channel-parallel-by-4).  The
    cross product of all parallel dimensions is returned, offset by ``base``.
    """
    base = dict(base or {})
    coords = [dict(base)]
    for dim, count in parallel_dims.items():
        expanded = []
        for coord in coords:
            for idx in range(count):
                new = dict(coord)
                new[dim] = base.get(dim, 0) + idx
                expanded.append(new)
        coords = expanded
    return coords


def sliding_window_coords(base: Dict[str, int], window_positions: int, stride: int,
                          dim: str = "W") -> List[Dict[str, int]]:
    """Coordinates read when parallelising over sliding-window positions.

    Used for the paper's dataflow D2 in Fig. 4, where four output positions
    along W are computed concurrently so the reads step by ``stride``.
    """
    coords = []
    for i in range(window_positions):
        coord = dict(base)
        coord[dim] = base.get(dim, 0) + i * stride
        coords.append(coord)
    return coords
