"""Layoutloop cost model: latency + energy of a (workload, mapping, layout) triple.

This is the Timeloop-style analytical model the paper extends (§V).  For a
given architecture it computes:

* compute cycles and spatial utilization from the mapping (padded per-dimension
  trip counts, exactly as a loop-nest model would),
* the bank-conflict *slowdown* from reading the streaming tensor under the
  given layout through the architecture's physical buffer geometry
  (``max(lines_accessed / ports, 1)`` per §V-B), moderated by whatever on-chip
  reordering pattern the architecture has,
* the latency and energy cost of the architecture's reordering implementation
  (off-chip DRAM round trip, on-chip reorder-after-reduction, or FEATHER's
  free reorder-in-reduction),
* an energy breakdown over MACs, registers, on-chip buffer, NoC and DRAM.

The absolute pJ values come from a calibrated table; all experiments report
results normalized to FEATHER, which is how the paper presents Fig. 13.

One code path prices a cell: :meth:`CostModel.evaluate_mapping_batch`
scores one mapping under a list of layouts, with the slowdowns taken from
the batched concordance kernel (:mod:`repro.kernel`).  The single-cell
:meth:`CostModel.evaluate` is a one-layout batch.  The search prices its
candidates as plain values instead: :meth:`CostModel.evaluate_values`
shares the batch's mapping-level terms and its one kernel call but
returns ``(total_cycles, total_energy_pj, slowdown)`` per layout, with
exactly the report's float operations, and :meth:`CostModel.report`
rebuilds a winner's full report from its slowdown.  On a
:attr:`CostModel.slowdown_free` architecture (RIR or cross-line permute)
every layout prices at slowdown 1.0, so the exhaustive scan prices its
whole candidate universe at once: :meth:`CostModel.columnar_values`
computes what :meth:`CostModel.evaluate_values` returns for each entry,
as numpy columns with the same float operations.  Single cells keep the
scalar :meth:`CostModel._energy_breakdown_parts` (a one-row numpy pass
costs several times as much).  The scalar model the kernel replaced
(coordinate dicts through
:func:`repro.layout.concordance.analyze_concordance`) is kept only as the
tests' reference oracle.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dataflow.mapping import Mapping
from repro.kernel.concordance import analyze_concordance_batch
from repro.kernel.footprint import streaming_access_coords
from repro.layout.layout import Layout
from repro.layout.patterns import ReorderImplementation, capability
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.energy import DEFAULT_ENERGY_TABLE
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec


def energy_total(terms):
    """The total of energy terms (floats, or numpy columns that total many
    rows at once), added left to right.

    Every energy total of the model, and every float total of a
    :class:`~repro.layoutloop.cosearch.ModelCost`, is this fold, so it has
    the same bits on every interpreter (the builtin ``sum`` compensates
    its rounding from CPython 3.12 on).  The bound's energy floor
    (:func:`repro.search.bounds.bound_statics`) adds a lower bound of each
    term in the same order, so it never exceeds a total: rounding is
    monotone, so each partial sum of the floor stays at or below the
    total's.
    """
    return functools.reduce(operator.add, terms, 0)


@dataclass(frozen=True)
class CostReport:
    """Latency/energy estimate for one (workload, mapping, layout) on one arch.

    Reports are immutable and may be shared (a search's winner report is
    memoized with its whole result), so treat ``energy_breakdown_pj`` as
    read-only too (build a modified copy with ``dataclasses.replace`` and
    a fresh dict for what-if studies).
    """

    workload: str
    """Name of the evaluated workload."""
    arch: str
    """Name of the architecture."""
    mapping: str
    """Name of the evaluated mapping (dataflow)."""
    layout: str
    """Name of the evaluated streaming-tensor layout."""
    macs: int
    """Multiply-accumulate operations the layer performs (count)."""
    compute_cycles: float
    """Ideal compute latency of the mapping (cycles), before stalls."""
    slowdown: float
    """Average bank-conflict slowdown factor (dimensionless, >= 1)."""
    stall_cycles: float
    """Cycles lost to bank-conflict stalls."""
    reorder_cycles_exposed: float
    """Cycles the layout-reordering mechanism adds on the critical path."""
    total_cycles: float
    """End-to-end latency (cycles): compute + stalls + exposed reorder."""
    utilization: float
    """Steady-state MAC utilization of the array (fraction, 0..1)."""
    practical_utilization: float
    """Utilization including stall and reorder cycles (fraction, 0..1)."""
    energy_breakdown_pj: Dict[str, float] = field(default_factory=dict)
    """Energy per component (pJ): mac, register, buffer, noc, dram, reorder."""

    @property
    def total_energy_pj(self) -> float:
        """Total energy over all components (pJ), :func:`energy_total`."""
        return energy_total(self.energy_breakdown_pj.values())

    @property
    def energy_per_mac_pj(self) -> float:
        """Energy per MAC (pJ/MAC).

        A zero-MAC report with nonzero energy returns ``inf`` (the division
        is genuinely undefined) rather than a silent 0.0 that would rank it
        as free; 0 MACs and 0 pJ return 0.0.
        """
        if self.macs:
            return self.total_energy_pj / self.macs
        return math.inf if self.total_energy_pj > 0 else 0.0

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ * cycles)."""
        return self.total_energy_pj * self.total_cycles

    def latency_seconds(self, frequency_mhz: float) -> float:
        """Wall-clock latency (seconds) at the given clock (MHz)."""
        return self.total_cycles / (frequency_mhz * 1e6)


#: Base coordinates of the sampled access cycles (one per cycle): the
#: streaming-tensor footprint is expanded from each by the mapping's
#: parallel dims (:func:`repro.kernel.footprint.streaming_access_coords`).
_SAMPLE_BASES = ((0, 0, 0), (1, 1, 1), (2, 5, 3), (0, 3, 6))


def _workload_name(workload) -> str:
    """The workload's display name (``getattr`` with a lazy str fallback)."""
    try:
        return workload.name
    except AttributeError:
        return str(workload)


def streaming_tensor_dims(workload) -> Dict[str, int]:
    """Extents of the streaming (layout-bearing) tensor's dimensions."""
    if isinstance(workload, ConvLayerSpec):
        return {"C": workload.c, "H": workload.h, "W": workload.w}
    if isinstance(workload, GemmSpec):
        return {"M": workload.m, "K": workload.k}
    raise TypeError(f"unsupported workload {type(workload)!r}")


class CostModel:
    """Analytical latency/energy model with layout awareness.

    :meth:`evaluate_mapping_batch` is the one code path that prices a cell;
    :meth:`evaluate` is its single-cell entry point, and
    :meth:`evaluate_values` its report-free twin for the search.  On a
    :attr:`slowdown_free` architecture :meth:`columnar_values` prices a
    whole candidate universe with the same float operations.
    """

    #: The per-action energies every cost model prices with.
    energy = DEFAULT_ENERGY_TABLE

    def __init__(self, arch: ArchSpec):
        self.arch = arch

    @property
    def slowdown_free(self) -> bool:
        """Whether no layout ever stalls on a bank conflict, so every layout
        prices at slowdown 1.0: reorder-in-reduction (RIR) designs, and
        designs whose reorder pattern permutes across lines (arbitrary
        reorder), for which the kernel's rule makes every bank's slowdown
        1.0."""
        return (self.arch.reorder_implementation is ReorderImplementation.RIR
                or capability(self.arch.reorder_pattern).cross_line_permute)

    # ----------------------------------------------------------------- public
    def evaluate(self, workload, mapping: Mapping, layout: Layout) -> CostReport:
        """Full latency/energy report of one (workload, mapping, layout):
        a one-layout :meth:`evaluate_mapping_batch`."""
        return self.evaluate_mapping_batch(workload, mapping, [layout])[0]

    def evaluate_mapping_batch(self, workload, mapping: Mapping,
                               layouts: Sequence[Layout]) -> List[CostReport]:
        """Reports of one mapping under every candidate layout, vectorized.

        Everything layout-independent (compute cycles, reorder costs, the
        energy breakdown apart from the slowdown-scaled buffer reads) is
        computed once; the per-layout slowdowns come from the batched
        concordance kernel.  The tests' scalar oracle
        (``tests/reference.py``) reproduces every report bit for bit.
        """
        layouts = list(layouts)
        compute_cycles, reorder, parts, slowdowns = self._mapping_terms(
            workload, mapping, layouts)
        workload_name = _workload_name(workload)
        return [self._assemble_report(workload, mapping, layout, slowdown,
                                      compute_cycles, reorder, parts,
                                      workload_name=workload_name)
                for layout, slowdown in zip(layouts, slowdowns)]

    def evaluate_values(self, workload, mapping: Mapping,
                        layouts: Sequence[Layout],
                        compute_cycles: Optional[int] = None
                        ) -> List[Tuple[float, float, float]]:
        """``(total_cycles, total_energy_pj, slowdown)`` of one mapping under
        every layout, without building a report.

        The same mapping-level terms and kernel call as
        :meth:`evaluate_mapping_batch`, and the same float operations as
        :meth:`_assemble_report` and :class:`CostReport`: the stall and
        total cycles in the report's order, and the energy as
        :func:`energy_total` over the breakdown's values in insertion order
        (slowdown-scaled buffer reads, the reorder energy last and only
        when nonzero), so every value equals the report's bit for bit.
        ``compute_cycles`` may pass the mapping's already known exact
        compute cycles (the search has them from its bounds).  Layouts with
        equal slowdowns share one entry.
        """
        compute_cycles, (reorder_exposed, reorder_energy), parts, slowdowns = \
            self._mapping_terms(workload, mapping, layouts, compute_cycles)
        terms = list(parts.values())
        if reorder_energy:
            terms.append(reorder_energy)
        read_at = list(parts).index("buffer_read")
        buffer_read = parts["buffer_read"]
        by_slowdown: Dict[float, Tuple[float, float, float]] = {}
        out = []
        for slowdown in slowdowns:
            entry = by_slowdown.get(slowdown)
            if entry is None:
                stall_cycles = compute_cycles * (slowdown - 1.0)
                terms[read_at] = buffer_read * slowdown
                entry = by_slowdown[slowdown] = (
                    compute_cycles + stall_cycles + reorder_exposed,
                    energy_total(terms), slowdown)
            out.append(entry)
        return out

    def columnar_values(self, workload, compute_cycles: np.ndarray,
                        columns=None
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(total_cycles, total_energy_pj)`` columns of many mappings of a
        :attr:`slowdown_free` architecture: row ``i`` is what
        :meth:`evaluate_values` returns for every layout of mapping ``i``
        (whose exact compute cycles are ``compute_cycles[i]``), bit for bit.

        The cycles take the scalar operations at slowdown 1.0 (compute
        cycles, plus the zero stall, plus the exposed reorder cycles); the
        energy is :func:`energy_total` of the breakdown terms in insertion
        order, the reorder energy last and only when nonzero.  ``columns``
        (the rows' :class:`~repro.search.bulk.MappingColumns`) is read for
        the energy only; without it the energy is ``None``.
        """
        reorder_exposed, reorder_energy = self.reorder_costs(workload)
        total_cycles = compute_cycles.astype(np.float64) + 0.0 + reorder_exposed
        if columns is None:
            return total_cycles, None
        terms = list(self._energy_breakdown_columns(workload, columns).values())
        if reorder_energy:
            terms.append(reorder_energy)
        return total_cycles, energy_total(terms)

    def report(self, workload, mapping: Mapping, layout: Layout,
               slowdown: float, compute_cycles: Optional[int] = None
               ) -> CostReport:
        """The full report of one cell whose slowdown is already known (a
        search winner's, from its :meth:`evaluate_values` entry): no
        kernel call, bit-identical to :meth:`evaluate`."""
        if compute_cycles is None:
            compute_cycles = mapping.compute_cycles(workload)
        return self._assemble_report(
            workload, mapping, layout, slowdown, compute_cycles,
            self.reorder_costs(workload),
            self._energy_breakdown_parts(workload, mapping))

    def _mapping_terms(self, workload, mapping: Mapping,
                       layouts: Sequence[Layout],
                       compute_cycles: Optional[int] = None) -> Tuple:
        """``(compute_cycles, reorder costs, energy breakdown parts,
        per-layout slowdowns)``: everything a batch shares, and its one
        kernel call."""
        if compute_cycles is None:
            compute_cycles = mapping.compute_cycles(workload)
        return (compute_cycles, self.reorder_costs(workload),
                self._energy_breakdown_parts(workload, mapping),
                self.estimate_slowdown_batch(workload, mapping, layouts))

    def _assemble_report(self, workload, mapping: Mapping, layout: Layout,
                         slowdown: float, compute_cycles: float,
                         reorder: Tuple[float, float],
                         breakdown_parts: Dict[str, float],
                         workload_name: Optional[str] = None) -> CostReport:
        """Build one report from precomputed mapping-level quantities."""
        macs = workload.macs
        utilization = macs / (compute_cycles * self.arch.num_pes) if compute_cycles else 0.0
        stall_cycles = compute_cycles * (slowdown - 1.0)
        reorder_exposed, reorder_energy = reorder
        total_cycles = compute_cycles + stall_cycles + reorder_exposed
        practical_utilization = macs / (total_cycles * self.arch.num_pes) if total_cycles else 0.0

        breakdown = dict(breakdown_parts)
        breakdown["buffer_read"] = breakdown["buffer_read"] * slowdown
        if reorder_energy:
            breakdown["reorder"] = breakdown.get("reorder", 0.0) + reorder_energy

        if workload_name is None:
            workload_name = _workload_name(workload)
        return CostReport(
            workload=workload_name,
            arch=self.arch.name,
            mapping=mapping.name,
            layout=layout.name,
            macs=macs,
            compute_cycles=compute_cycles,
            slowdown=slowdown,
            stall_cycles=stall_cycles,
            reorder_cycles_exposed=reorder_exposed,
            total_cycles=total_cycles,
            utilization=utilization,
            practical_utilization=practical_utilization,
            energy_breakdown_pj=breakdown,
        )

    # -------------------------------------------------------------- slowdown
    def estimate_slowdown_batch(self, workload, mapping: Mapping,
                                layouts: Sequence[Layout]) -> List[float]:
        """Per-layout slowdowns of one mapping via the vectorized kernel.

        The access footprint is generated once as a ``(cycles, lanes, ndims)``
        array (:mod:`repro.kernel.footprint`) and every layout is addressed
        through the layout set's stacked stride matrices in one batched
        concordance pass.  Architectures that never stall on a bank
        conflict (:attr:`slowdown_free`) skip both: every average is
        exactly 1.0.
        """
        if self.slowdown_free:
            return [1.0] * len(layouts)
        dims = streaming_tensor_dims(workload)
        coords, dim_names = streaming_access_coords(workload, mapping,
                                                    _SAMPLE_BASES)
        reports = analyze_concordance_batch(
            coords, dim_names, layouts, dims,
            ports_per_bank=self.arch.buffer.ports_per_bank,
            lines_per_bank=self.arch.buffer.conflict_depth,
            num_banks=self.arch.buffer.banks,
            pattern=self.arch.reorder_pattern,
        )
        return [report.avg_slowdown for report in reports]

    # --------------------------------------------------------- reorder costs
    def reorder_costs(self, workload) -> Tuple[float, float]:
        """(exposed latency cycles, energy pJ) of the layout-reordering mechanism.

        Depends only on the workload and the architecture — not on the
        mapping or layout — which is what lets :mod:`repro.search.bounds`
        fold the exact reorder cost into its admissible pruning bound.
        """
        impl = self.arch.reorder_implementation
        oact_elems = self._oact_elems(workload)
        oact_bytes = oact_elems * self.arch.mac_bits // 8
        table = self.energy

        if impl is ReorderImplementation.NONE:
            return 0.0, 0.0
        if impl is ReorderImplementation.OFF_CHIP:
            # oActs go to DRAM, are reordered there by the CPU, and come back
            # as the next layer's iActs (Fig. 6a): two extra DRAM transfers
            # plus the CPU-side shuffle, all on the inter-layer critical path.
            transfer_cycles = 2.0 * oact_bytes / max(1e-9, self.arch.offchip_bytes_per_cycle)
            cpu_cycles = oact_elems / 8.0  # host reorders ~8 words per accelerator cycle
            exposed = transfer_cycles + cpu_cycles
            energy = 2.0 * oact_bytes * table.dram_access_per_byte_pj
            return exposed, energy
        if impl is ReorderImplementation.RAR:
            # oActs are read from the buffer, pass through a reorder unit and
            # are written back before the next layer can consume them.
            line_size = max(1, self.arch.buffer.line_size)
            reorder_cycles = 2.0 * oact_elems / (line_size * self.arch.buffer.ports_per_bank)
            energy = oact_elems * (table.reorder_unit_per_word_pj
                                   + table.buffer_read_per_word_pj
                                   + table.buffer_write_per_word_pj)
            return reorder_cycles, energy
        if impl is ReorderImplementation.RIR:
            # Reordering rides along the reduction: no exposed latency, only
            # the (small) BIRRD traversal energy.
            return 0.0, oact_elems * table.birrd_per_word_pj
        raise ValueError(f"unknown reorder implementation {impl!r}")

    # ----------------------------------------------------------------- energy
    def _energy_breakdown_parts(self, workload, mapping: Mapping
                                ) -> Dict[str, float]:
        """Layout-independent energy terms (buffer reads before the slowdown
        scaling), computed once per mapping by the batch path."""
        table = self.energy
        macs = workload.macs
        deg = mapping.parallel_dims

        iact_elems, weight_elems, oact_elems = self._tensor_elems(workload)
        bytes_per_elem = self.arch.mac_bits / 8.0

        # Spatial reuse: dimensions whose parallelism does not index the tensor
        # let one buffer read feed several PEs (multicast along the array).
        iact_irrelevant, weight_irrelevant, reduction_extent = \
            self._reuse_dims(workload)

        iact_spatial_reuse = math.prod(deg.get(d, 1) for d in iact_irrelevant)
        weight_spatial_reuse = math.prod(deg.get(d, 1) for d in weight_irrelevant)

        # Temporal (stationary) reuse from the innermost loops that do not
        # index the tensor: bounded to keep the model sane.
        iact_temporal = self._temporal_reuse(workload, mapping, iact_irrelevant)
        weight_temporal = self._temporal_reuse(workload, mapping, weight_irrelevant)

        iact_reads = max(iact_elems, macs / max(1, iact_spatial_reuse * iact_temporal))
        weight_reads = max(weight_elems, macs / max(1, weight_spatial_reuse * weight_temporal))

        # Partial-sum traffic: if the reduction is not completed back-to-back
        # (reduction dims are not innermost), partial sums spill to the buffer.
        spatial_red = max(1, mapping.spatial_reduction_size)
        reduction_steps = math.ceil(reduction_extent / spatial_red)
        reduction_innermost = any(d in mapping.reduction_dims for d in mapping.order[-2:])
        if reduction_innermost or reduction_steps <= 1:
            psum_writes = oact_elems
            psum_reads = 0
        else:
            spill_factor = min(reduction_steps, 8)
            psum_writes = oact_elems * spill_factor
            psum_reads = oact_elems * (spill_factor - 1)

        buffer_reads = iact_reads + weight_reads + psum_reads
        buffer_writes = psum_writes + iact_elems + weight_elems  # fills from DRAM

        dram_bytes = (iact_elems + weight_elems + oact_elems) * bytes_per_elem

        return {
            "mac": macs * table.mac_int8_pj,
            "register": 2.0 * macs * table.register_access_pj,
            "buffer_read": buffer_reads * table.buffer_read_per_word_pj,
            "buffer_write": buffer_writes * table.buffer_write_per_word_pj,
            "noc": (iact_reads + weight_reads + psum_writes) * table.noc_hop_per_word_pj,
            "dram": dram_bytes * table.dram_access_per_byte_pj,
        }

    def _energy_breakdown_columns(self, workload, columns
                                  ) -> Dict[str, Union[np.ndarray, float]]:
        """:meth:`_energy_breakdown_parts` of every row of ``columns`` (a
        :class:`~repro.search.bulk.MappingColumns`): one float64 column per
        term, in the dict's order, each with the scalar term's float
        operations, so every entry equals the scalar term bit for bit.
        The terms no mapping changes (``mac``, ``register``, ``dram``) are
        plain floats, which broadcast as columns."""
        table = self.energy
        macs = workload.macs
        dims = columns.dims
        rows = len(columns.degrees)
        ones = np.ones(rows, dtype=np.int64)

        iact_elems, weight_elems, oact_elems = self._tensor_elems(workload)
        bytes_per_elem = self.arch.mac_bits / 8.0
        iact_irrelevant, weight_irrelevant, reduction_extent = \
            self._reuse_dims(workload)

        def degree(dim: str) -> np.ndarray:
            return columns.degrees[:, dims.index(dim)]

        def temporal_reuse(irrelevant_dims: Sequence[str]) -> np.ndarray:
            # The scalar loop multiplies once per irrelevant inner dim; a
            # factor of 1 elsewhere leaves the float unchanged.
            bounded = {dims.index(dim): np.minimum(64, np.maximum(
                1, self._dim_extent(workload, dim)
                // np.maximum(1, degree(dim))))
                for dim in irrelevant_dims}
            reuse = 1.0
            for inner in columns.inner.T:
                factor = ones
                for position, dim_reuse in bounded.items():
                    factor = np.where(inner == position, dim_reuse, factor)
                reuse = reuse * factor
            return reuse

        iact_reads = np.maximum(iact_elems, macs / np.maximum(
            1, math.prod(degree(d) for d in iact_irrelevant)
            * temporal_reuse(iact_irrelevant)))
        weight_reads = np.maximum(weight_elems, macs / np.maximum(
            1, math.prod(degree(d) for d in weight_irrelevant)
            * temporal_reuse(weight_irrelevant)))

        reduction = sorted(columns.reduction)
        spatial_red = np.maximum(1, math.prod(degree(d) for d in reduction))
        reduction_steps = np.ceil(reduction_extent / spatial_red
                                  ).astype(np.int64)
        in_place = reduction_steps <= 1
        for dim in reduction:
            in_place = in_place | (columns.inner == dims.index(dim)).any(axis=1)
        spill_factor = np.minimum(reduction_steps, 8)
        psum_writes = np.where(in_place, oact_elems, oact_elems * spill_factor)
        psum_reads = np.where(in_place, 0, oact_elems * (spill_factor - 1))

        buffer_reads = iact_reads + weight_reads + psum_reads
        buffer_writes = psum_writes + iact_elems + weight_elems
        dram_bytes = (iact_elems + weight_elems + oact_elems) * bytes_per_elem

        return {
            "mac": macs * table.mac_int8_pj,
            "register": 2.0 * macs * table.register_access_pj,
            "buffer_read": buffer_reads * table.buffer_read_per_word_pj,
            "buffer_write": buffer_writes * table.buffer_write_per_word_pj,
            "noc": (iact_reads + weight_reads + psum_writes)
                   * table.noc_hop_per_word_pj,
            "dram": dram_bytes * table.dram_access_per_byte_pj,
        }

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _reuse_dims(workload) -> Tuple[Tuple[str, ...], Tuple[str, ...], int]:
        """``(iAct-irrelevant dims, weight-irrelevant dims, reduction
        extent)`` of the energy breakdown."""
        if isinstance(workload, ConvLayerSpec):
            return (("M",), ("P", "Q", "N"),
                    (workload.c // workload.groups) * workload.r * workload.s)
        return ("N",), ("M",), workload.k

    @staticmethod
    def _tensor_elems(workload) -> Tuple[int, int, int]:
        if isinstance(workload, ConvLayerSpec):
            return workload.iact_elems, workload.weight_elems, workload.oact_elems
        return workload.input_elems, workload.weight_elems, workload.output_elems

    @staticmethod
    def _oact_elems(workload) -> int:
        if isinstance(workload, ConvLayerSpec):
            return workload.oact_elems
        return workload.output_elems

    def _temporal_reuse(self, workload, mapping: Mapping,
                        irrelevant_dims: Sequence[str]) -> float:
        """Reuse from innermost temporal loops over dims that do not index the tensor."""
        reuse = 1.0
        inner = mapping.order[-2:] if len(mapping.order) >= 2 else mapping.order
        for dim in inner:
            if dim in irrelevant_dims:
                extent = self._dim_extent(workload, dim)
                degree = mapping.parallel_degree(dim)
                reuse *= min(64, max(1, extent // max(1, degree)))
        return reuse

    @staticmethod
    def _dim_extent(workload, dim: str) -> int:
        if isinstance(workload, ConvLayerSpec):
            return workload.dim(dim) if dim in "NMCHWPQRS" else 1
        try:
            return workload.dim(dim)
        except KeyError:
            return 1
