"""The simulator backend: cycle-accounting FEATHER runs behind the protocol.

Where the analytical backend *estimates* a cell, this backend *executes*
it: the workload's tensors are generated deterministically from a seed,
lowered onto a :class:`~repro.feather.accelerator.FeatherAccelerator`
instance shaped like the cell's architecture, checked against the numpy
reference, and the accelerator's :class:`ExecutionStats` (bank-conflict
read slowdown, oAct write serialization, BIRRD cycles) are mapped into the
common :class:`~repro.backends.base.BackendReport`.

Scope and conventions:

* only FEATHER-like architectures (reorder-in-reduction, power-of-two
  array width) can be simulated — anything else raises immediately;
* timing is data-independent, so the seed affects the functional values
  (which are verified exactly) but never the cycle counts; the seed is
  still embedded in every report so records replay bit-identically;
* the simulator does not model energy.  Each report is the cell's
  analytical companion report with the simulated timing fields replaced,
  so energy columns stay comparable across backends and the
  *cycles/utilization* deltas are the signal;
* cells are bounded by :data:`DEFAULT_MAX_MACS` — the functional NEST is
  a Python-loop model, so simulator sweeps are meant for micro-cells (the
  built-in ``simulator``/``crossval`` scenarios), not for full ResNet
  layers.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np

from repro.backends.base import BackendReport, EvaluationBackend, report_from_cost
from repro.errors import IncompatibleCellError
from repro.feather.accelerator import (
    ExecutionStats,
    FeatherAccelerator,
    reference_conv,
)
from repro.feather.config import FeatherConfig
from repro.layout.patterns import ReorderImplementation
from repro.layoutloop.arch import ArchSpec
from repro.search.signatures import workload_signature
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

#: Per-cell MAC bound: keeps a sweep-wide `--backend simulator` on
#: paper-scale cells from looking like a hang (the functional NEST is a
#: Python-loop model, ~2e5 MACs/s, and a co-search simulates one cell per
#: candidate layout).
DEFAULT_MAX_MACS = 500_000


class BackendCompatibilityError(IncompatibleCellError):
    """A cell this backend cannot run by design (not a configuration bug):
    a non-RIR architecture, a non-power-of-two array width, or a workload
    over the simulator's MAC bound.  ``run_matrix(skip_incompatible=True)``
    skips exactly these; any other ``ValueError`` still propagates.

    Subclasses :class:`repro.errors.IncompatibleCellError` (the API-level
    error the service maps to a stable ``incompatible_cell`` code); kept
    under its historical name for existing callers.
    """


def cell_rng(seed: int, workload) -> np.random.Generator:
    """Deterministic RNG of one (seed, workload-shape) cell.

    The stream depends on the workload's *shape signature*, never its
    free-text name, mirroring how every cache in :mod:`repro.search` keys —
    so renaming a layer cannot change the simulated tensors.
    """
    digest = hashlib.sha256(repr(workload_signature(workload)).encode("utf-8"))
    words = [int.from_bytes(digest.digest()[i:i + 4], "big")
             for i in range(0, 16, 4)]
    return np.random.default_rng([int(seed)] + words)


def seeded_conv_tensors(layer: ConvLayerSpec, seed: int = 0
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic ``(iacts (C,H,W), weights (M,C/groups,R,S))`` int8-range data."""
    rng = cell_rng(seed, layer)
    iacts = rng.integers(-4, 5, (layer.c, layer.h, layer.w), dtype=np.int64)
    weights = rng.integers(-3, 4, (layer.m, layer.c // layer.groups,
                                   layer.r, layer.s), dtype=np.int64)
    return iacts, weights


def seeded_gemm_tensors(gemm: GemmSpec, seed: int = 0
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic ``(inputs (M,K), weights (N,K))`` int8-range data."""
    rng = cell_rng(seed, gemm)
    inputs = rng.integers(-4, 5, (gemm.m, gemm.k), dtype=np.int64)
    weights = rng.integers(-3, 4, (gemm.n, gemm.k), dtype=np.int64)
    return inputs, weights


def feather_config_for(arch: ArchSpec) -> FeatherConfig:
    """The :class:`FeatherConfig` matching an RIR :class:`ArchSpec`.

    Raises :class:`BackendCompatibilityError` for architectures the
    simulator cannot model: anything without reorder-in-reduction, or
    with a non-power-of-two array width (BIRRD's input count).
    """
    if arch.reorder_implementation is not ReorderImplementation.RIR:
        raise BackendCompatibilityError(
            f"constraint 'reorder-in-reduction' violated: the simulator "
            f"backend models FEATHER (reorder-in-reduction) only, but "
            f"{arch.name!r} reorders via "
            f"{arch.reorder_implementation.value!r} — evaluate it on the "
            f"'analytical' backend instead")
    cols = arch.pe_cols
    if cols < 2 or cols & (cols - 1):
        raise BackendCompatibilityError(
            f"constraint 'pow2-array-width' violated: {arch.name!r} has "
            f"array width {cols}, not a power of two; BIRRD (and therefore "
            f"the simulator) requires one")
    return FeatherConfig(
        array_rows=arch.pe_rows,
        array_cols=cols,
        stab_lines=arch.buffer.num_lines,
        stab_ports_per_bank=arch.buffer.ports_per_bank,
        frequency_mhz=arch.frequency_mhz,
    )


class SimulatorBackend(EvaluationBackend):
    """Numerically-exact FEATHER execution with cycle accounting.

    ``seed`` drives the deterministic weight/iAct generation (embedded in
    ``extra["seed"]`` of every report).  The accelerator never routes
    BIRRD switch by switch (functional outcomes, the fast path), and
    :data:`DEFAULT_MAX_MACS` bounds the cell size.
    """

    name = "simulator"

    def __init__(self, arch: ArchSpec, seed: int = 0):
        super().__init__(arch, seed)
        self.config = feather_config_for(arch)
        self.accelerator = FeatherAccelerator(self.config,
                                              route_birrd="never")
        # Timing is layout-dependent but mapping-independent (FEATHER runs
        # its own internal dataflow), so simulations memoize on the
        # (workload shape, layout) pair.
        self._stats: Dict[Tuple, ExecutionStats] = {}

    # -------------------------------------------------------------- protocol
    def evaluate(self, workload, mapping, layouts) -> List[BackendReport]:
        simulated = [self._simulate(workload, layout) for layout in layouts]
        costs = self.cost_model.evaluate_mapping_batch(workload, mapping,
                                                       layouts)
        return [self._report(workload, cost, stats)
                for cost, stats in zip(costs, simulated)]

    def _report(self, workload, cost, stats: ExecutionStats) -> BackendReport:
        """The companion ``cost`` with the simulated timing of ``stats``."""
        batches = getattr(workload, "n", 1) if isinstance(
            workload, ConvLayerSpec) else 1
        total_cycles = stats.cycles * batches
        slowdown = stats.slowdown
        compute_cycles = total_cycles / slowdown
        num_pes = self.config.num_pes
        return report_from_cost(
            cost, self.name,
            extra={
                "seed": float(self.seed),
                "read_slowdown": stats.read_slowdown,
                "write_serialization": stats.write_serialization,
                "stab_reads": float(stats.stab_reads * batches),
                "stab_writes": float(stats.stab_writes * batches),
                "strb_reads": float(stats.strb_reads * batches),
                "birrd_cycles": float(stats.birrd_cycles * batches),
                "birrd_routed_fraction": stats.routed_fraction,
            },
            compute_cycles=compute_cycles,
            slowdown=slowdown,
            stall_cycles=total_cycles - compute_cycles,
            reorder_cycles_exposed=0.0,  # RIR: reordering rides the reduction
            total_cycles=total_cycles,
            utilization=(cost.macs / (compute_cycles * num_pes)
                         if compute_cycles else 0.0),
            practical_utilization=(cost.macs / (total_cycles * num_pes)
                                   if total_cycles else 0.0))

    def check_cell(self, workload) -> None:
        """Raise :class:`BackendCompatibilityError` if ``workload`` exceeds
        the simulator's MAC bound.  Callers that would otherwise do
        expensive work before the first ``evaluate`` (a crossval search,
        which co-searches first) use this to fail fast."""
        if workload.macs > DEFAULT_MAX_MACS:
            raise BackendCompatibilityError(
                f"constraint 'max-macs' violated: "
                f"{getattr(workload, 'name', workload)} has {workload.macs} "
                f"MACs, over the simulator cell bound ({DEFAULT_MAX_MACS}); "
                f"the cycle-level backend is for micro-cells — use the "
                f"'analytical' backend instead")

    # ------------------------------------------------------------- execution
    def _simulate(self, workload, layout) -> ExecutionStats:
        """Run (or recall) one seeded simulation of ``workload`` under ``layout``."""
        key = (workload_signature(workload), layout.name)
        stats = self._stats.get(key)
        if stats is None:
            self.check_cell(workload)
            if isinstance(workload, ConvLayerSpec):
                stats = self._simulate_conv(workload, layout)
            elif isinstance(workload, GemmSpec):
                stats = self._simulate_gemm(workload, layout)
            else:
                raise TypeError(f"unsupported workload {type(workload)!r}")
            self._stats[key] = stats
        return stats

    def _simulate_conv(self, layer: ConvLayerSpec, layout) -> ExecutionStats:
        iacts, weights = seeded_conv_tensors(layer, self.seed)
        if layer.groups == 1:
            outputs, stats = self.accelerator.run_conv(
                layer, iacts, weights, input_layout=layout)
            reference = reference_conv(iacts, weights, layer)
        else:
            outputs, stats, reference = self._simulate_grouped_conv(
                layer, iacts, weights, layout)
        if not np.array_equal(outputs, reference):
            raise AssertionError(
                f"simulator output mismatch on {layer.name} under "
                f"{layout.name} — the functional model must be exact")
        return stats

    def _simulate_grouped_conv(self, layer: ConvLayerSpec, iacts, weights,
                               layout):
        """Group-by-group execution of a grouped/depthwise convolution."""
        from repro.feather.model_runner import iter_conv_groups

        outputs = np.zeros((layer.m, layer.p, layer.q), dtype=np.int64)
        reference = np.zeros_like(outputs)
        total = ExecutionStats()
        for sub, sub_acts, sub_weights, m_slice in iter_conv_groups(
                layer, iacts, weights):
            sub_out, stats = self.accelerator.run_conv(
                sub, sub_acts, sub_weights, input_layout=layout)
            outputs[m_slice] = sub_out
            reference[m_slice] = reference_conv(sub_acts, sub_weights, sub)
            # merge() sums the cycle/traffic counters and maxes the
            # slowdowns — the whole-layer conventions we want here.
            total = total.merge(stats)
        return outputs, total, reference

    def _simulate_gemm(self, gemm: GemmSpec, layout) -> ExecutionStats:
        """Execute ``out[M,N] = in[M,K] @ w[N,K]^T`` with inputs stationary.

        The paper's streaming (layout-bearing) GEMM tensor is the input
        matrix ``M x K``, which lives in StaB; ``run_gemm`` computes
        ``W[M',K'] @ I[K',N']`` with ``I`` in StaB, so the cell runs
        transposed — ``W' = weights (N,K)``, ``I' = inputs^T (K,M)`` — and
        the layout addresses StaB reads through (M, K) coordinates.
        """
        inputs, weights = seeded_gemm_tensors(gemm, self.seed)

        def input_coord_fn(k_idx: int, col: int) -> Dict[str, int]:
            return {"M": col, "K": k_idx}

        def coord_fn(row: int, col: int) -> Dict[str, int]:
            # run_gemm's (row, col) is our (N, M) output coordinate.
            return {"M": col, "N": row}

        outputs, stats = self.accelerator.run_gemm(
            weights, inputs.T,
            output_dims={"M": gemm.m, "N": gemm.n}, coord_fn=coord_fn,
            input_layout=layout, input_dims={"M": gemm.m, "K": gemm.k},
            input_coord_fn=input_coord_fn)
        reference = inputs @ weights.T
        if not np.array_equal(outputs.T, reference):
            raise AssertionError(
                f"simulator output mismatch on {gemm.name} under "
                f"{layout.name} — the functional model must be exact")
        return stats

