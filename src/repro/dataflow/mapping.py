"""Mapping (dataflow) specification: Tiling, Ordering, Parallelism, Shape.

The paper defines a dataflow by the four TOPS knobs (§II-A):

* **T**iling — level-1 (on-chip) tile sizes per dimension,
* **O**rdering — loop order / stationarity of the temporal loops,
* **P**arallelism — which dimensions are mapped across the PE array and by
  how much,
* **S**hape — the virtual grouping of the physical array (rows x cols).

:class:`Mapping` captures all four and provides the derived quantities the
cost model and the functional simulators need: utilization of the array,
reduction group sizes, the per-cycle iAct footprint used for concordance
analysis, and data reuse counts per tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec
from repro.dataflow.loopnest import tile_counts


# Dimensions that carry a reduction dependence in a convolution (paper §II-A)
# and in a GEMM.  Parallelising these requires spatial reduction hardware.
CONV_REDUCTION_DIMS = frozenset({"C", "R", "S"})
GEMM_REDUCTION_DIMS = frozenset({"K"})


@dataclass(frozen=True)
class ParallelSpec:
    """Parallelism of one dimension across the array."""

    dim: str
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("parallel degree must be >= 1")


@dataclass(frozen=True)
class TileLevel:
    """Tile sizes of one storage level, keyed by dimension name."""

    sizes: Tuple[Tuple[str, int], ...]

    @classmethod
    def of(cls, **sizes: int) -> "TileLevel":
        return cls(tuple(sorted((k.upper(), v) for k, v in sizes.items())))

    def size(self, dim: str) -> int:
        """Tile size of one dimension (1 when untiled)."""
        return dict(self.sizes).get(dim.upper(), 1)

    def as_dict(self) -> Dict[str, int]:
        """Tile sizes as a plain ``{dim: size}`` dict."""
        return dict(self.sizes)


@dataclass(frozen=True)
class Mapping:
    """A complete dataflow for one layer on one accelerator.

    ``array_rows`` x ``array_cols`` is the *shape* (virtual grouping);
    ``parallel`` assigns dimensions to the spatial axes; ``tile`` is the
    level-1 on-chip tile; ``order`` is the temporal loop order (outermost
    first), which determines stationarity.
    """

    name: str
    array_rows: int
    array_cols: int
    parallel: Tuple[ParallelSpec, ...]
    tile: TileLevel
    order: Tuple[str, ...]
    reduction_dims: frozenset = CONV_REDUCTION_DIMS

    # ------------------------------------------------------------------ basics
    def __post_init__(self) -> None:
        if self.array_rows < 1 or self.array_cols < 1:
            raise ValueError("array shape must be positive")
        degree = self.total_parallelism
        if degree > self.array_rows * self.array_cols:
            raise ValueError(
                f"parallelism {degree} exceeds array size "
                f"{self.array_rows * self.array_cols}"
            )

    @property
    def num_pes(self) -> int:
        return self.array_rows * self.array_cols

    @property
    def total_parallelism(self) -> int:
        return math.prod(p.degree for p in self.parallel) if self.parallel else 1

    @cached_property
    def parallel_dims(self) -> Dict[str, int]:
        # Cached: ``parallel`` is frozen, and every per-dimension query in the
        # cost model and footprint kernels funnels through this dict.  The
        # cache lives in the instance ``__dict__`` (frozen dataclasses without
        # slots still have one), so field-based eq/hash are unaffected.
        out: Dict[str, int] = {}
        for p in self.parallel:
            out[p.dim] = out.get(p.dim, 1) * p.degree
        return out

    def parallel_degree(self, dim: str) -> int:
        """Spatial parallelism of one dimension (1 when not parallelised)."""
        return self.parallel_dims.get(dim.upper(), 1)

    # ------------------------------------------------------------ reductions
    @property
    def spatial_reduction_size(self) -> int:
        """Number of partial sums spatially reduced into one output per cycle.

        This is the product of the parallel degrees over reduction-carrying
        dimensions; it is the reduction-group size BIRRD has to support.
        """
        size = 1
        for p in self.parallel:
            if p.dim in self.reduction_dims:
                size *= p.degree
        return size

    @property
    def outputs_per_cycle(self) -> int:
        """Distinct outputs produced per array activation (paper §IV-B).

        FEATHER picks dataflows whose output count per cycle matches the
        number of StaB write ports so writes never conflict.
        """
        return max(1, self.total_parallelism // self.spatial_reduction_size)

    # ------------------------------------------------------------ utilization
    def spatial_utilization(self, workload) -> float:
        """Fraction of PEs doing useful work, accounting for ragged edges.

        For each parallel dimension the final tile may be partial; the
        utilization is the product over dimensions of
        ``extent / (ceil(extent/degree) * degree)`` — identical to how
        Timeloop scores imperfect factorizations — times the fraction of the
        array the mapping occupies at all.
        """
        util = self.total_parallelism / self.num_pes
        for p in self.parallel:
            extent = _workload_dim(workload, p.dim)
            if extent <= 0:
                continue
            padded = tile_counts(extent, p.degree) * p.degree
            util *= extent / padded
        return min(util, 1.0)

    def temporal_steps(self, workload) -> int:
        """Number of array activations needed to cover the whole layer."""
        dims = _workload_dims(workload)
        steps = 1
        for dim, extent in dims.items():
            degree = self.parallel_degree(dim)
            steps *= tile_counts(extent, degree) if degree > 1 else extent if dim in self._temporal_dims(dims) else tile_counts(extent, 1)
        return steps

    def _temporal_dims(self, dims: Dict[str, int]) -> Dict[str, int]:
        return {d: e for d, e in dims.items() if self.parallel_degree(d) == 1}

    def compute_cycles(self, workload) -> int:
        """Cycles of pure compute assuming no stalls.

        Every MAC takes one cycle on one PE; with ``total_parallelism`` MACs
        issued per cycle (scaled by spatial utilization for ragged edges) the
        cycle count is ``MACs / (num_pes * utilization_of_mapping)`` — but we
        compute it exactly from per-dimension padded trip counts so edge
        effects match the utilization model.
        """
        dims = _workload_dims(workload)
        cycles = 1
        for dim, extent in dims.items():
            degree = self.parallel_degree(dim)
            cycles *= tile_counts(extent, degree)
        return cycles

    # ------------------------------------------------------------------ misc
    def with_array(self, rows: int, cols: int) -> "Mapping":
        """Copy of this mapping re-shaped onto a ``rows x cols`` array."""
        return replace(self, array_rows=rows, array_cols=cols)

    def describe(self) -> str:
        """One-line human-readable summary of the dataflow."""
        par = " ".join(f"{p.dim}x{p.degree}" for p in self.parallel) or "none"
        return (
            f"{self.name}: array {self.array_rows}x{self.array_cols}, parallel [{par}], "
            f"order {'->'.join(self.order)}"
        )


def _workload_dims(workload) -> Dict[str, int]:
    if isinstance(workload, ConvLayerSpec):
        return {
            "N": workload.n, "M": workload.m, "C": workload.c // workload.groups,
            "P": workload.p, "Q": workload.q, "R": workload.r, "S": workload.s,
        }
    if isinstance(workload, GemmSpec):
        return {"M": workload.m, "K": workload.k, "N": workload.n}
    raise TypeError(f"unsupported workload type {type(workload)!r}")


def _workload_dim(workload, dim: str) -> int:
    return _workload_dims(workload).get(dim.upper(), 1)


# --------------------------------------------------------------------------
# Convenience constructors for the dataflows the paper repeatedly references.
# --------------------------------------------------------------------------

def weight_stationary_mapping(workload, rows: int, cols: int,
                              parallel_m: Optional[int] = None,
                              parallel_c: Optional[int] = None,
                              name: str = "weight_stationary") -> Mapping:
    """NVDLA/Gemmini-style weight stationary: M across rows, C across columns."""
    dims = _workload_dims(workload)
    pm = parallel_m if parallel_m is not None else min(rows, dims.get("M", 1))
    pc = parallel_c if parallel_c is not None else min(cols, dims.get("C", dims.get("K", 1)))
    red_dim = "C" if "C" in dims else "K"
    reduction = CONV_REDUCTION_DIMS if "C" in dims else GEMM_REDUCTION_DIMS
    # Weight-stationary: the innermost temporal loops (P, Q / N) do not index
    # the weights, so the weights stay in the PE registers.
    if "C" in dims:
        order = tuple(d for d in ("N", "M", "C", "R", "S", "P", "Q") if d in dims)
    else:
        order = ("M", red_dim, "N")
    return Mapping(
        name=name,
        array_rows=rows,
        array_cols=cols,
        parallel=(ParallelSpec("M", pm), ParallelSpec(red_dim, pc)),
        tile=TileLevel.of(**{"M": pm, red_dim: pc}),
        order=order,
        reduction_dims=reduction,
    )


def output_stationary_mapping(workload, rows: int, cols: int,
                              name: str = "output_stationary") -> Mapping:
    """Output stationary: output positions across the array, reduction in time."""
    dims = _workload_dims(workload)
    if "P" in dims:
        pp = min(rows, dims["P"])
        pq = min(cols, dims["Q"])
        parallel = (ParallelSpec("P", pp), ParallelSpec("Q", pq))
        tile = TileLevel.of(P=pp, Q=pq)
        # Output-stationary: the innermost temporal loops are the reduction
        # dims, so each output accumulates in place before moving on.
        order = tuple(d for d in ("N", "M", "P", "Q", "C", "R", "S") if d in dims)
        reduction = CONV_REDUCTION_DIMS
    else:
        pm = min(rows, dims["M"])
        pn = min(cols, dims["N"])
        parallel = (ParallelSpec("M", pm), ParallelSpec("N", pn))
        tile = TileLevel.of(M=pm, N=pn)
        order = ("K", "M", "N")
        reduction = GEMM_REDUCTION_DIMS
    return Mapping(
        name=name,
        array_rows=rows,
        array_cols=cols,
        parallel=parallel,
        tile=tile,
        order=order,
        reduction_dims=reduction,
    )
