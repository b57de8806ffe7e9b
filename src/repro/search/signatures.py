"""Canonical hashable signatures used as cache keys by the search engine.

Every memoization layer in :mod:`repro.search` keys on *structure*, not on
object identity or free-text names:

* two workloads with the same shape share a signature even if their layer
  names differ (``resnet50_layer5`` and ``resnet50_layer8`` are the same
  3x3/64ch convolution),
* two mappings with the same (shape, parallelism, tile, order) share a
  signature even if the mapper labelled them differently,
* two architectures share a signature only when every field the cost model
  reads is equal (including the buffer geometry and the energy table).

Keeping the signature functions in one module guarantees the result-level
cache (:class:`repro.layoutloop.mapper.Mapper`), the evaluation-level cache
(:class:`repro.search.cache.EvaluationCache`) and the shape deduplication in
:func:`repro.layoutloop.cosearch.unique_workloads` can never disagree about
what "the same" means.
"""

from __future__ import annotations

from typing import Tuple

from repro.layoutloop.energy import DEFAULT_ENERGY_TABLE
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec


def workload_signature(workload) -> Tuple:
    """Shape signature of a workload (layer names are deliberately excluded)."""
    if isinstance(workload, ConvLayerSpec):
        return ("conv", workload.m, workload.c, workload.h, workload.w,
                workload.r, workload.s, workload.stride, workload.padding,
                workload.groups, workload.n, workload.kind.value, workload.bits)
    if isinstance(workload, GemmSpec):
        return ("gemm", workload.m, workload.k, workload.n, workload.bits)
    raise TypeError(f"unsupported workload {type(workload)!r}")


def mapping_signature(mapping) -> Tuple:
    """Structural signature of a mapping (the free-text name is excluded)."""
    return (
        mapping.array_rows,
        mapping.array_cols,
        tuple((p.dim, p.degree) for p in mapping.parallel),
        mapping.tile.sizes,
        mapping.order,
        tuple(sorted(mapping.reduction_dims)),
    )


def layout_signature(layout) -> str:
    """Signature of a layout: its canonical name string is already unique."""
    return layout.name


def arch_signature(arch) -> Tuple:
    """Signature of an architecture's evaluation context.

    Includes every :class:`~repro.layoutloop.arch.ArchSpec` field the cost
    model reads plus the full energy table it prices with
    (:data:`~repro.layoutloop.energy.DEFAULT_ENERGY_TABLE`), so a cache
    may safely be shared across architectures.
    """
    buf = arch.buffer
    energy = DEFAULT_ENERGY_TABLE
    return (
        arch.name,
        arch.pe_rows, arch.pe_cols,
        arch.flexible_order, arch.flexible_parallelism, arch.flexible_shape,
        arch.allowed_parallel_dims, arch.max_parallel_dims,
        arch.fixed_parallelism,
        arch.runtime_layout_flexible, arch.compile_time_layout_flexible,
        arch.fixed_layout,
        arch.reorder_pattern.value, arch.reorder_implementation.value,
        (buf.num_lines, buf.line_size, buf.banks, buf.ports_per_bank,
         buf.word_bits),
        arch.offchip_bandwidth_gbps, arch.frequency_mhz, arch.mac_bits,
        (energy.mac_int8_pj, energy.register_access_pj,
         energy.buffer_read_per_word_pj, energy.buffer_write_per_word_pj,
         energy.noc_hop_per_word_pj, energy.dram_access_per_byte_pj,
         energy.reorder_unit_per_word_pj, energy.birrd_per_word_pj),
    )
