"""Per-cycle access footprints as ``(cycles, lanes, ndims)`` integer arrays.

The scalar reference model (``tests/reference.py``) expands a mapping's
parallel dimensions into a list of coordinate dicts per sampled cycle.  The
functions here produce the same coordinates — the same modular walk, in the
same lane nesting order — but as one int64 array per workload covering every
sample base at once, so a compiled layout can address the whole footprint in
a single numpy shot.  Each coordinate column is broadcast straight into one
preallocated ``(bases, *degrees, ndims)`` array, which is then viewed as
``(bases, lanes, ndims)``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

CONV_STREAM_DIMS: Tuple[str, ...] = ("C", "H", "W")
"""Coordinate-column order of conv iAct footprints."""

GEMM_STREAM_DIMS: Tuple[str, ...] = ("M", "K")
"""Coordinate-column order of GEMM input footprints."""


def conv_iact_coords_batch(layer: ConvLayerSpec, mapping,
                           bases: Sequence[Tuple[int, int, int]]
                           ) -> np.ndarray:
    """iAct footprint of a conv mapping: ``(len(bases), lanes, 3)`` int64.

    Column order is :data:`CONV_STREAM_DIMS`.  Lane nesting replicates the
    scalar expansion order C → P → Q → R → S (C slowest-varying), and every
    coordinate value matches the scalar path's chained modular updates:
    P/R both shift H, Q/S both shift W, each re-wrapped at its extent.
    Since ``(a % n + b) % n == (a + b) % n``, one wrap per column after
    the wrapped base gives the same integers.
    """
    c = max(1, layer.c)
    h = max(1, layer.h)
    w = max(1, layer.w)
    deg = mapping.parallel_dims
    d_c = max(1, deg.get("C", 1))
    d_p = max(1, deg.get("P", 1))
    d_q = max(1, deg.get("Q", 1))
    d_r = max(1, deg.get("R", 1))
    d_s = max(1, deg.get("S", 1))

    num_bases = len(bases)
    start = np.array([b[:3] for b in bases], dtype=np.int64).reshape(
        num_bases, 3) % (c, h, w)
    c0, h0, w0 = start.T.reshape(3, num_bases, 1, 1, 1, 1, 1)
    i_c = np.arange(d_c, dtype=np.int64).reshape(-1, 1, 1, 1, 1)
    i_p = np.arange(d_p, dtype=np.int64).reshape(-1, 1, 1, 1)
    i_q = np.arange(d_q, dtype=np.int64).reshape(-1, 1, 1)
    i_r = np.arange(d_r, dtype=np.int64).reshape(-1, 1)
    i_s = np.arange(d_s, dtype=np.int64)

    out = np.empty((num_bases, d_c, d_p, d_q, d_r, d_s, 3), dtype=np.int64)
    out[..., 0] = (c0 + i_c) % c
    out[..., 1] = (h0 + i_p * layer.stride + i_r) % h
    out[..., 2] = (w0 + i_q * layer.stride + i_s) % w
    return out.reshape(num_bases, -1, 3)


def gemm_input_coords_batch(gemm: GemmSpec, mapping,
                            bases: Sequence[Tuple[int, int, int]]
                            ) -> np.ndarray:
    """Input footprint of a GEMM mapping: ``(len(bases), lanes, 2)`` int64.

    Column order is :data:`GEMM_STREAM_DIMS`; lane nesting is M outer, K
    inner, matching the scalar expansion.  N parallelism broadcasts the same
    input row and contributes no lanes (as in the scalar path).
    """
    m = max(1, gemm.m)
    k = max(1, gemm.k)
    deg = mapping.parallel_dims
    d_m = max(1, deg.get("M", 1))
    d_k = max(1, deg.get("K", 1))

    num_bases = len(bases)
    start = np.array([b[:2] for b in bases], dtype=np.int64).reshape(
        num_bases, 2) % (m, k)
    m0, k0 = start.T.reshape(2, num_bases, 1, 1)
    i_m = np.arange(d_m, dtype=np.int64).reshape(-1, 1)
    i_k = np.arange(d_k, dtype=np.int64)

    out = np.empty((num_bases, d_m, d_k, 2), dtype=np.int64)
    out[..., 0] = (m0 + i_m) % m
    out[..., 1] = (k0 + i_k) % k
    return out.reshape(num_bases, -1, 2)


def streaming_access_coords(workload, mapping,
                            bases: Sequence[Tuple[int, int, int]]
                            ) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """``(coords, dim_names)`` for the streaming tensor of any workload kind."""
    if isinstance(workload, ConvLayerSpec):
        return (conv_iact_coords_batch(workload, mapping, bases),
                CONV_STREAM_DIMS)
    if isinstance(workload, GemmSpec):
        return (gemm_input_coords_batch(workload, mapping, bases),
                GEMM_STREAM_DIMS)
    raise TypeError(f"unsupported workload {type(workload)!r}")
