"""Vectorized cost-model kernel.

The cost model prices every cell through this package.  A dict per tensor
coordinate through :meth:`repro.layout.Layout.address` is fine for a unit
test but far too slow for co-search traffic, so the kernel works on arrays:

* :class:`~repro.kernel.compiled.CompiledLayout` — a layout compiled against
  concrete tensor extents into integer stride/divisor vectors, so a whole
  batch of coordinates maps to ``(line, offset)`` with one shot of numpy
  integer arithmetic (:func:`~repro.kernel.compiled.compile_layout`).
* :mod:`repro.kernel.footprint` — per-cycle access footprints generated as
  ``(cycles, lanes, ndims)`` integer arrays instead of lists of dicts.
* :func:`~repro.kernel.concordance.analyze_concordance_batch` — bank-conflict
  analysis over all sample cycles and all candidate layouts of one mapping at
  once: distinct lines by a sort along lanes, lines per bank by one
  ``np.bincount``.

Everything here is **result-identical** to the scalar algebra: the integer
address math is the same, and every float (slowdowns, averages) is produced
by the same IEEE-754 operations in the same order.  The scalar model —
coordinate dicts through :func:`repro.layout.concordance.analyze_concordance`
— lives in the tests' reference oracle (``tests/reference.py``), which
``tests/test_kernel_equivalence.py`` property-tests this package against.
"""

from repro.kernel.compiled import CompiledLayout, compile_layout
from repro.kernel.concordance import analyze_concordance_batch, cycle_slowdowns
from repro.kernel.footprint import (
    CONV_STREAM_DIMS,
    GEMM_STREAM_DIMS,
    conv_iact_coords_batch,
    gemm_input_coords_batch,
    streaming_access_coords,
)

__all__ = [
    "CompiledLayout",
    "compile_layout",
    "analyze_concordance_batch",
    "cycle_slowdowns",
    "CONV_STREAM_DIMS",
    "GEMM_STREAM_DIMS",
    "conv_iact_coords_batch",
    "gemm_input_coords_batch",
    "streaming_access_coords",
]
