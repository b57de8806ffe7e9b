"""Data layout specification and address mapping.

The paper (Fig. 3) writes a layout as

    ``<inter-line dimension order>_<intra-line dimension order with sizes>``

e.g. ``CHW_W4H2C2``: lines are ordered by C, then H, then W (C outermost),
and within a line (4, 2, 2) elements from (W, H, C) are flattened with W
innermost-first in the listed order.  :class:`Layout` turns that string into
an address mapping: given a logical coordinate of a tensor element it returns
the (line, offset) position in the logical 2D buffer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class IntraLineDim:
    """One dimension's contribution to the intra-line flattening."""

    dim: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"intra-line size must be >= 1, got {self.size}")


_INTRA_RE = re.compile(r"([A-Za-z])(\d+)")


@dataclass(frozen=True)
class Layout:
    """A concrete data layout for one tensor in the on-chip buffer.

    ``inter_order`` lists dimensions from outermost to innermost across lines;
    ``intra`` lists (dimension, size) pairs flattened into a line, the first
    listed dimension varying fastest (matching the paper's reading of
    ``W4H2C2`` where consecutive elements walk W first).
    """

    inter_order: Tuple[str, ...]
    intra: Tuple[IntraLineDim, ...]

    # ------------------------------------------------------------------ basics
    def __post_init__(self) -> None:
        if not self.inter_order and not self.intra:
            raise ValueError("layout must name at least one dimension")
        seen = set()
        for entry in self.intra:
            if entry.dim in seen:
                raise ValueError(f"dimension {entry.dim} repeated in intra-line order")
            seen.add(entry.dim)

    @property
    def line_size(self) -> int:
        """Number of elements flattened into one buffer line."""
        return math.prod(e.size for e in self.intra) if self.intra else 1

    @property
    def intra_dims(self) -> Tuple[str, ...]:
        return tuple(e.dim for e in self.intra)

    @cached_property
    def name(self) -> str:
        # Cached like ``Mapping.parallel_dims``: the name is the layout's
        # memo key (``layout_signature``), read once per scored pair.
        inter = "".join(self.inter_order)
        intra = "".join(f"{e.dim}{e.size}" for e in self.intra)
        return f"{inter}_{intra}" if intra else inter

    def intra_size(self, dim: str) -> int:
        """Elements of ``dim`` packed within one line (1 when inter-line only)."""
        for entry in self.intra:
            if entry.dim == dim:
                return entry.size
        return 1

    # --------------------------------------------------------------- addressing
    def line_extents(self, dims: Dict[str, int]) -> Dict[str, int]:
        """Number of intra-line tiles along each inter-line dimension."""
        extents = {}
        for dim in self.inter_order:
            total = dims.get(dim, 1)
            extents[dim] = math.ceil(total / self.intra_size(dim))
        return extents

    def num_lines(self, dims: Dict[str, int]) -> int:
        """Total number of buffer lines the tensor occupies."""
        extents = self.line_extents(dims)
        covered = set(self.inter_order) | set(self.intra_dims)
        lines = math.prod(extents.values()) if extents else 1
        # Dimensions absent from both orders still multiply the footprint
        # (each extra coordinate gets its own block of lines).
        for dim, total in dims.items():
            if dim not in covered and total > 1:
                lines *= total
        return lines

    def address(self, coord: Dict[str, int], dims: Dict[str, int]) -> Tuple[int, int]:
        """Map a logical coordinate to ``(line_index, offset_within_line)``.

        ``coord`` gives the index along each dimension; dimensions missing
        from ``coord`` are treated as zero.  ``dims`` gives the full extents
        (needed to linearise the inter-line index).
        """
        # Offset within the line: mixed-radix over the intra dims, first dim fastest.
        offset = 0
        stride = 1
        for entry in self.intra:
            idx = coord.get(entry.dim, 0) % entry.size
            offset += idx * stride
            stride *= entry.size

        # Line index: mixed-radix over the inter-line order, last listed dim fastest
        # (the paper's "CHW" reads C -> H -> W with W innermost across lines).
        extents = self.line_extents(dims)
        line = 0
        for dim in self.inter_order:
            tile_idx = coord.get(dim, 0) // self.intra_size(dim)
            line = line * extents[dim] + tile_idx
        # Dimensions not covered anywhere get appended as the slowest-varying index.
        covered = set(self.inter_order) | set(self.intra_dims)
        for dim in sorted(dims):
            if dim not in covered and dims[dim] > 1:
                line = line * dims[dim] + coord.get(dim, 0)
        return line, offset

    def addresses(self, coords: Iterable[Dict[str, int]], dims: Dict[str, int]) -> List[Tuple[int, int]]:
        """Vector form of :meth:`address`."""
        return [self.address(c, dims) for c in coords]

    def compile(self, dims: Dict[str, int]) -> "CompiledLayout":
        """Compile this layout against concrete extents for batch addressing.

        Returns a :class:`~repro.kernel.compiled.CompiledLayout` whose
        ``address_batch`` maps whole numpy coordinate arrays to
        ``(line, offset)`` with results bit-identical to :meth:`address`.
        Compilations are memoized per (layout, dims).
        """
        from repro.kernel.compiled import compile_layout

        return compile_layout(self, dims)

    # --------------------------------------------------------------------- misc
    def covers(self, dims: Sequence[str]) -> bool:
        """Whether all the named tensor dimensions appear in the layout."""
        named = set(self.inter_order) | set(self.intra_dims)
        return all(d in named for d in dims)

    def with_line_size(self, target_line_size: int) -> "Layout":
        """Return a layout padded/truncated on its innermost intra dim.

        Used when a buffer's physical line is wider or narrower than the
        layout's natural tile; the innermost (first) intra dimension absorbs
        the difference.
        """
        if not self.intra:
            raise ValueError("cannot resize a layout with no intra-line dims")
        current = self.line_size
        if current == target_line_size:
            return self
        first = self.intra[0]
        rest = math.prod(e.size for e in self.intra[1:]) if len(self.intra) > 1 else 1
        if target_line_size % rest != 0:
            raise ValueError(
                f"target line size {target_line_size} incompatible with intra tail {rest}"
            )
        new_first = IntraLineDim(first.dim, max(1, target_line_size // rest))
        return Layout(self.inter_order, (new_first,) + self.intra[1:])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def parse_layout(text: str) -> Layout:
    """Parse the paper's layout notation, e.g. ``"CHW_W4H2C2"`` or ``"HCW_W8"``.

    A missing intra part (no underscore) means one element per line entry of
    the innermost inter dimension, which is never used in the paper but is
    accepted for completeness.
    """
    text = text.strip()
    if "_" in text:
        inter_part, intra_part = text.split("_", 1)
    else:
        inter_part, intra_part = text, ""
    inter = tuple(ch.upper() for ch in inter_part if ch.isalpha())
    intra_entries = []
    for dim, size in _INTRA_RE.findall(intra_part):
        intra_entries.append(IntraLineDim(dim.upper(), int(size)))
    if not inter and not intra_entries:
        raise ValueError(f"could not parse layout {text!r}")
    return Layout(inter, tuple(intra_entries))
