"""Convolution layer specification.

The paper (Fig. 1) describes a convolution with seven dimensions:

* ``N`` — batch
* ``M`` — output channels (kernels)
* ``C`` — input channels
* ``H`` / ``W`` — input activation height / width
* ``R`` / ``S`` — kernel height / width

plus stride and padding.  Output spatial dimensions are conventionally named
``P`` (output height) and ``Q`` (output width).  Everything downstream — the
dataflow mapping space, the Layoutloop cost model and the FEATHER functional
simulator — consumes this specification.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field


class LayerKind(enum.Enum):
    """Kind of layer a :class:`ConvLayerSpec` describes.

    Depthwise convolutions constrain the mapping space (each output channel
    reads a single input channel) and pointwise convolutions have R = S = 1;
    both matter when reproducing MobileNet-V3 results.
    """

    CONV = "conv"
    DEPTHWISE = "depthwise"
    POINTWISE = "pointwise"
    FC = "fc"


# Canonical dimension names used across the package.
CONV_DIMS = ("N", "M", "C", "P", "Q", "R", "S")
IACT_DIMS = ("N", "C", "H", "W")
WEIGHT_DIMS = ("M", "C", "R", "S")
OACT_DIMS = ("N", "M", "P", "Q")


@dataclass(frozen=True)
class ConvLayerSpec:
    """Shape of a single convolution (or FC treated as 1x1 conv) layer.

    Parameters mirror the paper's terminology in Fig. 1.  ``name`` is a free
    label used in experiment output (e.g. ``"resnet50_layer1"``).
    """

    name: str
    n: int = 1
    m: int = 1
    c: int = 1
    h: int = 1
    w: int = 1
    r: int = 1
    s: int = 1
    stride: int = 1
    padding: int = 0
    kind: LayerKind = LayerKind.CONV
    bits: int = 8
    groups: int = field(default=1)

    def __post_init__(self) -> None:
        for attr in ("n", "m", "c", "h", "w", "r", "s", "stride", "groups"):
            value = getattr(self, attr)
            if value < 1:
                raise ValueError(f"{attr} must be >= 1, got {value}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.kind is LayerKind.DEPTHWISE and self.groups == 1:
            # A depthwise layer is a grouped convolution with one channel per group.
            object.__setattr__(self, "groups", self.c)
        if self.c % self.groups != 0 or self.m % self.groups != 0:
            raise ValueError(
                f"groups={self.groups} must divide both C={self.c} and M={self.m}"
            )
        if self.p < 1 or self.q < 1:
            raise ValueError(
                f"the {self.r}x{self.s} kernel does not fit the "
                f"{self.h}x{self.w} input with padding {self.padding}: "
                f"output is {self.p}x{self.q}")

    # ------------------------------------------------------------------ sizes
    @property
    def p(self) -> int:
        """Output height."""
        return (self.h + 2 * self.padding - self.r) // self.stride + 1

    @property
    def q(self) -> int:
        """Output width."""
        return (self.w + 2 * self.padding - self.s) // self.stride + 1

    def dim(self, name: str) -> int:
        """Return the extent of a dimension by its canonical single-letter name."""
        table = {
            "N": self.n,
            "M": self.m,
            "C": self.c,
            "H": self.h,
            "W": self.w,
            "P": self.p,
            "Q": self.q,
            "R": self.r,
            "S": self.s,
        }
        try:
            return table[name.upper()]
        except KeyError as exc:
            raise KeyError(f"unknown dimension {name!r}") from exc

    def dims(self) -> dict:
        """All dimension extents as a dict keyed by canonical name."""
        return {d: self.dim(d) for d in ("N", "M", "C", "H", "W", "P", "Q", "R", "S")}

    # --------------------------------------------------------------- tensor sizes
    @property
    def iact_elems(self) -> int:
        return self.n * self.c * self.h * self.w

    @property
    def weight_elems(self) -> int:
        return self.m * (self.c // self.groups) * self.r * self.s

    @property
    def oact_elems(self) -> int:
        return self.n * self.m * self.p * self.q

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations in the layer."""
        return self.n * self.m * self.p * self.q * (self.c // self.groups) * self.r * self.s

    @property
    def arithmetic_intensity(self) -> float:
        """MACs per byte moved if every tensor is touched exactly once."""
        bytes_per_elem = self.bits / 8.0
        moved = (self.iact_elems + self.weight_elems + self.oact_elems) * bytes_per_elem
        return self.macs / moved if moved else math.inf

    # -------------------------------------------------------------------- misc
    def is_depthwise(self) -> bool:
        """True when each output channel reads exactly one input channel."""
        return self.kind is LayerKind.DEPTHWISE or self.groups == self.c

    def as_gemm_shape(self) -> tuple:
        """im2col-equivalent GEMM shape ``(M, K, N)``.

        ``M`` = output channels, ``K`` = C*R*S reduction size, ``N`` = N*P*Q
        output positions.  Used when mapping a convolution onto GEMM-only
        baselines (e.g. SIGMA-like configurations).
        """
        return (self.m, (self.c // self.groups) * self.r * self.s, self.n * self.p * self.q)

    def with_batch(self, n: int) -> "ConvLayerSpec":
        """Return a copy running ``n`` inputs per pass (batch dimension N).

        Used by the scenario matrix to widen the evaluation beyond the
        paper's N=1 grid; all other shape fields (including the grouping of
        depthwise layers) are preserved.
        """
        if n < 1:
            raise ValueError(f"batch size must be >= 1, got {n}")
        if n == self.n:
            return self
        return dataclasses.replace(self, name=f"{self.name}_n{n}", n=n)

    def scaled(self, factor: float) -> "ConvLayerSpec":
        """Return a copy with channel counts scaled (used in sweeps)."""
        return ConvLayerSpec(
            name=f"{self.name}_x{factor:g}",
            n=self.n,
            m=max(1, int(self.m * factor)),
            c=max(1, int(self.c * factor)),
            h=self.h,
            w=self.w,
            r=self.r,
            s=self.s,
            stride=self.stride,
            padding=self.padding,
            kind=self.kind,
            bits=self.bits,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}(N{self.n} M{self.m} C{self.c} H{self.h} W{self.w} "
            f"R{self.r} S{self.s} stride{self.stride} pad{self.padding})"
        )
