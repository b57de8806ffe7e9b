"""Post-processing functional engines (paper §III-A).

FEATHER keeps dedicated computation engines for ReLU, BatchNorm and MaxPooling
next to the NEST, and lowers AvgPooling to a convolution so it runs on the PE
array; all engines share the same on-chip storage.  These are the functional
models of those engines, operating on integer activation tensors shaped
``(channels, height, width)`` like the rest of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.workloads.conv import ConvLayerSpec


def relu(acts: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(acts), 0)


@dataclass(frozen=True)
class IntegerBatchNorm:
    """Per-channel affine transform in fixed point.

    Real deployments fold BatchNorm into the convolution; FEATHER's dedicated
    engine applies the folded per-channel scale/shift, here expressed as a
    rational multiply (``scale_num / 2**scale_shift``) plus bias so that the
    whole pipeline stays in integers.
    """

    scale_num: Tuple[int, ...]
    scale_shift: int
    bias: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.scale_num) != len(self.bias):
            raise ValueError("scale and bias must have one entry per channel")
        if self.scale_shift < 0:
            raise ValueError("scale_shift must be >= 0")

    def apply(self, acts: np.ndarray) -> np.ndarray:
        """Apply the folded integer batch-norm per channel (CHW int64 in/out)."""
        acts = np.asarray(acts, dtype=np.int64)
        if acts.shape[0] != len(self.scale_num):
            raise ValueError(
                f"activation has {acts.shape[0]} channels, BN has {len(self.scale_num)}")
        scale = np.asarray(self.scale_num, dtype=np.int64).reshape(-1, 1, 1)
        bias = np.asarray(self.bias, dtype=np.int64).reshape(-1, 1, 1)
        return ((acts * scale) >> self.scale_shift) + bias

    @classmethod
    def identity(cls, channels: int) -> "IntegerBatchNorm":
        return cls(scale_num=tuple([1] * channels), scale_shift=0,
                   bias=tuple([0] * channels))


def max_pool(acts: np.ndarray, kernel: int = 2, stride: int = None) -> np.ndarray:
    """Channel-wise max pooling over ``kernel x kernel`` windows."""
    acts = np.asarray(acts)
    if acts.ndim != 3:
        raise ValueError("expected a (C, H, W) tensor")
    stride = stride or kernel
    c, h, w = acts.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("pooling window larger than the input")
    out = np.empty((c, out_h, out_w), dtype=acts.dtype)
    for i in range(out_h):
        for j in range(out_w):
            window = acts[:, i * stride:i * stride + kernel,
                          j * stride:j * stride + kernel]
            out[:, i, j] = window.reshape(c, -1).max(axis=1)
    return out


def avg_pool_layer(channels: int, h: int, w: int, kernel: int,
                   stride: int = None, name: str = "avgpool") -> ConvLayerSpec:
    """The depthwise-conv layer spec that realises an average pool."""
    stride = stride or kernel
    return ConvLayerSpec(name, m=channels, c=channels, h=h, w=w, r=kernel,
                         s=kernel, stride=stride, padding=0, groups=channels)


def avg_pool_reference(acts: np.ndarray, kernel: int, stride: int = None) -> np.ndarray:
    """Reference integer average pool (floor division, as the QM shift does)."""
    acts = np.asarray(acts, dtype=np.int64)
    stride = stride or kernel
    c, h, w = acts.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    out = np.empty((c, out_h, out_w), dtype=np.int64)
    for i in range(out_h):
        for j in range(out_w):
            window = acts[:, i * stride:i * stride + kernel,
                          j * stride:j * stride + kernel]
            out[:, i, j] = window.reshape(c, -1).sum(axis=1) // (kernel * kernel)
    return out
