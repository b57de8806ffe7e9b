"""Device-level throughput models for the real-hardware comparison (Fig. 12).

The paper deploys FEATHER on a ZCU104 FPGA and compares per-layer throughput
(normalised by PE count and clock frequency) against the Xilinx DPU (same
board), Gemmini (FireSim on AWS F1) and a Coral Edge TPU.  Because throughput
per PE per cycle *is* utilization, the figure is reproducible from per-layer
utilization models of each design's fixed dataflow — which is exactly what we
build here, substituting the physical boards with the documented dataflow of
each device (see DESIGN.md).

Each :class:`DeviceModel` knows its PE count, clock and a per-layer
utilization function; :func:`normalized_throughput` divides by PEs and clock
the same way the paper does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

from repro.baselines.systolic import SystolicArray
from repro.workloads.conv import ConvLayerSpec


@dataclass
class DeviceThroughput:
    """Per-layer result of running a device model."""

    device: str
    layer: str
    cycles: float
    macs: int
    num_pes: int
    frequency_mhz: float

    @property
    def utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.macs / (self.cycles * self.num_pes)

    @property
    def normalized_throughput_per_pe(self) -> float:
        """Throughput normalised by PE count and clock (the paper's metric).

        Equal to achieved MACs per PE per cycle, i.e. utilization.
        """
        return self.utilization


@dataclass
class DeviceModel:
    """A deployable accelerator characterised by its fixed (or flexible) dataflow."""

    name: str
    num_pes: int
    frequency_mhz: float
    layer_cycles: Callable[[ConvLayerSpec], float]
    controller_overhead: float = 1.0

    def run_layer(self, layer: ConvLayerSpec) -> DeviceThroughput:
        """Model one layer: cycles (incl. controller overhead) + throughput."""
        cycles = self.layer_cycles(layer) * self.controller_overhead
        return DeviceThroughput(
            device=self.name, layer=layer.name, cycles=cycles, macs=layer.macs,
            num_pes=self.num_pes, frequency_mhz=self.frequency_mhz)

    def run_model(self, layers) -> List[DeviceThroughput]:
        """Run every layer through :meth:`run_layer`, in order."""
        return [self.run_layer(layer) for layer in layers]


# ---------------------------------------------------------------------------
# Concrete devices.
# ---------------------------------------------------------------------------

def gemmini_device() -> DeviceModel:
    """Gemmini: 16x16 weight-stationary systolic array, fixed (M=16, C=16)."""
    array = SystolicArray(16, 16, parallel_m=16, parallel_k=16, name="Gemmini")

    def cycles(layer: ConvLayerSpec) -> float:
        return array.run_conv(layer).cycles

    return DeviceModel(name="Gemmini", num_pes=1024, frequency_mhz=100.0,
                       layer_cycles=cycles)


def xilinx_dpu_device() -> DeviceModel:
    """Xilinx DPU (B1152-like): fixed parallelism (M=12, C=12, pixel=8).

    1152 PEs arranged as 12 x 12 MACs with 8 pixel lanes running a single
    dataflow.  The fixed kernel-window schedule caps steady-state utilization
    at ~75% for 3x3 convolutions and ~22-60% for 7x7 stems (§VI-B2), on top of
    the ragged-tile losses when M, C or the output width do not divide the
    fixed parallelism.
    """
    array = SystolicArray(12, 12, parallel_m=12, parallel_k=12, extra_parallel=8,
                          name="Xilinx DPU")

    def kernel_efficiency(layer: ConvLayerSpec) -> float:
        window = layer.r * layer.s
        if window == 1:
            return 1.0
        if window <= 9:
            return 0.75
        if window <= 25:
            return 0.6
        return 0.45

    def cycles(layer: ConvLayerSpec) -> float:
        base = array.run_conv(layer).cycles
        # Pixel lanes pad the output width to a multiple of 8.
        q_eff = layer.q / (math.ceil(layer.q / 8) * 8)
        return base / (kernel_efficiency(layer) * max(q_eff, 1e-6))

    return DeviceModel(name="Xilinx DPU", num_pes=1152, frequency_mhz=100.0,
                       layer_cycles=cycles)


def edge_tpu_device() -> DeviceModel:
    """Coral Edge TPU: 1024 MACs, fixed dataflow, plus host-transfer overheads.

    The USB-attached accelerator pays a per-layer host round trip (activation
    transfer over USB plus invocation latency), which the paper's wall-clock
    measurements include; modelled as a transfer-proportional cycle adder.
    """
    array = SystolicArray(32, 32, parallel_m=32, parallel_k=32, name="Edge TPU")
    usb_bytes_per_cycle = 2.0        # ~1 GB/s effective at 500 MHz
    invocation_overhead_cycles = 50_000.0

    def cycles(layer: ConvLayerSpec) -> float:
        transfer_bytes = layer.iact_elems + layer.oact_elems
        return (array.run_conv(layer).cycles
                + transfer_bytes / usb_bytes_per_cycle
                + invocation_overhead_cycles)

    return DeviceModel(name="Edge TPU", num_pes=1024, frequency_mhz=500.0,
                       layer_cycles=cycles)


def feather_fpga_device(rows: int = 36, cols: int = 36) -> DeviceModel:
    """FEATHER on ZCU104: 1296 PEs with flexible parallelism in M/C/H/W.

    Per-layer cycles assume the best of a small set of parallelism choices
    (the two-layout simplification of §VI-A2), with a controller-overhead
    factor on deep layers where the paper notes the hand-written controller
    trails the DPU's.
    """
    num_pes = rows * cols

    def cycles(layer: ConvLayerSpec) -> float:
        m, k, n = layer.as_gemm_shape()
        best = math.inf
        for pm in (rows // 4, rows // 2, rows, rows * 2, rows * 4):
            if pm < 1:
                continue
            pk = max(1, num_pes // pm)
            m_tiles = math.ceil(m / pm)
            k_tiles = math.ceil(k / min(pk, max(1, k)))
            passes = m_tiles * k_tiles
            fill = rows  # row-by-row drain through BIRRD
            candidate = passes * (n + fill)
            best = min(best, candidate)
        # Controller overhead on deep, channel-heavy layers (§VI-B2).
        overhead = 1.08 if layer.c >= 512 else 1.0
        return best * overhead

    return DeviceModel(name="FEATHER", num_pes=num_pes, frequency_mhz=100.0,
                       layer_cycles=cycles)
