"""Cross-module integration tests: the pieces of the paper working together."""

import numpy as np
import pytest

from repro.feather.accelerator import FeatherAccelerator, reference_conv
from repro.feather.config import FeatherConfig
from repro.feather.controller import generate_instruction_stream
from repro.feather.rir import RirPlanner
from repro.layout.layout import parse_layout
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.mapper import Mapper
from repro.search.config import SearchConfig
from repro.workloads.conv import ConvLayerSpec


class TestCosearchDrivesAccelerator:
    """The Layoutloop co-search picks a (dataflow, layout); the functional
    accelerator then runs the layer and must observe no conflicts — the end-to-
    end version of the paper's RIR claim."""

    def test_cosearched_pair_runs_conflict_free(self, rng):
        layer = ConvLayerSpec("e2e", m=8, c=8, h=8, w=8, r=3, s=3, padding=1)
        result = Mapper(feather_arch(4, 8),
                        SearchConfig(max_mappings=40)).search(layer)
        assert result.best_report.slowdown == 1.0

        config = FeatherConfig(array_rows=4, array_cols=8, stab_lines=1024)
        acc = FeatherAccelerator(config)
        iacts = rng.integers(-4, 5, (layer.c, layer.h, layer.w))
        weights = rng.integers(-3, 4, (layer.m, layer.c, layer.r, layer.s))
        out, stats = acc.run_conv(layer, iacts, weights,
                                  output_layout=parse_layout("MPQ_Q8"),
                                  input_layout=parse_layout("HWC_C8"))
        assert np.array_equal(out, reference_conv(iacts, weights, layer))
        assert stats.write_serialization == pytest.approx(1.0)

    def test_layer_chain_layout_coswitch(self, rng):
        """Two chained layers: layer 1 writes oActs in the layout layer 2 reads."""
        layer1 = ConvLayerSpec("chain1", m=8, c=4, h=6, w=6, r=3, s=3, padding=1)
        layer2 = ConvLayerSpec("chain2", m=4, c=8, h=6, w=6, r=1, s=1)

        config = FeatherConfig(array_rows=4, array_cols=8, stab_lines=1024)
        acc = FeatherAccelerator(config)
        next_layout = parse_layout("HWC_C8")  # what layer 2 wants (channel-last)

        iacts1 = rng.integers(-3, 4, (layer1.c, layer1.h, layer1.w))
        w1 = rng.integers(-2, 3, (layer1.m, layer1.c, layer1.r, layer1.s))
        out1, stats1 = acc.run_conv(layer1, iacts1, w1, output_layout=next_layout)
        assert stats1.write_serialization <= 2.0

        w2 = rng.integers(-2, 3, (layer2.m, layer2.c, layer2.r, layer2.s))
        out2, stats2 = acc.run_conv(layer2, out1, w2, input_layout=next_layout)
        ref2 = reference_conv(reference_conv(iacts1, w1, layer1), w2, layer2)
        assert np.array_equal(out2, ref2)
        assert stats2.read_slowdown == pytest.approx(1.0)

    def test_instruction_stream_for_layer_is_compact(self):
        """Per-layer BIRRD reconfiguration stays in the kilobyte range
        (the low-cost switching claim)."""
        config = FeatherConfig(array_rows=4, array_cols=8, stab_lines=1024)
        layout = parse_layout("MPQ_Q8")
        planner = RirPlanner(8, layout, {"M": 8, "P": 6, "Q": 6})
        plans = []
        for m in range(8):
            for p in range(6):
                coords = [{"M": m, "P": p, "Q": q} for q in range(6)]
                plans.append(planner.plan_cycle([[i] for i in range(6)], coords))
        stream = generate_instruction_stream(plans, config, route=False)
        assert stream.total_bytes < 4096

    def test_quantized_two_layer_pipeline(self, rng):
        """Int8 requantization between layers keeps values in range."""
        from repro.feather.quantize import QuantizationModule
        layer = ConvLayerSpec("quant", m=4, c=4, h=5, w=5, r=3, s=3, padding=1)
        config = FeatherConfig(array_rows=4, array_cols=4, stab_lines=512)
        acc = FeatherAccelerator(config)
        iacts = rng.integers(-4, 5, (layer.c, layer.h, layer.w))
        weights = rng.integers(-3, 4, (layer.m, layer.c, layer.r, layer.s))
        ref = reference_conv(iacts, weights, layer)
        qm = QuantizationModule.calibrated(ref.ravel().tolist())
        out, _ = acc.run_conv(layer, iacts, weights, quantizer=qm)
        # StaB contents (quantized) stay within int8.
        stored = [acc.stab_pong.peek_word(line, bank)
                  for line in range(8) for bank in range(4)]
        stored = [v for v in stored if v is not None]
        assert stored and all(-128 <= v <= 127 for v in stored)


class TestScalability:
    def test_feather_config_scales(self):
        for rows, cols in ((4, 4), (8, 8), (16, 16), (16, 32)):
            cfg = FeatherConfig(array_rows=rows, array_cols=cols)
            assert cfg.birrd_topology.num_stages >= 3
            assert cfg.stab_spec.banks == cols

    def test_accelerator_with_16_wide_array_runs(self, rng):
        layer = ConvLayerSpec("wide", m=16, c=8, h=6, w=6, r=1, s=1)
        cfg = FeatherConfig(array_rows=4, array_cols=16, stab_lines=512)
        acc = FeatherAccelerator(cfg)  # AW=16: BIRRD falls back to ideal mode
        iacts = rng.integers(-3, 4, (layer.c, layer.h, layer.w))
        weights = rng.integers(-2, 3, (layer.m, layer.c, layer.r, layer.s))
        out, stats = acc.run_conv(layer, iacts, weights)
        assert np.array_equal(out, reference_conv(iacts, weights, layer))
        assert stats.birrd_fallback_cycles > 0
