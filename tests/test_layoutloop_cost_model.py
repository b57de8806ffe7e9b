"""Tests for the Layoutloop cost model."""

from unittest import mock

import pytest

from reference import reference_evaluate
from repro.dataflow.mapping import (
    output_stationary_mapping,
    weight_stationary_mapping,
)
from repro.layout.layout import parse_layout
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.cost_model import CostModel, streaming_tensor_dims
from repro.layoutloop.mapper import Mapper
from repro.baselines.registry import nvdla_like, sigma_like
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

LAYER = ConvLayerSpec("layer", m=64, c=64, h=14, w=14, r=3, s=3, stride=1, padding=1)
GEMM = GemmSpec("gemm", m=64, k=128, n=96)


class TestStreamingTensorDims:
    def test_conv(self):
        dims = streaming_tensor_dims(LAYER)
        assert dims == {"C": 64, "H": 14, "W": 14}

    def test_gemm(self):
        dims = streaming_tensor_dims(GEMM)
        assert dims == {"M": 64, "K": 128}

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            streaming_tensor_dims("nope")


class TestEvaluate:
    def test_compute_cycles_and_utilization_consistent(self):
        model = CostModel(sigma_like(layout="HWC_C32"))
        mapping = weight_stationary_mapping(LAYER, 16, 16)
        report = model.evaluate(LAYER, mapping, parse_layout("HWC_C32"))
        assert report.macs == LAYER.macs
        assert report.utilization == pytest.approx(
            report.macs / (report.compute_cycles * 256))

    def test_concordant_layout_no_stalls(self):
        model = CostModel(sigma_like(layout="HWC_C32"))
        mapping = weight_stationary_mapping(LAYER, 16, 16)
        report = model.evaluate(LAYER, mapping, parse_layout("HWC_C32"))
        assert report.slowdown == pytest.approx(1.0)
        assert report.stall_cycles == 0

    def test_discordant_layout_stalls(self):
        model = CostModel(sigma_like(layout="HCW_W8"))
        mapping = weight_stationary_mapping(LAYER, 16, 16)  # C-parallel reads
        report = model.evaluate(LAYER, mapping, parse_layout("HCW_W8"))
        assert report.slowdown > 1.0
        assert report.total_cycles > report.compute_cycles

    def test_feather_never_stalls(self):
        model = CostModel(feather_arch())
        mapping = weight_stationary_mapping(LAYER, 16, 16)
        report = model.evaluate(LAYER, mapping, parse_layout("HCW_W8"))
        assert report.slowdown == 1.0

    def test_output_stationary_vs_weight_stationary_energy_differs(self):
        model = CostModel(feather_arch())
        ws = model.evaluate(LAYER, weight_stationary_mapping(LAYER, 16, 16),
                            parse_layout("HWC_C32"))
        os_ = model.evaluate(LAYER, output_stationary_mapping(LAYER, 16, 16),
                             parse_layout("HWC_C32"))
        assert ws.total_energy_pj != os_.total_energy_pj

    def test_energy_breakdown_components(self):
        model = CostModel(feather_arch())
        report = model.evaluate(LAYER, weight_stationary_mapping(LAYER, 16, 16),
                                parse_layout("HWC_C32"))
        for key in ("mac", "register", "buffer_read", "buffer_write", "dram", "noc"):
            assert key in report.energy_breakdown_pj
            assert report.energy_breakdown_pj[key] > 0

    def test_edp_positive(self):
        model = CostModel(feather_arch())
        report = model.evaluate(LAYER, weight_stationary_mapping(LAYER, 16, 16),
                                parse_layout("HWC_C32"))
        assert report.edp > 0
        assert report.energy_per_mac_pj > 0

    def test_latency_seconds(self):
        model = CostModel(feather_arch())
        report = model.evaluate(LAYER, weight_stationary_mapping(LAYER, 16, 16),
                                parse_layout("HWC_C32"))
        assert report.latency_seconds(1000.0) == pytest.approx(
            report.total_cycles / 1e9)

    def test_gemm_evaluation(self):
        model = CostModel(feather_arch())
        mapping = weight_stationary_mapping(GEMM, 16, 16)
        report = model.evaluate(GEMM, mapping, parse_layout("MK_K32"))
        assert report.macs == GEMM.macs
        assert report.total_cycles > 0


class TestReorderCosts:
    def test_offchip_reorder_adds_latency_and_energy(self):
        offchip = CostModel(sigma_like(layout=None, reorder="offchip"))
        baseline = CostModel(sigma_like(layout="HWC_C32", reorder="none"))
        mapping = weight_stationary_mapping(LAYER, 16, 16)
        layout = parse_layout("HWC_C32")
        off_report = offchip.evaluate(LAYER, mapping, layout)
        base_report = baseline.evaluate(LAYER, mapping, layout)
        assert off_report.reorder_cycles_exposed > 0
        assert off_report.total_energy_pj > base_report.total_energy_pj

    def test_rar_reorder_adds_latency(self):
        rar = CostModel(sigma_like(layout=None, reorder="transpose"))
        mapping = weight_stationary_mapping(LAYER, 16, 16)
        report = rar.evaluate(LAYER, mapping, parse_layout("HWC_C32"))
        assert report.reorder_cycles_exposed > 0

    def test_rir_reorder_is_latency_free(self):
        rir = CostModel(feather_arch())
        mapping = weight_stationary_mapping(LAYER, 16, 16)
        report = rir.evaluate(LAYER, mapping, parse_layout("HWC_C32"))
        assert report.reorder_cycles_exposed == 0

    def test_rir_cheaper_reorder_energy_than_offchip(self):
        mapping = weight_stationary_mapping(LAYER, 16, 16)
        layout = parse_layout("HWC_C32")
        rir = CostModel(feather_arch()).evaluate(LAYER, mapping, layout)
        off = CostModel(sigma_like(layout=None, reorder="offchip")).evaluate(
            LAYER, mapping, layout)
        assert rir.energy_breakdown_pj.get("reorder", 0) < \
            off.energy_breakdown_pj.get("reorder", float("inf"))

    def test_nvdla_has_no_reorder_cost(self):
        model = CostModel(nvdla_like())
        mapping = weight_stationary_mapping(LAYER, 16, 16)
        report = model.evaluate(LAYER, mapping, parse_layout("HWC_C32"))
        assert report.reorder_cycles_exposed == 0
        assert "reorder" not in report.energy_breakdown_pj


class TestCrossLinePermute:
    def test_offchip_prices_every_layout_without_the_kernel(self):
        """Arbitrary reorder serves every bank conflict, so the off-chip
        SIGMA prices a conv and a GEMM mapping under every candidate layout
        with neither a footprint nor a kernel call, and its values and
        reports still equal the scalar oracle's."""
        arch = sigma_like(reorder="offchip")
        model = CostModel(arch)
        for workload in (LAYER, GEMM):
            mapping = weight_stationary_mapping(workload, 16, 16)
            layouts = Mapper(arch).candidate_layouts(workload)
            expected = [reference_evaluate(model, workload, mapping, layout)
                        for layout in layouts]
            with mock.patch(
                    "repro.layoutloop.cost_model.analyze_concordance_batch",
                    side_effect=AssertionError("kernel called")), \
                mock.patch(
                    "repro.layoutloop.cost_model.streaming_access_coords",
                    side_effect=AssertionError("footprint built")):
                values = model.evaluate_values(workload, mapping, layouts)
                reports = model.evaluate_mapping_batch(workload, mapping,
                                                       layouts)
            assert values == [(r.total_cycles, r.total_energy_pj, r.slowdown)
                              for r in expected]
            assert reports == expected
            assert {r.slowdown for r in expected} == {1.0}
