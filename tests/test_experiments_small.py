"""Tests for the lightweight experiment modules (Fig. 4, 9, 10, 11, 14, tables)
and for the scenario-layer ports of the figure co-searches."""

import pytest

from repro.experiments import fig2, fig4, fig9, fig10, fig11, fig14, tables
from repro.experiments.common import format_table, geomean, normalize
from repro.layout.library import conv_layout_library
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.mapper import Mapper
from repro.scenarios import ports, run_cell, run_matrix
from repro.scenarios.registry import resolve_workload_set
from repro.search.config import SearchConfig


class TestCommonHelpers:
    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([]) == 0.0

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "a" in text and "2.500" in text

    def test_normalize(self):
        out = normalize({"x": 2.0, "y": 4.0}, "x")
        assert out == {"x": 1.0, "y": 2.0}


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig4.run()

    def test_eight_mappings(self, rows):
        assert [r.mapping for r in rows] == [f"M{i}" for i in range(1, 9)]

    def test_feather_picks_are_concordant(self, rows):
        picks = fig4.feather_picks(rows)
        for pick in picks.values():
            assert pick.practical_utilization == pytest.approx(1.0)
            assert pick.slowdown == pytest.approx(1.0)

    def test_dataflow_matters(self, rows):
        # Paper takeaway: M1 vs M4 on the same workload differ in utilization.
        by_id = {r.mapping: r for r in rows}
        assert by_id["M4"].practical_utilization > by_id["M1"].practical_utilization

    def test_layout_matters(self, rows):
        # Paper takeaway: M2 vs M4 use the same dataflow but different layouts.
        by_id = {r.mapping: r for r in rows}
        assert by_id["M4"].practical_utilization > by_id["M2"].practical_utilization

    def test_discordant_mappings_stall(self, rows):
        by_id = {r.mapping: r for r in rows}
        for mid in ("M2", "M3", "M7"):
            assert by_id[mid].slowdown > 1.0

    def test_concordant_mappings_read_fewer_lines(self, rows):
        by_id = {r.mapping: r for r in rows}
        assert by_id["M4"].lines_per_cycle < by_id["M2"].lines_per_cycle
        assert by_id["M8"].lines_per_cycle < by_id["M7"].lines_per_cycle


class TestFig9:
    def test_walkthrough(self):
        result = fig9.run()
        assert result.correct
        assert result.spatial_reduction_group >= 2
        assert result.row_drains > 0
        assert result.weight_load_cycles_hidden == 16  # AH^2 for the 4x4 array


class TestFig10:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig10.run(max_mappings=150)

    def test_four_workloads(self, rows):
        assert len(rows) == 4

    def test_feather_never_worse(self, rows):
        for row in rows:
            assert row.feather_utilization >= row.systolic_utilization - 1e-9

    def test_feather_wins_on_skewed_shapes(self, rows):
        by_name = {r.workload: r for r in rows}
        assert by_name["workload_C"].feather_advantage > 1.2
        assert by_name["workload_D"].feather_advantage > 1.2

    def test_regular_workload_both_full(self, rows):
        a = next(r for r in rows if r.workload == "workload_A")
        assert a.systolic_utilization == pytest.approx(1.0)
        assert a.feather_utilization == pytest.approx(1.0)

    def test_summary(self, rows):
        s = fig10.summary(rows)
        assert s["feather_avg_utilization"] > s["systolic_avg_utilization"]


class TestFig11:
    def test_rir_walkthrough(self):
        result = fig11.run()
        assert result.correct
        assert result.conflict_free
        assert result.input_layout == "HWC_C4"
        assert result.output_layout == "MPQ_Q4"

    def test_write_trace_covers_all_oacts(self):
        result = fig11.run()
        layer = fig11.walkthrough_layer()
        assert len(result.write_trace) == layer.oact_elems

    def test_writes_balanced_across_banks(self):
        result = fig11.run()
        layer = fig11.walkthrough_layer()
        counts = list(result.writes_per_bank.values())
        # The row-major output layout spreads oActs over one bank per output
        # column (Q = 3 here), and every used bank gets the same share.
        assert len(counts) == min(4, layer.q)
        assert max(counts) == min(counts)


class TestFig14:
    def test_fig14a_ratios(self):
        rows = fig14.run_fig14a((64, 256))
        for row in rows:
            assert 1.1 < row.birrd_over_fan_area < 1.9
            assert 1.7 < row.birrd_over_art_area < 2.9

    def test_fig14b_headlines(self):
        result = fig14.run_fig14b()
        assert 0.95 < result.feather_over_eyeriss < 1.3
        assert result.sigma_over_feather > 1.8
        assert result.birrd_area_fraction < 0.1

    def test_combined_run(self):
        out = fig14.run()
        assert "fig14a" in out and "fig14b" in out


class TestTables:
    def test_table_i(self):
        rows = tables.table_i()
        assert any(r["work"] == "FEATHER" for r in rows)
        assert len(rows) >= 8

    def test_table_iii(self):
        rows = tables.table_iii()
        assert rows[-1]["work"] == "FEATHER"
        assert rows[-1]["implementation"] == "RIR"

    def test_table_iv(self):
        rows = tables.table_iv()
        assert len(rows) == 9
        feather = next(r for r in rows if r["name"] == "FEATHER")
        assert feather["dataflow"] == "TOPS"

    def test_table_v(self):
        rows = tables.table_v_rows()
        assert len(rows) == 7


class TestScenarioPorts:
    """Every figure's co-search runs through its port, Fig. 2's too.

    Fig. 2 reads its FEATHER and theory columns from the per-layer winners
    of its port cells; the fact that lets one search serve both columns is
    pinned here.  Every comparison below is ``==``, never ``approx``.
    """

    def test_fig2_port_matches_legacy_feather_column(self):
        """``fig2.run`` reads each motivation layer's FEATHER latency from
        the port cell's winner for that layer, by layer name: a cell run
        on its own gives the same latency per name."""
        legacy = fig2.run(max_mappings=20, full_model_layers=2,
                          models=("resnet50",))
        matrix = ports.fig2_scenarios(max_mappings=20, models=("resnet50",))
        record = run_cell(matrix[0]).record
        latencies = ports.fig2_feather_latencies(record)
        motivation_rows = legacy["resnet50"][:-1]  # drop the full-model bar
        assert len(latencies) == len(motivation_rows)
        for row in motivation_rows:
            assert latencies[row.workload] == row.feather_latency

    @pytest.mark.parametrize("metric", ["latency", "edp"])
    def test_fig2_theory_search_is_feathers_own(self, metric):
        """On FEATHER the layout-blind search (one layout) returns the
        co-search's winner, on every Fig. 2 layer: FEATHER prices every
        layout at slowdown 1.0 and ties break to layout index 0.
        ``fig2.run`` reads its theory column from the FEATHER winner on
        this fact; a cost model that prices FEATHER's layouts apart fails
        here, and Fig. 2 would then need the restricted search back."""
        config = SearchConfig(metric=metric, max_mappings=20)
        theory = Mapper(feather_arch(16, 16), config)
        feather = Mapper(feather_arch(16, 16), config)
        theory_layouts = [conv_layout_library()[0]]
        specs = [spec for model in ("resnet50", "mobilenet_v3")
                 for spec in (f"fig2_{model}_motivation", f"{model}[:12]")]
        layers = [layer for spec in specs
                  for layer in resolve_workload_set(spec)]
        assert len(layers) > 24
        for layer in layers:
            blind = theory.search(layer, layouts=theory_layouts)
            best = feather.search(layer)
            assert blind.best_report == best.best_report, layer.name
            assert blind.best_mapping == best.best_mapping, layer.name
            assert blind.best_layout == best.best_layout, layer.name

    def test_search_stats_rows_cover_the_suite(self):
        matrix = ports.tables_scenarios("resnet50[:2]", max_mappings=12)
        rows = ports.search_stats_rows_from_records(
            run_matrix(matrix).records)
        assert [row["arch"] for row in rows] == [s.arch for s in matrix]
        for row in rows:
            assert row["unique_layers"] == 2
            assert row["evaluations"] > 0
            assert 0.0 <= row["cache_hit_rate"] <= 1.0
