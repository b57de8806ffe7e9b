"""Tests for architecture specs and the energy table."""

import pytest

from repro.layout.patterns import ReorderImplementation, ReorderPattern
from repro.layoutloop.arch import ArchSpec, BufferGeometry, feather_arch
from repro.layoutloop.energy import DEFAULT_ENERGY_TABLE, EnergyTable


class TestBufferGeometry:
    def test_conflict_depth(self):
        buf = BufferGeometry(num_lines=2048, line_size=32, banks=32)
        assert buf.conflict_depth == 64

    def test_capacity(self):
        buf = BufferGeometry(num_lines=1024, line_size=16, banks=16, word_bits=8)
        assert buf.capacity_bytes == 16384

    def test_peak_words(self):
        buf = BufferGeometry(num_lines=1024, line_size=16, banks=8, ports_per_bank=2)
        assert buf.peak_words_per_cycle == 16


class TestArchSpec:
    def test_num_pes(self):
        arch = ArchSpec("a", pe_rows=16, pe_cols=16)
        assert arch.num_pes == 256

    def test_offchip_bytes_per_cycle(self):
        arch = ArchSpec("a", pe_rows=4, pe_cols=4, offchip_bandwidth_gbps=100.0,
                        frequency_mhz=1000.0)
        assert arch.offchip_bytes_per_cycle == pytest.approx(100.0)

    def test_with_reorder(self):
        arch = ArchSpec("a", pe_rows=4, pe_cols=4)
        upgraded = arch.with_reorder(ReorderPattern.TRANSPOSE,
                                     ReorderImplementation.RAR)
        assert upgraded.reorder_pattern is ReorderPattern.TRANSPOSE
        assert arch.reorder_pattern is ReorderPattern.NONE  # original unchanged

    def test_describe_mentions_knobs(self):
        desc = feather_arch().describe()
        assert "TOPS" in desc
        assert "FEATHER" in desc

    def test_feather_arch_defaults(self):
        arch = feather_arch(16, 16)
        assert arch.reorder_implementation is ReorderImplementation.RIR
        assert arch.runtime_layout_flexible
        assert arch.buffer.banks == 16

    def test_feather_arch_overrides(self):
        arch = feather_arch(8, 8, frequency_mhz=500.0)
        assert arch.frequency_mhz == 500.0


class TestEnergyTable:
    def test_ordering_of_costs(self):
        t = DEFAULT_ENERGY_TABLE
        # Register < buffer < DRAM, the universally reported hierarchy.
        assert t.register_access_pj < t.buffer_read_per_word_pj
        assert t.buffer_read_per_word_pj < t.dram_access_per_byte_pj

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_ENERGY_TABLE.mac_int8_pj = 1.0
