"""Per-access energy table for the Layoutloop energy model.

Values are pJ per access at a 28nm-class node, following the relative
ordering every accelerator paper (Eyeriss, Timeloop/Accelergy) reports:
a register access costs about as much as a MAC, an on-chip SRAM access is
roughly an order of magnitude more, and a DRAM access is roughly two orders
of magnitude more.  Absolute values are documented as calibrated; the
experiments report normalized pJ/MAC, so only the ratios matter for the
reproduced trends.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyTable:
    """pJ costs of the actions the cost model counts."""

    mac_int8_pj: float = 0.3
    register_access_pj: float = 0.15
    buffer_read_per_word_pj: float = 3.0
    buffer_write_per_word_pj: float = 3.3
    noc_hop_per_word_pj: float = 0.35
    dram_access_per_byte_pj: float = 60.0
    reorder_unit_per_word_pj: float = 0.9
    birrd_per_word_pj: float = 0.45


DEFAULT_ENERGY_TABLE = EnergyTable()
