"""BIRRD: Butterfly Interconnect for Reduction and Reordering in Dataflows.

The topology follows Algorithm 1 of the paper: an ``AW``-input network of
``2 * log2(AW)`` stages (three stages for the merged AW = 4 special case),
``AW / 2`` two-input/two-output switches ("Eggs") per stage, with inter-stage
wiring given by a partial bit-reversal whose width grows then shrinks — two
butterfly networks placed back to back.

Each Egg supports four configurations (Fig. 8):

* ``PASS``      — left/right inputs go straight through,
* ``SWAP``      — left and right are exchanged,
* ``ADD_LEFT``  — the sum of both inputs leaves on the left port and the
  right output inherits the right input,
* ``ADD_RIGHT`` — the sum leaves on the right port and the left output
  inherits the left input.

:class:`BirrdNetwork` simulates the network cycle-functionally over arbitrary
Python values (ints, floats, numpy scalars) and also symbolically over sets of
input indices, which is what the router uses to verify that a configuration
realises a requested reduction/reordering.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def reverse_bits(data: int, bit_range: int) -> int:
    """Reverse the low ``bit_range`` bits of ``data`` (Alg. 1 lines 2-9)."""
    if bit_range < 0:
        raise ValueError("bit_range must be >= 0")
    mask = (1 << bit_range) - 1
    reversed_bits = 0
    for i in range(bit_range):
        if data & (1 << i):
            reversed_bits |= 1 << (bit_range - 1 - i)
    return (data & ~mask) | reversed_bits


class EggConfig(enum.Enum):
    """Configuration of one 2x2 reorder-reduction switch."""

    PASS = "="
    SWAP = "x"
    ADD_LEFT = "add_left"
    ADD_RIGHT = "add_right"

    @property
    def control_bits(self) -> int:
        """Two-bit control word (Fig. 8 says each Egg uses 2 bits)."""
        return {"=": 0b00, "x": 0b01, "add_left": 0b10, "add_right": 0b11}[self.value]


@dataclass(frozen=True)
class BirrdTopology:
    """Static structure of an ``AW``-input BIRRD."""

    aw: int

    def __post_init__(self) -> None:
        if self.aw < 2 or self.aw & (self.aw - 1):
            raise ValueError(f"AW must be a power of two >= 2, got {self.aw}")

    @property
    def log_aw(self) -> int:
        return int(math.log2(self.aw))

    @property
    def num_stages(self) -> int:
        """Number of switch stages.

        ``2 * log2(AW)`` in general; the paper's footnote 1 merges the middle
        stages for AW = 4 giving three stages, and a 2-input network is a
        single switch.
        """
        if self.aw == 2:
            return 1
        if self.aw == 4:
            return 3
        return 2 * self.log_aw

    @property
    def switches_per_stage(self) -> int:
        return self.aw // 2

    @property
    def num_switches(self) -> int:
        return self.num_stages * self.switches_per_stage

    def stage_bit_range(self, stage: int) -> int:
        """Width of the bit reversal applied after ``stage`` (Alg. 1 line 12)."""
        if not 0 <= stage < self.num_stages:
            raise IndexError(f"stage {stage} out of range")
        return min(self.log_aw, 2 + stage, self.num_stages - stage)

    def inter_stage_dest(self, stage: int, port: int) -> int:
        """Input port at ``stage + 1`` that output ``port`` of ``stage`` drives.

        For the final stage this gives the output-buffer bank index.
        """
        if not 0 <= port < self.aw:
            raise IndexError(f"port {port} out of range")
        return reverse_bits(port, self.stage_bit_range(stage))

    def connectivity(self) -> List[List[int]]:
        """Full wiring table: ``table[stage][port] -> next-stage port``."""
        return [
            [self.inter_stage_dest(stage, port) for port in range(self.aw)]
            for stage in range(self.num_stages)
        ]

    @property
    def config_bits_per_cycle(self) -> int:
        """Instruction width: 2 bits per switch (compare Fig. 8's IB sizing)."""
        return 2 * self.num_switches


class BirrdNetwork:
    """Functional simulator for a configured BIRRD instance.

    The network is purely combinational within a cycle: :meth:`evaluate` takes
    one value (or ``None``) per input port plus a full configuration and
    returns one value (or ``None``) per output port.  ``add`` controls how two
    values are combined, defaulting to ``+`` — substituting set-union turns
    the same machinery into the symbolic evaluator the router relies on.
    """

    def __init__(self, aw: int):
        self.topology = BirrdTopology(aw)
        #: ``wiring[stage][port]``: the next-stage port (built once).
        self.wiring = self.topology.connectivity()

    @property
    def aw(self) -> int:
        return self.topology.aw

    # -------------------------------------------------------------- evaluation
    @staticmethod
    def _combine(left, right, add: Callable):
        if left is None:
            return right
        if right is None:
            return left
        return add(left, right)

    def _apply_switch(self, config: EggConfig, left, right, add: Callable):
        if config is EggConfig.PASS:
            return left, right
        if config is EggConfig.SWAP:
            return right, left
        if config is EggConfig.ADD_LEFT:
            return self._combine(left, right, add), right
        if config is EggConfig.ADD_RIGHT:
            return left, self._combine(left, right, add)
        raise ValueError(f"unknown config {config!r}")

    def evaluate(self, inputs: Sequence, configs: Sequence[Sequence[EggConfig]],
                 add: Callable = lambda a, b: a + b) -> List:
        """Propagate ``inputs`` through the network under ``configs``.

        ``configs[stage][switch]`` names the Egg configuration; a missing
        switch config defaults to ``PASS``.
        """
        topo = self.topology
        if len(inputs) != topo.aw:
            raise ValueError(f"expected {topo.aw} inputs, got {len(inputs)}")
        if len(configs) != topo.num_stages:
            raise ValueError(
                f"expected {topo.num_stages} stages of configs, got {len(configs)}")

        wires = list(inputs)
        for stage in range(topo.num_stages):
            stage_cfg = list(configs[stage])
            if len(stage_cfg) < topo.switches_per_stage:
                stage_cfg += [EggConfig.PASS] * (topo.switches_per_stage - len(stage_cfg))
            # Switch evaluation.
            switched = [None] * topo.aw
            for sw in range(topo.switches_per_stage):
                left_idx, right_idx = 2 * sw, 2 * sw + 1
                out_l, out_r = self._apply_switch(
                    stage_cfg[sw], wires[left_idx], wires[right_idx], add)
                switched[left_idx], switched[right_idx] = out_l, out_r
            # Inter-stage permutation (also applies after the final stage,
            # mapping onto the output-buffer banks).
            permuted = [None] * topo.aw
            for port, dest in enumerate(self.wiring[stage]):
                permuted[dest] = switched[port]
            wires = permuted
        return wires

    def evaluate_symbolic(self, active_inputs: Sequence[int],
                          configs: Sequence[Sequence[EggConfig]]) -> List[frozenset]:
        """Propagate input-index sets; output ``p`` holds the set of inputs summed there."""
        inputs = [frozenset({i}) if i in set(active_inputs) else None
                  for i in range(self.aw)]
        outputs = self.evaluate(inputs, configs, add=lambda a, b: a | b)
        return [o if o is not None else frozenset() for o in outputs]

    # ------------------------------------------------------------------ checks
    def verify(self, inputs: Sequence, configs: Sequence[Sequence[EggConfig]],
               expected: Dict[int, object], add: Callable = lambda a, b: a + b,
               ) -> bool:
        """Check that the configured network produces ``expected[port] == value``."""
        outputs = self.evaluate(inputs, configs, add=add)
        return all(outputs[port] == value for port, value in expected.items())

    def identity_configuration(self) -> List[List[EggConfig]]:
        """All-PASS configuration (the data still traverses the wiring permutation)."""
        topo = self.topology
        return [[EggConfig.PASS] * topo.switches_per_stage for _ in range(topo.num_stages)]
