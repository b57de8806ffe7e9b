"""Reorder-in-Reduction (RIR) planning.

RIR is the paper's central mechanism (§IV): instead of transforming iActs from
one layout to another, BIRRD scatters *post-reduction* oActs directly into the
stationary-buffer banks demanded by the next layer's layout.  The planner here
does exactly the offline work the paper's toolchain does: for every Phase-2
drain cycle of the NEST it

1. groups the ``AW`` column-bus partial sums into reduction groups,
2. looks up each group's output coordinate in the *next layer's* layout to get
   its (line, bank) destination in the StaB Pong,
3. emits a :class:`~repro.noc.routing.ReductionRequest` set for BIRRD plus the
   per-bank write addresses, and
4. reports whether the writes of that cycle exceed the banks' port budget
   (they never should when the (dataflow, layout) pair was co-searched — this
   is the RIR invariant the tests check).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.layout.layout import Layout
from repro.noc.routing import ReductionRequest


@dataclass(frozen=True)
class WriteCommand:
    """One oAct write into the StaB: which bank, which line, which logical coord."""

    bank: int
    line: int
    coord: Tuple[Tuple[str, int], ...]


@dataclass
class RirPlan:
    """BIRRD + write-back plan for one Phase-2 drain cycle."""

    requests: List[ReductionRequest]
    writes: List[WriteCommand]
    banks_over_budget: Dict[int, int] = field(default_factory=dict)
    serialization_factor: float = 1.0

    @property
    def conflict_free(self) -> bool:
        return not self.banks_over_budget


class RirPlanner:
    """Plans reduction groups and destination banks for FEATHER's write-back path."""

    def __init__(self, aw: int, output_layout: Layout, output_dims: Dict[str, int],
                 ports_per_bank: int = 2):
        if aw < 2:
            raise ValueError("AW must be >= 2")
        self.aw = aw
        self.output_layout = output_layout
        self.output_dims = dict(output_dims)
        self.ports_per_bank = ports_per_bank

    # ----------------------------------------------------------------- helpers
    def destination(self, coord: Dict[str, int]) -> Tuple[int, int]:
        """(line, bank) destination of one oAct under the next layer's layout.

        The StaB is word-interleaved, so the intra-line offset *is* the bank
        index and the line index is the write address within that bank.
        """
        line, offset = self.output_layout.address(coord, self.output_dims)
        bank = offset % self.aw
        return line, bank

    # -------------------------------------------------------------------- plan
    def plan_cycle(self, group_inputs: Sequence[Sequence[int]],
                   group_coords: Sequence[Dict[str, int]]) -> RirPlan:
        """Plan one drain cycle.

        ``group_inputs[i]`` lists the BIRRD input ports whose partial sums
        reduce into output ``i``; ``group_coords[i]`` is that output's logical
        coordinate.  Groups whose destination banks collide beyond the port
        budget are still planned (BIRRD can deliver them over consecutive
        cycles) but the plan records the serialization factor.
        """
        if len(group_inputs) != len(group_coords):
            raise ValueError("need one coordinate per reduction group")
        if len(group_inputs) > self.aw:
            raise ValueError(f"at most {self.aw} reduction groups per cycle")

        writes: List[WriteCommand] = []
        bank_load: Dict[int, int] = defaultdict(int)
        used_ports: Dict[int, int] = defaultdict(int)
        requests: List[ReductionRequest] = []

        for inputs, coord in zip(group_inputs, group_coords):
            line, bank = self.destination(coord)
            bank_load[bank] += 1
            writes.append(WriteCommand(bank=bank, line=line,
                                       coord=tuple(sorted(coord.items()))))

        # BIRRD output port assignment: each group targets its destination bank's
        # port.  If several groups share a bank this cycle, later ones shift to
        # the nearest free port — numerically they are still written to the
        # correct bank, just serialized over extra cycles, which the
        # serialization factor captures.
        taken = set()
        for (inputs, coord), write in zip(zip(group_inputs, group_coords), writes):
            port = write.bank
            while port in taken:
                port = (port + 1) % self.aw
            taken.add(port)
            requests.append(ReductionRequest(output_port=port, inputs=tuple(inputs)))
            used_ports[write.bank] += 1

        over = {bank: count for bank, count in bank_load.items()
                if count > self.ports_per_bank}
        worst = max((count / self.ports_per_bank for count in bank_load.values()),
                    default=1.0)
        return RirPlan(
            requests=requests,
            writes=writes,
            banks_over_budget=over,
            serialization_factor=max(1.0, worst),
        )

    # ------------------------------------------------------------------- audit
    def audit_layer(self, all_cycle_coords: Sequence[Sequence[Dict[str, int]]]
                    ) -> Dict[str, float]:
        """Check the RIR invariant over a whole layer's worth of drain cycles.

        Returns aggregate statistics: fraction of conflict-free cycles and the
        average serialization factor.  A co-searched (dataflow, layout) pair
        should report ``conflict_free_fraction == 1.0``.
        """
        if not all_cycle_coords:
            return {"cycles": 0, "conflict_free_fraction": 1.0, "avg_serialization": 1.0}
        conflict_free = 0
        total_serial = 0.0
        for coords in all_cycle_coords:
            groups = [[i] for i in range(len(coords))]
            plan = self.plan_cycle(groups, coords)
            if plan.conflict_free:
                conflict_free += 1
            total_serial += plan.serialization_factor
        cycles = len(all_cycle_coords)
        return {
            "cycles": cycles,
            "conflict_free_fraction": conflict_free / cycles,
            "avg_serialization": total_serial / cycles,
        }
