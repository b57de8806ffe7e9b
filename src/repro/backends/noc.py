"""Reduction-NoC evaluation backends: the paper's reference topologies.

Promotes the reference reduction networks of
:mod:`repro.noc.reference_networks` (Table I's comparison points against
BIRRD) to first-class evaluation backends — ``noc:linear`` (systolic-style
accumulation chain), ``noc:tree`` (MAERI ART-like binary adder tree) and
``noc:fan`` (SIGMA's forwarding adder network) — so one scenario sweep can
compare FEATHER against alternative reduction topologies on the same
workload grid.

Each backend starts from the analytical cost of the cell and adds the
*exposed* cost of its reduction topology: every array activation produces
spatial-reduction groups of ``mapping.spatial_reduction_size`` partial
sums, the reference network's ``reduce()`` prices one group merge, and
every reduction cycle beyond the single accumulate-per-step the baseline
model already assumes lands on the critical path.  A linear chain pays
O(group) per step, the trees pay O(log2(group)), and a serial mapping
(group 1) pays nothing — so searches on these backends trade spatial
reduction against its network cost, which is exactly the design question
the paper's Table I poses.  The group depends on the mapping alone, so
one ``evaluate`` call runs the network once for all of its layouts.

Constraints ride along (:func:`~repro.constraints.noc_constraints`): the
adder tree only reduces power-of-two groups, so ``noc:tree`` searches
repair reduction-dim parallel degrees down to powers of two, and direct
evaluations of an illegal cell fail with the violated constraint named.
"""

from __future__ import annotations

from typing import List

from repro.backends.base import BackendReport, EvaluationBackend, report_from_cost
from repro.backends.simulator import BackendCompatibilityError
from repro.constraints import noc_constraints
from repro.layoutloop.arch import ArchSpec
from repro.noc.reference_networks import (
    AdderTree,
    ForwardingAdderNetwork,
    LinearReductionChain,
)

#: Topology name -> reference network class.
TOPOLOGIES = {
    "linear": LinearReductionChain,
    "tree": AdderTree,
    "fan": ForwardingAdderNetwork,
}


class NocBackend(EvaluationBackend):
    """Analytical cell cost plus the exposed cost of one reduction topology."""

    def __init__(self, topology: str, arch: ArchSpec, seed: int = 0):
        if topology not in TOPOLOGIES:
            raise ValueError(f"unknown NoC topology {topology!r}; expected "
                             f"one of {sorted(TOPOLOGIES)}")
        super().__init__(arch, seed)
        self.topology = topology
        self.name = f"noc:{topology}"
        self.constraints = noc_constraints(topology, arch)

    # ------------------------------------------------------------- reduction
    def _reduction_cycles(self, mapping) -> tuple:
        """(cycles, adds) one group merge costs on this topology.

        Prices the merge by actually running the reference network on one
        group of partial sums — the functional models are the spec.
        """
        group = mapping.spatial_reduction_size
        if group <= 1:
            return 0, 0
        if self.topology == "tree":
            if group & (group - 1):
                raise BackendCompatibilityError(
                    f"constraint 'pow2-spatial-reduction' violated: the "
                    f"adder tree of backend {self.name!r} reduces "
                    f"power-of-two groups only, but mapping "
                    f"{mapping.name!r} spatially reduces {group} partial "
                    f"sums; search with the backend's ConstraintSet (or "
                    f"repair the mapping) instead")
            outcome = AdderTree(group).reduce([0] * group, group)
        elif self.topology == "fan":
            width = 1 << (group - 1).bit_length()
            outcome = ForwardingAdderNetwork(width).reduce_groups(
                [0] * group, [0])
        else:
            outcome = LinearReductionChain(group).reduce([0] * group, group)
        return outcome.cycles, outcome.adds

    # -------------------------------------------------------------- evaluate
    def evaluate(self, workload, mapping, layouts) -> List[BackendReport]:
        costs = self.cost_model.evaluate_mapping_batch(workload, mapping,
                                                       layouts)
        cycles_per_step, adds_per_step = self._reduction_cycles(mapping)
        # The analytical model already accounts one accumulate per step;
        # anything beyond it is exposed reduction latency.
        exposed_per_step = max(0, cycles_per_step - 1)
        steps = mapping.compute_cycles(workload)
        exposed = float(exposed_per_step) * float(steps)
        extra = {
            "reduction_group": float(mapping.spatial_reduction_size),
            "reduction_cycles_per_step": float(cycles_per_step),
            "reduction_adds_per_step": float(adds_per_step),
            "reduction_cycles_exposed": exposed,
        }
        reports = []
        for cost in costs:
            total_cycles = cost.total_cycles + exposed
            practical = (cost.macs / (total_cycles * self.arch.num_pes)
                         if total_cycles else 0.0)
            reports.append(report_from_cost(
                cost, self.name, extra=extra,
                stall_cycles=cost.stall_cycles + exposed,
                total_cycles=total_cycles,
                practical_utilization=min(1.0, practical)))
        return reports
