"""The analytical backend: Layoutloop's cost model behind the protocol.

A thin wrapper over :class:`~repro.layoutloop.cost_model.CostModel` that
prices every cell through the batched
:meth:`~repro.layoutloop.cost_model.CostModel.evaluate_mapping_batch`,
afresh on every call: per-cell callers (eval requests, the multi-fidelity
ladder) get full reports, and nothing is memoized here.  The search's
value memo (:class:`~repro.search.cache.EvaluationCache`) belongs to the
:class:`~repro.layoutloop.mapper.Mapper`, which uses
``backend.cost_model`` directly on its hot path (memoized value entries,
admissible pruning), so the protocol adds a uniform surface, not a new
code path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backends.base import BackendReport, EvaluationBackend, report_from_cost
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cost_model import CostModel
from repro.layoutloop.energy import EnergyTable


class AnalyticalBackend(EvaluationBackend):
    """Timeloop-style analytical evaluation (§V), batched.

    ``seed`` is accepted for registry-signature uniformity and ignored:
    the analytical model is deterministic by construction.
    """

    name = "analytical"

    def __init__(self, arch: ArchSpec, energy: Optional[EnergyTable] = None,
                 seed: int = 0):
        super().__init__(arch)
        del seed  # deterministic: nothing to seed
        self.cost_model = CostModel(arch, energy)

    @property
    def energy(self):
        """The energy table the cost model prices components with."""
        return self.cost_model.energy

    def evaluate(self, workload, mapping, layout) -> BackendReport:
        return self.evaluate_mapping(workload, mapping, [layout])[0]

    def evaluate_mapping(self, workload, mapping,
                         layouts: Sequence) -> List[BackendReport]:
        return [report_from_cost(report, backend=self.name)
                for report in self.cost_model.evaluate_mapping_batch(
                    workload, mapping, layouts)]
