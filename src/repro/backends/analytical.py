"""The analytical backend: Layoutloop's cost model behind the protocol.

A thin wrapper over the backend's own
:class:`~repro.layoutloop.cost_model.CostModel`: every cell is priced
afresh through the batched
:meth:`~repro.layoutloop.cost_model.CostModel.evaluate_mapping_batch`
(one call per mapping in :meth:`EvaluationBackend.evaluate_mapping`), so
per-cell callers (eval requests, the multi-fidelity ladder) get full
reports and nothing is memoized here.  The search's value memo
(:class:`~repro.search.cache.EvaluationCache`) belongs to the
:class:`~repro.layoutloop.mapper.Mapper`, which uses ``backend.cost_model``
directly on its hot path (memoized value entries, admissible pruning), so
the protocol adds a uniform surface, not a new code path.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import BackendReport, EvaluationBackend, report_from_cost
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.energy import EnergyTable


class AnalyticalBackend(EvaluationBackend):
    """Timeloop-style analytical evaluation (§V), batched.

    ``seed`` is accepted for registry-signature uniformity and ignored:
    the analytical model is deterministic by construction.
    """

    name = "analytical"

    def __init__(self, arch: ArchSpec, energy: Optional[EnergyTable] = None,
                 seed: int = 0):
        super().__init__(arch, energy)
        del seed  # deterministic: nothing to seed

    def evaluate(self, workload, mapping, layout, cost=None) -> BackendReport:
        if cost is None:
            cost = self.cost_model.evaluate(workload, mapping, layout)
        return report_from_cost(cost, backend=self.name)
