"""The analytical backend: Layoutloop's cost model behind the protocol.

A thin wrapper over the backend's own
:class:`~repro.layoutloop.cost_model.CostModel`: every call prices its
mapping's layouts afresh through one batched
:meth:`~repro.layoutloop.cost_model.CostModel.evaluate_mapping_batch`, so
per-cell callers (eval requests, the multi-fidelity ladder) get full
reports and nothing is memoized here.  The search's value memo
(:class:`~repro.search.cache.EvaluationCache`) belongs to the
:class:`~repro.layoutloop.mapper.Mapper`, which uses ``backend.cost_model``
directly on its hot path (memoized value entries, admissible pruning), so
the protocol adds a uniform surface, not a new code path.
"""

from __future__ import annotations

from typing import List

from repro.backends.base import BackendReport, EvaluationBackend, report_from_cost


class AnalyticalBackend(EvaluationBackend):
    """Timeloop-style analytical evaluation (§V), batched.

    The ``seed`` is stored and ignored: the analytical model is
    deterministic by construction.
    """

    name = "analytical"

    def evaluate(self, workload, mapping, layouts) -> List[BackendReport]:
        return [report_from_cost(cost, backend=self.name) for cost in
                self.cost_model.evaluate_mapping_batch(workload, mapping,
                                                       layouts)]
