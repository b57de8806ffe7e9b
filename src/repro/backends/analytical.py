"""The analytical backend: Layoutloop's cost model behind the protocol.

A thin wrapper over :class:`~repro.layoutloop.cost_model.CostModel` that
prices every cell through the batched
:meth:`~repro.layoutloop.cost_model.CostModel.evaluate_mapping_batch`,
memoized in an :class:`~repro.search.cache.EvaluationCache` when the
caller hands it one (a :class:`~repro.layoutloop.mapper.Mapper` or a
:class:`~repro.api.Session` owns the memo; the backend never builds one).
The mapper uses ``backend.cost_model`` directly on its hot path (cached
batch evaluation, admissible pruning), so the protocol adds a uniform
surface, not a new code path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backends.base import BackendReport, EvaluationBackend, report_from_cost
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cost_model import CostModel
from repro.layoutloop.energy import EnergyTable
from repro.search.cache import EvaluationCache


class AnalyticalBackend(EvaluationBackend):
    """Timeloop-style analytical evaluation (§V), batched.

    ``cache``, when given, memoizes every evaluation and may be shared
    across backends/mappers (keys embed the full arch + energy signature);
    without one each call prices afresh.  ``seed`` is accepted for
    registry-signature uniformity and ignored: the analytical model is
    deterministic by construction.
    """

    name = "analytical"

    def __init__(self, arch: ArchSpec, energy: Optional[EnergyTable] = None,
                 seed: int = 0, cache: Optional[EvaluationCache] = None):
        super().__init__(arch)
        del seed  # deterministic: nothing to seed
        self.cost_model = CostModel(arch, energy)
        self.cache = cache

    @property
    def energy(self):
        """The energy table the cost model prices components with."""
        return self.cost_model.energy

    def evaluate(self, workload, mapping, layout) -> BackendReport:
        return self.evaluate_mapping(workload, mapping, [layout])[0]

    def evaluate_mapping(self, workload, mapping,
                         layouts: Sequence) -> List[BackendReport]:
        if self.cache is None:
            reports = self.cost_model.evaluate_mapping_batch(
                workload, mapping, layouts)
        else:
            reports = [report for report, _ in self.cache.evaluate_batch(
                self.cost_model, workload, mapping, layouts)]
        return [report_from_cost(report, backend=self.name)
                for report in reports]
