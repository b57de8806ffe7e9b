"""The evaluation-backend protocol: one cell, one comparable report.

A *cell* is a (workload, mapping, layout) triple on one architecture.  The
repo prices a cell with the Timeloop-style analytical model
(:mod:`repro.layoutloop.cost_model`), the numerically-exact
cycle-accounting FEATHER simulator (:mod:`repro.feather`), a systolic
array or a reference reduction NoC, and this module defines the contract
that lets the search engine, the scenario matrix and the experiments
treat them interchangeably:

* :class:`BackendReport` — the common result type.  Field names follow
  :class:`~repro.layoutloop.cost_model.CostReport` conventions exactly
  (``total_cycles``, ``stall_cycles``, ``practical_utilization``,
  ``energy_per_mac_pj``, ``edp``...), so everything downstream that
  aggregates reports (:class:`~repro.layoutloop.cosearch.ModelCost`,
  :class:`~repro.scenarios.record.ScenarioRecord`) works with either
  backend unchanged, and cross-backend diffs compare like for like.
* :class:`EvaluationBackend` — the abstract interface: an object built
  from ``(arch, seed)`` with one analytical ``cost_model`` (every
  backend's report is its *companion* cost report with the backend's own
  timing fields replaced) and one pricing method,
  ``evaluate(workload, mapping, layouts)``: the mapping's reports under
  every layout, from one batched companion pricing.  A single cell is a
  one-layout call.
* a name registry (:func:`register_backend` / :func:`create_backend`),
  open to downstream registration, mirroring the workload-set and
  architecture registries of :mod:`repro.scenarios.registry`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import UnknownBackendError
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cost_model import CostModel, energy_total

#: The default backend everywhere a ``backend=`` parameter exists.
DEFAULT_BACKEND = "analytical"


@dataclass(frozen=True)
class BackendReport:
    """Latency/energy estimate of one cell, in :class:`CostReport` vocabulary.

    Instances are immutable and may be memoized/shared exactly like
    :class:`~repro.layoutloop.cost_model.CostReport`; ``extra`` carries
    backend-specific counters (e.g. the simulator's ``write_serialization``
    or BIRRD routing statistics) that have no analytical counterpart.
    """

    backend: str
    """Registry name of the backend that produced the report."""
    workload: str
    """Name of the evaluated workload."""
    arch: str
    """Name of the architecture."""
    mapping: str
    """Name of the evaluated mapping (dataflow)."""
    layout: str
    """Name of the evaluated streaming-tensor layout."""
    macs: int
    """Multiply-accumulate operations the cell performs (count)."""
    compute_cycles: float
    """Ideal compute latency (cycles), before stalls."""
    slowdown: float
    """Average bank-conflict slowdown factor (dimensionless, >= 1)."""
    stall_cycles: float
    """Cycles lost to bank-conflict stalls (and, for the simulator, write
    serialization)."""
    reorder_cycles_exposed: float
    """Cycles the layout-reordering mechanism adds on the critical path."""
    total_cycles: float
    """End-to-end latency (cycles): compute + stalls + exposed reorder."""
    utilization: float
    """Steady-state MAC utilization of the array (fraction, 0..1)."""
    practical_utilization: float
    """Utilization including stall and reorder cycles (fraction, 0..1)."""
    energy_breakdown_pj: Dict[str, float] = field(default_factory=dict)
    """Energy per component (pJ).  The simulator backend borrows the
    analytical breakdown (it does not model energy), so energy columns stay
    comparable across backends; the cycles are what differs."""
    extra: Dict[str, float] = field(default_factory=dict)
    """Backend-specific counters (read-only by convention)."""

    @property
    def total_energy_pj(self) -> float:
        """Total energy over all components (pJ), added as
        :attr:`CostReport.total_energy_pj` adds them."""
        return energy_total(self.energy_breakdown_pj.values())

    @property
    def energy_per_mac_pj(self) -> float:
        """Energy per MAC (pJ/MAC); ``inf`` for 0 MACs with nonzero energy."""
        if self.macs:
            return self.total_energy_pj / self.macs
        return math.inf if self.total_energy_pj > 0 else 0.0

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ * cycles)."""
        return self.total_energy_pj * self.total_cycles

    def latency_seconds(self, frequency_mhz: float) -> float:
        """Wall-clock latency (seconds) at the given clock (MHz)."""
        return self.total_cycles / (frequency_mhz * 1e6)


#: The scalar fields a report shares with its companion CostReport.
_COST_FIELDS = tuple(f.name for f in fields(BackendReport)
                     if f.name not in ("backend", "energy_breakdown_pj",
                                       "extra"))


def report_from_cost(report, backend: str = DEFAULT_BACKEND,
                     extra: Optional[Dict[str, float]] = None,
                     **timing) -> BackendReport:
    """Wrap a :class:`CostReport` as a :class:`BackendReport`, field for
    field, with the ``timing`` fields (``total_cycles=...``) replaced."""
    values = {name: getattr(report, name) for name in _COST_FIELDS}
    values.update(timing)
    return BackendReport(
        backend=backend,
        energy_breakdown_pj=dict(report.energy_breakdown_pj),
        extra=dict(extra) if extra else {},
        **values)


class EvaluationBackend(abc.ABC):
    """An evaluator of (workload, mapping, layout) cells, built from
    ``(arch, seed)``.

    Implementations must be deterministic: the same cell on the same
    backend instance (and, for stochastic backends, the same ``seed``)
    must return identical reports — the scenario records' replay contract
    extends to every backend.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def __init__(self, arch: ArchSpec, seed: int = 0):
        self.arch = arch
        self.seed = int(seed)
        self.cost_model = CostModel(arch)

    @abc.abstractmethod
    def evaluate(self, workload, mapping,
                 layouts: Sequence) -> List[BackendReport]:
        """Reports of one mapping under every layout, in layout order.

        Implementations price the companions with one
        :meth:`~repro.layoutloop.cost_model.CostModel.evaluate_mapping_batch`
        call and run the work that depends only on the mapping once."""


# ------------------------------------------------------------------ registry
_BACKENDS: Dict[str, Callable[..., EvaluationBackend]] = {}


def register_backend(name: str, factory: Callable[..., EvaluationBackend],
                     overwrite: bool = False) -> None:
    """Register a backend factory ``factory(arch, seed=0)``."""
    if name in _BACKENDS and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def create_backend(name: Optional[str], arch: ArchSpec,
                   seed: int = 0) -> EvaluationBackend:
    """Build the backend registered as ``name`` (``None`` for the default)
    for ``arch``, seeded with ``seed``."""
    name = DEFAULT_BACKEND if name is None else str(name)
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(backend_names())}") from None
    return factory(arch, seed=seed)
