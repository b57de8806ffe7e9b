"""Unified evaluation backends: one protocol, one analytical companion.

One protocol (:class:`EvaluationBackend`), one comparable result type
(:class:`BackendReport`, in :class:`CostReport` vocabulary), the built-in
implementations behind a name registry, each built from ``(arch, seed)``
by :func:`create_backend`.  Every backend owns one analytical
``cost_model``; each report is its cell's companion cost report with the
backend's own timing fields replaced, and ``evaluate(workload, mapping,
layouts)`` — the one pricing method — prices a mapping's companions in
one batch.

* ``"analytical"`` — the Timeloop-style Layoutloop cost model (§V),
  vectorized, bit-identical to calling it directly;
* ``"simulator"`` — the numerically-exact cycle-accounting FEATHER
  simulator (§III), with deterministic seeded weight/iAct generation;
* ``"systolic"`` — the rigid weight-stationary array baseline (Fig. 4),
  carrying :func:`~repro.constraints.systolic_constraints`;
* ``"noc:linear"`` / ``"noc:tree"`` / ``"noc:fan"`` — analytical cost
  plus the exposed latency of a reference reduction topology (Table I),
  carrying :func:`~repro.constraints.noc_constraints`.

On top of the protocol:

* :func:`multifidelity_search` — analytical shortlist, simulator
  verification of the top-k (mapping, layout) pairs per shape;
* :func:`cross_validate_model` — execute every winner of an analytical
  co-search on the simulator and record per-cell cycle/utilization deltas
  (the machine-check of the paper's reorder-in-reduction claim); a
  ``SearchRequest(backend="crossval")`` runs the search and calls it.

`repro.search`, `repro.layoutloop.mapper` and `repro.scenarios` all take a
``backend=`` argument resolved through this registry (default
``"analytical"``); ``python -m repro.scenarios run --backend simulator``
is the CLI front.
"""

from functools import partial

from repro.backends.analytical import AnalyticalBackend
from repro.backends.base import (
    DEFAULT_BACKEND,
    BackendReport,
    EvaluationBackend,
    backend_names,
    create_backend,
    register_backend,
    report_from_cost,
)
from repro.backends.crossval import (
    CellValidation,
    CrossValidation,
    cross_validate_model,
)
from repro.backends.multifidelity import (
    MultiFidelityModelResult,
    MultiFidelityResult,
    VerifiedCandidate,
    multifidelity_search,
    multifidelity_search_layer,
)
from repro.backends.noc import TOPOLOGIES, NocBackend
from repro.backends.simulator import (
    BackendCompatibilityError,
    SimulatorBackend,
    cell_rng,
    feather_config_for,
    seeded_conv_tensors,
    seeded_gemm_tensors,
)
from repro.backends.systolic import SystolicBackend

register_backend("analytical", AnalyticalBackend)
register_backend("simulator", SimulatorBackend)
register_backend("systolic", SystolicBackend)
for _topology in TOPOLOGIES:
    register_backend(f"noc:{_topology}", partial(NocBackend, _topology))
del _topology

__all__ = [
    "AnalyticalBackend",
    "BackendCompatibilityError",
    "BackendReport",
    "CellValidation",
    "CrossValidation",
    "DEFAULT_BACKEND",
    "EvaluationBackend",
    "MultiFidelityModelResult",
    "MultiFidelityResult",
    "NocBackend",
    "SimulatorBackend",
    "SystolicBackend",
    "TOPOLOGIES",
    "VerifiedCandidate",
    "backend_names",
    "cell_rng",
    "create_backend",
    "cross_validate_model",
    "feather_config_for",
    "multifidelity_search",
    "multifidelity_search_layer",
    "register_backend",
    "report_from_cost",
    "seeded_conv_tensors",
    "seeded_gemm_tensors",
]
