"""FEATHER (ISCA 2024) reproduction.

The package is organised the way the paper is: workloads and layouts are the
vocabulary, the dataflow/mapping machinery describes how a layer is scheduled
onto hardware, ``noc``/``nest``/``feather`` implement the accelerator itself
(BIRRD reduction-and-reordering network plus the NEST PE array), and
``layoutloop`` is the Timeloop-style analytical cost model extended with
physical-storage and layout awareness used for all cross-accelerator studies.
``search`` is the parallel, cached co-search engine every experiment runs
its (dataflow, layout) exploration through, ``backends`` puts the
analytical model and the cycle-level simulator behind one pluggable
evaluation protocol (with multi-fidelity search and analytical-vs-simulated
cross-validation on top), ``constraints`` binds declarative platform rules
to the search (illegal mappings are *repaired* to legality, not rejected —
what makes the rigid ``systolic``/``noc:*`` backends searchable on the same
grid), and ``scenarios`` turns the paper's fixed
evaluation grid into declarative workload x architecture x search-config
sweeps with golden-pinned JSON records.

Typical entry points:

* :class:`repro.api.Session` with :class:`repro.api.EvalRequest` /
  :class:`repro.api.SearchRequest` / :class:`repro.api.SweepRequest` —
  **the** documented façade: typed, JSON-round-trippable requests on a
  long-lived session (shared caches, persistent worker pool, in-flight
  dedup); ``python -m repro.serve`` exposes the same surface over HTTP
* :class:`repro.workloads.ConvLayerSpec` / :func:`repro.workloads.resnet50_layers`
* :class:`repro.feather.FeatherAccelerator` — functional + timing model
* :class:`repro.layoutloop.Mapper` — the single-layer (dataflow, layout)
  co-search (``Mapper(arch).search(layer)``) over
  :class:`repro.layoutloop.CostModel`
* :mod:`repro.experiments` — one module per paper figure/table
"""

from repro import (
    area,
    backends,
    baselines,
    buffer,
    constraints,
    dataflow,
    errors,
    experiments,
    feather,
    layout,
    layoutloop,
    nest,
    noc,
    scenarios,
    search,
    workloads,
)
from repro import api
from repro.api import (
    EvalRequest,
    EvalResponse,
    SearchRequest,
    SearchResponse,
    Session,
    SweepRequest,
    SweepResponse,
    default_session,
)

__version__ = "1.9.0"

__all__ = [
    "api",
    "area",
    "backends",
    "baselines",
    "buffer",
    "constraints",
    "dataflow",
    "errors",
    "EvalRequest",
    "EvalResponse",
    "experiments",
    "feather",
    "layout",
    "layoutloop",
    "nest",
    "noc",
    "scenarios",
    "search",
    "SearchRequest",
    "SearchResponse",
    "Session",
    "SweepRequest",
    "SweepResponse",
    "default_session",
    "workloads",
    "__version__",
]
