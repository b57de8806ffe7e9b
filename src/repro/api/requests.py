"""Typed, JSON-round-trippable request dataclasses.

One request class per verb of the façade:

* :class:`EvalRequest` — price one (workload, mapping, layout) cell on one
  architecture and backend (the :class:`~repro.backends.base.BackendReport`
  vocabulary).
* :class:`SearchRequest` — whole-model (dataflow, layout) co-search: the
  verb behind every figure co-search and scenario cell.
* :class:`SweepRequest` — a scenario-matrix sweep: named cells (or a
  filter over the built-in matrix) executed with content-addressed
  artifact caching.

Requests are frozen dataclasses with **plain-JSON field values only**
(strings, numbers, booleans, lists/objects), so ``to_json -> from_json``
reconstructs an equal request; every request carries a ``schema_version``
(rejected when unsupported — wire formats drift, silent coercion hides
it) and resolves to a sha256 **content key** (via
:func:`repro.api.session.content_key`) that reuses the scenario-record
hashing: keys are computed over resolved *structure* — workload shape
signatures, the full architecture signature, the search-config identity —
plus the labels that appear in the response, never over the request's
spelling.  Execution knobs that are guaranteed result-neutral
(``workers``, ``fresh_cache``) stay out of the key, which is what lets
identical in-flight requests coalesce across callers that parallelise
differently; result-shaping knobs (``policy``, ``budget``) are part of the
key.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Tuple, Union

from repro.errors import InvalidRequestError

#: Version of the request/response wire format (bumped on breaking change).
API_SCHEMA_VERSION = 5

_METRICS = ("edp", "latency", "energy")
_POLICIES = ("exhaustive", "halving", "evolutionary")


def _check_schema_version(version: int, what: str) -> None:
    if version != API_SCHEMA_VERSION:
        raise InvalidRequestError(
            f"{what} schema_version {version!r} is not supported "
            f"(this build speaks version {API_SCHEMA_VERSION})")


def _from_dict(cls, data: Dict[str, object]):
    """Shared ``from_dict``: reject unknown fields, surface bad values."""
    if not isinstance(data, dict):
        raise InvalidRequestError(
            f"{cls.__name__} payload must be an object, "
            f"got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise InvalidRequestError(
            f"{cls.__name__} does not accept field(s) {unknown}; "
            f"known fields: {sorted(known)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise InvalidRequestError(f"bad {cls.__name__}: {exc}") from exc


class _RequestBase:
    """JSON round trip shared by all request classes."""

    def to_dict(self) -> Dict[str, object]:
        """The request as plain JSON-compatible data."""
        return asdict(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]):
        return _from_dict(cls, dict(data))

    @classmethod
    def from_json(cls, text: str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidRequestError(f"request is not valid JSON: {exc}"
                                      ) from exc
        return cls.from_dict(data)


def _normalize(obj, name: str, value):
    """Convert a JSON list field back to the tuple the dataclass declares."""
    object.__setattr__(obj, name, value)


def _integer(obj, name: str, minimum: Optional[int] = None,
             nullable: bool = False) -> None:
    """Require field ``name`` to be a JSON integer (``>= minimum``).

    Booleans, fractional numbers, strings and — unless ``nullable`` —
    ``None`` raise :class:`InvalidRequestError`; other integral types
    (numpy integers) are stored as plain ``int``.
    """
    value = getattr(obj, name)
    if value is None and nullable:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidRequestError(
            f"{name} must be an integer{' or null' if nullable else ''}, "
            f"got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidRequestError(
            f"{name} must be >= {minimum}, got {value}")
    _normalize(obj, name, int(value))


@dataclass(frozen=True)
class EvalRequest(_RequestBase):
    """Price one (workload, mapping, layout) cell on one backend."""

    workload: Union[str, Dict[str, object]]
    """``"<set spec>#<index>"`` (registry form) or an inline payload
    (:func:`repro.api.codec.workload_payload`)."""
    arch: Union[str, Dict[str, object]]
    """Architecture registry name or inline payload."""
    layout: str
    """Layout name string (``"HWC_C32"``-style, parsed exactly)."""
    mapping: Union[str, Dict[str, object]] = "output_stationary"
    """``"output_stationary"`` (derived from workload + arch) or an inline
    mapping payload."""
    backend: str = "analytical"
    """Evaluation-backend registry name."""
    seed: int = 0
    """Deterministic-generation seed of stochastic backends (simulator)."""
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_schema_version(self.schema_version, "EvalRequest")
        if not isinstance(self.backend, str) or not self.backend:
            raise InvalidRequestError(
                f"backend must be a registry name, got {self.backend!r}")
        _integer(self, "seed")


@dataclass(frozen=True)
class SearchRequest(_RequestBase):
    """Whole-model (dataflow, layout) co-search on one architecture.

    ``workers``/``fresh_cache`` are execution knobs the engine guarantees
    result-neutral; they are carried for execution but excluded from the
    content key (``policy``/``budget`` change the result and are keyed).
    ``fresh_cache=True`` gives the search
    a private evaluation cache instead of the session's shared one — the
    scenario runner uses it so per-call cache counters (embedded in records
    and golden files) stay deterministic; interactive callers leave it off
    and get cross-request reuse.
    """

    workloads: Union[str, Tuple[Dict[str, object], ...]]
    """Workload-set spec (``"resnet50[:4]"``) or inline payload tuple."""
    arch: Union[str, Dict[str, object]]
    """Architecture registry name or inline payload."""
    model: str = "model"
    """Model label carried into the response (and per-layer weighting)."""
    metric: str = "edp"
    """Objective: ``edp``, ``latency`` or ``energy``."""
    max_mappings: Union[int, str] = 50
    """Pruned-random mapping budget per unique layer shape, or ``"auto"``
    for the adaptive universe (:mod:`repro.search.bulk`): a small seeded
    sample grown only where the bound landscape is tight, returning exactly
    the uncapped exhaustive winner of the full structured space.  ``"auto"``
    requires the analytical backend and the exhaustive policy (and is
    incompatible with ``frontier``/``fused``)."""
    seed: int = 0
    """RNG seed of the mapping sampler."""
    prune: bool = True
    """Admissible lower-bound pruning (exact)."""
    policy: str = "exhaustive"
    """Search policy: ``exhaustive`` (default), ``halving`` (bound-ordered
    successive halving, exact at full budget) or ``evolutionary`` (seeded
    refinement warm-started from memoized per-shape winners)."""
    budget: Optional[int] = None
    """Per-shape cap on scored (mapping, layout) pairs; only meaningful
    with a non-exhaustive ``policy``."""
    backend: str = "analytical"
    """Evaluation-backend registry name, or ``"crossval"`` for the
    analytical-search + simulator-execution composite."""
    frontier: bool = False
    """Keep the whole Pareto frontier over (EDP, latency, energy, buffer
    footprint) per shape instead of only the scalar winner (which is still
    returned, bit-identical, and is always a frontier member).  Requires
    the analytical backend and the exhaustive policy."""
    fused: bool = False
    """Additionally search fused two-layer mappings over every fusible
    adjacent pair: shared on-chip intermediate tile, the producer's output
    layout constraining the consumer's input layout.  Requires the
    analytical backend, the exhaustive policy and at least two layers."""
    layouts: Optional[Tuple[str, ...]] = None
    """Optional restriction of the candidate layout library (names)."""
    workers: Optional[int] = None
    """Worker processes; None resolves through the session (env/default)."""
    fresh_cache: bool = False
    """Use a private evaluation cache for this request (deterministic
    per-call counters)."""
    constraints: Optional[str] = None
    """Constraint-aware search mode (:mod:`repro.constraints`): ``None``
    (default) inherits the backend's own ConstraintSet — none for
    ``analytical``/``simulator``, the presets for ``systolic``/``noc:*`` —
    ``"none"`` forces the layer off even on a constrained backend, and
    ``"default"`` binds the architecture's own physical rules.  When a set
    is bound, every candidate mapping is repaired to legality before
    scoring and the response stats carry the repair-log counters.
    Result-shaping, so part of the content key (only when a set actually
    binds — unconstrained requests key identically to schema v3 ones)."""
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_schema_version(self.schema_version, "SearchRequest")
        if self.constraints is not None:
            if self.constraints not in ("none", "default"):
                raise InvalidRequestError(
                    "constraints must be None, 'none' or 'default', "
                    f"got {self.constraints!r}")
            if self.max_mappings == "auto" and self.constraints == "default":
                raise InvalidRequestError(
                    "max_mappings='auto' grows the raw structured universe "
                    "and cannot be combined with constraints='default'")
        if self.metric not in _METRICS:
            raise InvalidRequestError(
                f"metric must be one of {_METRICS}, got {self.metric!r}")
        if self.policy not in _POLICIES:
            raise InvalidRequestError(
                f"policy must be one of {_POLICIES}, got {self.policy!r}")
        _integer(self, "budget", minimum=1, nullable=True)
        if self.budget is not None and self.policy == "exhaustive":
            raise InvalidRequestError(
                "budget requires policy='halving' or 'evolutionary'")
        if isinstance(self.max_mappings, str):
            if self.max_mappings != "auto":
                raise InvalidRequestError(
                    "max_mappings must be a positive integer or 'auto', "
                    f"got {self.max_mappings!r}")
        else:
            _integer(self, "max_mappings", minimum=1)
        _integer(self, "seed")
        _integer(self, "workers", minimum=1, nullable=True)
        if not isinstance(self.backend, str) or not self.backend:
            raise InvalidRequestError(
                f"backend must be a registry name, got {self.backend!r}")
        _normalize(self, "frontier", bool(self.frontier))
        _normalize(self, "fused", bool(self.fused))
        if self.max_mappings == "auto":
            # The adaptive universe is a statement about the analytical
            # model's admissible bounds and defines the scalar winner only.
            if self.backend != "analytical":
                raise InvalidRequestError(
                    "max_mappings='auto' requires backend='analytical', "
                    f"got {self.backend!r}")
            if self.policy != "exhaustive":
                raise InvalidRequestError(
                    "max_mappings='auto' requires policy='exhaustive', "
                    f"got {self.policy!r}")
            if self.frontier or self.fused:
                raise InvalidRequestError(
                    "frontier/fused search requires an integer max_mappings")
        if self.frontier or self.fused:
            # The dominance prune and the fused-pair cost discounts are
            # statements about the analytical model, and budgeted policies
            # skip candidates the frontier must see.
            if self.backend != "analytical":
                raise InvalidRequestError(
                    "frontier/fused search requires backend='analytical', "
                    f"got {self.backend!r}")
            if self.policy != "exhaustive":
                raise InvalidRequestError(
                    "frontier/fused search requires policy='exhaustive', "
                    f"got {self.policy!r}")
        if not isinstance(self.workloads, str):
            _normalize(self, "workloads", tuple(self.workloads))
        if self.layouts is not None:
            _normalize(self, "layouts",
                       tuple(str(n) for n in self.layouts))


@dataclass(frozen=True)
class SweepRequest(_RequestBase):
    """Run a scenario-matrix sweep (the ``python -m repro.scenarios run``
    verb as a request).

    Exactly one of ``scenarios`` (inline cell payloads) or ``filter``
    (substring filter over the built-in matrix; ``None`` filter with no
    scenarios means the whole built-in matrix) selects the cells.
    """

    scenarios: Optional[Tuple[Dict[str, object], ...]] = None
    """Inline scenario payloads (:func:`repro.api.codec.scenario_payload`)."""
    filter: Optional[str] = None
    """Substring filter over the built-in matrix (when no inline cells)."""
    backend: Optional[str] = None
    """Override every cell's declared evaluation backend for this sweep."""
    skip_incompatible: bool = False
    """Skip (with reasons) cells the backend cannot run by design."""
    force: bool = False
    """Recompute cells even when a fresh artifact exists."""
    workers: Optional[int] = None
    """Worker processes per cell; None resolves through the session."""
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_schema_version(self.schema_version, "SweepRequest")
        if self.scenarios is not None:
            if not self.scenarios:
                raise InvalidRequestError(
                    "scenarios, when given, must not be empty")
            if self.filter is not None:
                raise InvalidRequestError(
                    "pass either inline scenarios or a filter, not both")
            _normalize(self, "scenarios", tuple(self.scenarios))
        _integer(self, "workers", minimum=1, nullable=True)


#: Union of the three request types (isinstance checks, annotations).
Request = Union[EvalRequest, SearchRequest, SweepRequest]

_REQUEST_TYPES: Dict[str, type] = {"eval": EvalRequest,
                                   "search": SearchRequest,
                                   "sweep": SweepRequest}


def request_type_name(request: Request) -> str:
    """The wire name of a request's type (``eval``/``search``/``sweep``)."""
    for name, cls in _REQUEST_TYPES.items():
        if isinstance(request, cls):
            return name
    raise InvalidRequestError(
        f"unsupported request type {type(request).__name__!r}")


def request_from_dict(kind: str, data: Dict[str, object]) -> Request:
    """Build the request class named ``kind`` from plain data."""
    try:
        cls = _REQUEST_TYPES[kind]
    except KeyError:
        raise InvalidRequestError(
            f"unknown request kind {kind!r}; expected one of "
            f"{sorted(_REQUEST_TYPES)}") from None
    return cls.from_dict(data)
