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
signatures, the full architecture signature, ``SearchConfig.key()`` —
plus the labels that appear in the response, never over the request's
spelling.  Execution knobs that are guaranteed result-neutral
(``workers``, ``fresh_cache``) stay out of the key, which is what lets
identical in-flight requests coalesce across callers that parallelise
differently; result-shaping knobs (``policy``, ``budget``) are part of the
key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Tuple, Union

from repro.errors import InvalidRequestError
from repro.search.config import (
    CONFIG_FIELDS,
    SearchConfig,
    strict_bool,
    strict_int,
)

#: Version of the request/response wire format (bumped on breaking change).
API_SCHEMA_VERSION = 6


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
    """Set an attribute of a frozen request (a validated or JSON-list-to-
    tuple converted field value, or the built config)."""
    object.__setattr__(obj, name, value)


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
        _normalize(self, "seed", strict_int("seed", self.seed))


@dataclass(frozen=True)
class SearchRequest(_RequestBase):
    """Whole-model (dataflow, layout) co-search on one architecture.

    The result-shaping fields — ``metric``, ``max_mappings``, ``seed``,
    ``policy``, ``budget``, ``frontier``, ``fused`` and ``constraints`` —
    are the flat wire spelling of one
    :class:`~repro.search.config.SearchConfig` (documented there), which
    the request builds, validates and exposes as :attr:`config`.

    ``workers``/``fresh_cache`` are execution knobs the engine guarantees
    result-neutral; they are carried for execution but excluded from the
    content key.  ``fresh_cache=True`` gives the search
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
    max_mappings: Union[int, str] = 50
    seed: int = 0
    policy: str = "exhaustive"
    budget: Optional[int] = None
    backend: str = "analytical"
    """Evaluation-backend registry name, or ``"crossval"`` for the
    analytical-search + simulator-execution composite."""
    frontier: bool = False
    fused: bool = False
    """Fused search also needs at least two layers (adjacency is what
    gets fused)."""
    layouts: Optional[Tuple[str, ...]] = None
    """Optional restriction of the candidate layout library (names)."""
    workers: Optional[int] = None
    """Worker processes; None resolves through the session (env/default)."""
    fresh_cache: bool = False
    """Use a private evaluation cache for this request (deterministic
    per-call counters)."""
    constraints: Optional[str] = None
    """``None``, ``"none"`` or ``"default"`` on the wire (see
    :attr:`SearchConfig.constraints`)."""
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_schema_version(self.schema_version, "SearchRequest")
        if not isinstance(self.backend, str) or not self.backend:
            raise InvalidRequestError(
                f"backend must be a registry name, got {self.backend!r}")
        if not isinstance(self.model, str):
            raise InvalidRequestError(
                f"model must be a string, got {self.model!r}")
        if not isinstance(self.constraints, (str, type(None))):
            raise InvalidRequestError(
                f"constraints must be a string or null, "
                f"got {self.constraints!r}")
        config = SearchConfig(**{name: getattr(self, name)
                                 for name in CONFIG_FIELDS})
        config.check_backend(self.backend)
        for name in CONFIG_FIELDS:
            _normalize(self, name, getattr(config, name))
        _normalize(self, "_config", config)
        _normalize(self, "workers", strict_int("workers", self.workers,
                                               minimum=1, nullable=True))
        strict_bool("fresh_cache", self.fresh_cache)
        if not isinstance(self.workloads, str):
            _normalize(self, "workloads", tuple(self.workloads))
        if self.layouts is not None:
            _normalize(self, "layouts",
                       tuple(str(n) for n in self.layouts))

    @property
    def config(self) -> SearchConfig:
        """The validated :class:`~repro.search.config.SearchConfig` these
        flat fields spell."""
        return self._config

    @classmethod
    def from_config(cls, config: SearchConfig, **request_fields
                    ) -> "SearchRequest":
        """A request searching under ``config``; ``request_fields`` supplies
        the rest (``workloads``, ``arch``, ``model``, ``backend``, ...)."""
        return cls(**{name: getattr(config, name) for name in CONFIG_FIELDS},
                   **request_fields)


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
        if not isinstance(self.filter, (str, type(None))):
            raise InvalidRequestError(
                f"filter must be a string or null, got {self.filter!r}")
        if self.backend is not None:
            from repro.scenarios.spec import check_scenario_backend

            if not isinstance(self.backend, str):
                raise InvalidRequestError(
                    f"backend must be a registry name or null, "
                    f"got {self.backend!r}")
            check_scenario_backend(self.backend)
        strict_bool("skip_incompatible", self.skip_incompatible)
        strict_bool("force", self.force)
        _normalize(self, "workers", strict_int("workers", self.workers,
                                               minimum=1, nullable=True))


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
