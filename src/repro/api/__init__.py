"""``repro.api`` — the typed request/response façade of the whole repo.

Every capability the packages below expose — pricing one cell on an
evaluation backend, whole-model (dataflow, layout) co-search, scenario
sweeps — is reachable through **one surface**: build a request dataclass
(:class:`EvalRequest` / :class:`SearchRequest` / :class:`SweepRequest`,
each JSON-round-trippable and versioned), hand it to a long-lived
:class:`Session`, and read a typed response built on the existing
:class:`~repro.backends.base.BackendReport` /
:class:`~repro.scenarios.record.ScenarioRecord` vocabulary.

The same requests arrive identically from Python (``session.run``),
asynchronously (``session.submit``, with in-flight dedup by content key),
or over the wire (``python -m repro.serve`` exposes ``/v1/eval``,
``/v1/search``, ``/v1/sweep`` on a shared session).  ``Session.run`` is
the one whole-model search entry point; a single layer is searched with
:meth:`repro.layoutloop.Mapper.search`.

Quick start::

    from repro.api import SearchRequest, Session

    with Session() as session:
        response = session.run(SearchRequest(
            workloads="resnet50[:4]", arch="FEATHER",
            model="resnet50-head", max_mappings=20))
        print(response.totals["total_cycles"], response.key[:12])

Deliberate errors raise the :mod:`repro.errors` hierarchy
(:class:`~repro.errors.InvalidRequestError`,
:class:`~repro.errors.UnknownBackendError`,
:class:`~repro.errors.IncompatibleCellError`), each with a stable wire
code.
"""

from repro.api.requests import (
    API_SCHEMA_VERSION,
    EvalRequest,
    Request,
    SearchRequest,
    SweepRequest,
    request_from_dict,
    request_type_name,
)
from repro.api.responses import EvalResponse, SearchResponse, SweepResponse
from repro.api.session import (
    Session,
    SessionStats,
    content_key,
    default_session,
    reset_default_session,
)
from repro.errors import (
    IncompatibleCellError,
    InvalidRequestError,
    ReproError,
    UnknownBackendError,
)

__all__ = [
    "API_SCHEMA_VERSION",
    "EvalRequest",
    "EvalResponse",
    "IncompatibleCellError",
    "InvalidRequestError",
    "ReproError",
    "Request",
    "SearchRequest",
    "SearchResponse",
    "Session",
    "SessionStats",
    "SweepRequest",
    "SweepResponse",
    "UnknownBackendError",
    "content_key",
    "default_session",
    "request_from_dict",
    "request_type_name",
    "reset_default_session",
]
