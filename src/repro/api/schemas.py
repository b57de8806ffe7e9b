"""Versioned JSON Schemas of the wire surface.

One draft-2020-12 schema per request/response class (plus the service
error payload), keyed by :data:`~repro.api.requests.API_SCHEMA_VERSION`.
``tools/schema_export.py`` dumps these into ``docs/schemas/`` and CI
fails when the dumped files drift from the code — the schema files in the
repo are therefore always the contract this build actually speaks.

The schemas are intentionally hand-maintained next to the dataclasses
(rather than generated by a third-party library) so the package stays
stdlib+numpy only; the export tool's drift check is what keeps the two in
sync, and ``tests/test_api.py`` validates real requests against the field
lists.
"""

from __future__ import annotations

from typing import Dict

from repro.api.requests import API_SCHEMA_VERSION
from repro.search.config import CONSTRAINT_MODES, METRICS, POLICIES

_SCHEMA_DIALECT = "https://json-schema.org/draft/2020-12/schema"


def _schema(title: str, description: str, properties: Dict,
            required) -> Dict:
    return {
        "$schema": _SCHEMA_DIALECT,
        "$id": f"https://repro.local/schemas/v{API_SCHEMA_VERSION}/"
               f"{title}.json",
        "title": title,
        "description": description,
        "type": "object",
        "properties": properties,
        "required": list(required),
        "additionalProperties": False,
    }


_SCHEMA_VERSION_PROP = {"type": "integer", "const": API_SCHEMA_VERSION}
_NAME_OR_PAYLOAD = {"type": ["string", "object"]}
_METRIC_PROP = {"type": "string", "enum": list(METRICS)}
_WORKERS_PROP = {"type": ["integer", "null"], "minimum": 1}

_CONFIG_PROPS = {
    "metric": _METRIC_PROP,
    "max_mappings": {"anyOf": [{"type": "integer", "minimum": 1},
                               {"const": "auto"}]},
    "seed": {"type": "integer"},
    "policy": {"type": "string", "enum": list(POLICIES)},
    "budget": {"type": ["integer", "null"], "minimum": 1},
}

EVAL_REQUEST_SCHEMA = _schema(
    "EvalRequest",
    "Price one (workload, mapping, layout) cell on one backend.",
    {
        "workload": _NAME_OR_PAYLOAD,
        "arch": _NAME_OR_PAYLOAD,
        "layout": {"type": "string", "minLength": 1},
        "mapping": _NAME_OR_PAYLOAD,
        "backend": {"type": "string", "minLength": 1},
        "seed": {"type": "integer"},
        "schema_version": _SCHEMA_VERSION_PROP,
    },
    required=("workload", "arch", "layout"))

SEARCH_REQUEST_SCHEMA = _schema(
    "SearchRequest",
    "Whole-model (dataflow, layout) co-search on one architecture.",
    {
        "workloads": {"type": ["string", "array"],
                      "items": {"type": "object"}, "minItems": 1},
        "arch": _NAME_OR_PAYLOAD,
        "model": {"type": "string"},
        **_CONFIG_PROPS,
        "backend": {"type": "string", "minLength": 1},
        "frontier": {"type": "boolean"},
        "fused": {"type": "boolean"},
        "workers": _WORKERS_PROP,
        "fresh_cache": {"type": "boolean"},
        "constraints": {"type": ["string", "null"],
                        "enum": [*CONSTRAINT_MODES, None]},
        "schema_version": _SCHEMA_VERSION_PROP,
    },
    required=("workloads", "arch"))

SWEEP_REQUEST_SCHEMA = _schema(
    "SweepRequest",
    "Run a scenario-matrix sweep (inline cells or a built-in filter).",
    {
        "scenarios": {"type": ["array", "null"],
                      "items": {"type": "object"}, "minItems": 1},
        "filter": {"type": ["string", "null"]},
        "backend": {"type": ["string", "null"]},
        "skip_incompatible": {"type": "boolean"},
        "force": {"type": "boolean"},
        "workers": _WORKERS_PROP,
        "schema_version": _SCHEMA_VERSION_PROP,
    },
    required=())

EVAL_RESPONSE_SCHEMA = _schema(
    "EvalResponse",
    "One cell priced: a BackendReport as plain data.",
    {
        "report": {"type": "object"},
        "backend": {"type": "string"},
        "key": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "elapsed_s": {"type": "number", "minimum": 0},
        "schema_version": _SCHEMA_VERSION_PROP,
        "served_from": {"type": ["string", "null"], "enum": ["store", None]},
    },
    required=("report", "backend", "key", "schema_version"))

SEARCH_RESPONSE_SCHEMA = _schema(
    "SearchResponse",
    "A whole-model co-search result in scenario-record vocabulary.",
    {
        "model": {"type": "string"},
        "arch": {"type": "string"},
        "backend": {"type": "string"},
        "key": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "totals": {"type": "object",
                   "properties": {k: {"type": "number"} for k in (
                       "total_cycles", "total_energy_pj", "total_macs",
                       "energy_per_mac_pj", "edp", "avg_utilization",
                       "stall_fraction", "reorder_fraction")}},
        "layers": {"type": "array", "items": {"type": "object"}},
        "search": {"type": "object"},
        "crossval": {"type": ["object", "null"]},
        "frontiers": {"type": ["array", "null"],
                      "items": {"type": "object"}},
        "fused": {"type": ["array", "null"],
                  "items": {"type": "object"}},
        "workers": {"type": "integer", "minimum": 1},
        "elapsed_s": {"type": "number", "minimum": 0},
        "schema_version": _SCHEMA_VERSION_PROP,
        "served_from": {"type": ["string", "null"], "enum": ["store", None]},
    },
    required=("model", "arch", "backend", "key", "totals", "layers",
              "search", "schema_version"))

SWEEP_RESPONSE_SCHEMA = _schema(
    "SweepResponse",
    "A scenario sweep: one full record payload per executed cell.",
    {
        "records": {"type": "array", "items": {"type": "object"}},
        "cached": {"type": "array", "items": {"type": "boolean"}},
        "skipped": {"type": "array", "items": {
            "type": "object",
            "properties": {"scenario": {"type": "string"},
                           "reason": {"type": "string"}},
            "required": ["scenario", "reason"],
            "additionalProperties": False}},
        "key": {"type": "string"},
        "elapsed_s": {"type": "number", "minimum": 0},
        "schema_version": _SCHEMA_VERSION_PROP,
    },
    required=("records", "cached", "skipped", "schema_version"))

ERROR_SCHEMA = _schema(
    "Error",
    "Structured error payload of the JSON service (stable codes).",
    {
        "error": {
            "type": "object",
            "properties": {
                "code": {"type": "string", "enum": [
                    "repro_error", "invalid_request", "unknown_backend",
                    "incompatible_cell", "not_found", "internal_error"]},
                "type": {"type": "string"},
                "message": {"type": "string"},
            },
            "required": ["code", "type", "message"],
            "additionalProperties": False,
        },
    },
    required=("error",))

#: Export name -> schema; the file stem in ``docs/schemas/`` is
#: ``<name>.v<API_SCHEMA_VERSION>.json``.
ALL_SCHEMAS: Dict[str, Dict] = {
    "eval_request": EVAL_REQUEST_SCHEMA,
    "search_request": SEARCH_REQUEST_SCHEMA,
    "sweep_request": SWEEP_REQUEST_SCHEMA,
    "eval_response": EVAL_RESPONSE_SCHEMA,
    "search_response": SEARCH_RESPONSE_SCHEMA,
    "sweep_response": SWEEP_RESPONSE_SCHEMA,
    "error": ERROR_SCHEMA,
}
