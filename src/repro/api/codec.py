"""Payload codecs: domain objects <-> plain-JSON dictionaries.

The request dataclasses of :mod:`repro.api.requests` reference workloads,
architectures, mappings and layouts either **by registry name** (the
:mod:`repro.scenarios.registry` path — what a wire client should use) or
**inline** as the payload dictionaries defined here (what in-process callers
holding already-constructed objects use).  Both forms are
plain JSON; this module owns the encode/decode pair for each object kind
and guarantees the round trip is exact — a decoded object produces the
same :mod:`repro.search.signatures` signature as the original, so content
keys and cache keys never depend on which form a request arrived in.

Decoding validates: malformed payloads raise
:class:`~repro.errors.InvalidRequestError` (stable ``invalid_request``
code) rather than ``KeyError``/``TypeError`` leaking from constructors.
"""

from __future__ import annotations

import numbers
from typing import Dict, List, Optional, Sequence, Union

from repro.dataflow.mapping import Mapping, ParallelSpec, TileLevel
from repro.errors import InvalidRequestError, ReproError
from repro.layout.layout import Layout, parse_layout
from repro.layout.patterns import ReorderImplementation, ReorderPattern
from repro.layoutloop.arch import ArchSpec, BufferGeometry
from repro.search.config import SearchConfig, strict_bool, strict_int
from repro.workloads.conv import ConvLayerSpec, LayerKind
from repro.workloads.gemm import GemmSpec

Payload = Dict[str, object]


def _require(payload: Payload, keys: Sequence[str], what: str) -> None:
    missing = [k for k in keys if k not in payload]
    if missing:
        raise InvalidRequestError(
            f"{what} payload is missing field(s) {missing}; got keys "
            f"{sorted(payload)}")


def _int_value(name: str, value, minimum: Optional[int] = None) -> int:
    """An integer (JSON integers only: no bools, fractions or strings), at
    least ``minimum`` when given.  Every inline integer is decoded here, so
    this is where one outside the signed 64-bit range becomes a 400: numpy
    prices the fields as int64 and would raise an ``OverflowError``."""
    value = strict_int(name, value, minimum)
    if not -2**63 <= value < 2**63:
        raise InvalidRequestError(
            f"{name} must fit in a signed 64-bit integer, got {value}")
    return value


def _int(payload: Payload, key: str, default: Optional[int] = None,
         minimum: Optional[int] = None) -> int:
    """An integer field (see :func:`_int_value`); ``default`` applies when
    the key is absent."""
    return _int_value(key, payload.get(key, default), minimum)


def _bool(payload: Payload, key: str, default: bool) -> bool:
    """A boolean field (JSON booleans only)."""
    return strict_bool(key, payload.get(key, default))


def _str(payload: Payload, key: str, default: Optional[str] = None) -> str:
    """A string field (JSON strings only: no numbers or booleans coerced)."""
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise InvalidRequestError(f"{key} must be a string, got {value!r}")
    return value


def _float(payload: Payload, key: str, default: float) -> float:
    """A real-valued field (JSON numbers, integers included; no bools or
    strings)."""
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidRequestError(f"{key} must be a number, got {value!r}")
    return float(value)


# -------------------------------------------------------------- workloads
def workload_payload(workload) -> Payload:
    """Encode a :class:`ConvLayerSpec` or :class:`GemmSpec` inline."""
    if isinstance(workload, ConvLayerSpec):
        return {"type": "conv", "name": workload.name, "n": workload.n,
                "m": workload.m, "c": workload.c, "h": workload.h,
                "w": workload.w, "r": workload.r, "s": workload.s,
                "stride": workload.stride, "padding": workload.padding,
                "kind": workload.kind.value, "bits": workload.bits,
                "groups": workload.groups}
    if isinstance(workload, GemmSpec):
        return {"type": "gemm", "name": workload.name, "m": workload.m,
                "k": workload.k, "n": workload.n, "bits": workload.bits}
    raise InvalidRequestError(
        f"unsupported workload type {type(workload).__name__!r}")


def workload_from_payload(payload: Payload):
    """Decode an inline workload payload back into its spec dataclass."""
    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"workload payload must be an object, got {type(payload).__name__}")
    kind = payload.get("type")
    try:
        if kind == "conv":
            _require(payload, ("name", "m", "c", "h", "w"), "conv workload")
            return ConvLayerSpec(
                name=_str(payload, "name"), n=_int(payload, "n", 1),
                m=_int(payload, "m"), c=_int(payload, "c"),
                h=_int(payload, "h"), w=_int(payload, "w"),
                r=_int(payload, "r", 1), s=_int(payload, "s", 1),
                stride=_int(payload, "stride", 1),
                padding=_int(payload, "padding", 0),
                kind=LayerKind(payload.get("kind", "conv")),
                bits=_int(payload, "bits", 8),
                groups=_int(payload, "groups", 1))
        if kind == "gemm":
            _require(payload, ("name", "m", "k", "n"), "gemm workload")
            return GemmSpec(name=_str(payload, "name"), m=_int(payload, "m"),
                            k=_int(payload, "k"), n=_int(payload, "n"),
                            bits=_int(payload, "bits", 8))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidRequestError):
            raise
        raise InvalidRequestError(f"bad workload payload: {exc}") from exc
    raise InvalidRequestError(
        f"workload payload type must be 'conv' or 'gemm', got {kind!r}")


def resolve_workloads(workloads: Union[str, Sequence[Payload]]) -> List:
    """A request's ``workloads`` field -> list of workload objects.

    A string is a workload-set spec resolved through the scenario registry
    (slices like ``"resnet50[:4]"`` included); a sequence is decoded
    payload by payload.
    """
    if isinstance(workloads, str):
        from repro.scenarios.registry import resolve_workload_set

        return resolve_workload_set(workloads)
    if not workloads:
        raise InvalidRequestError("workloads must name a registered set or "
                                  "carry at least one inline payload")
    return [workload_from_payload(p) for p in workloads]


def resolve_workload(workload: Union[str, Payload]):
    """A request's single-``workload`` field -> one workload object.

    Strings take the form ``"<set spec>#<index>"`` (e.g. ``"fig10_gemms#0"``,
    default index 0); anything else is an inline payload.
    """
    if isinstance(workload, str):
        spec, sep, index_text = workload.partition("#")
        try:
            index = int(index_text) if sep else 0
        except ValueError:
            raise InvalidRequestError(
                f"workload index in {workload!r} must be an integer") from None
        workloads = resolve_workloads(spec)
        if not 0 <= index < len(workloads):
            raise InvalidRequestError(
                f"workload index {index} out of range for set {spec!r} "
                f"({len(workloads)} workload(s))")
        return workloads[index]
    return workload_from_payload(workload)


# ----------------------------------------------------------- architectures
def arch_payload(arch: ArchSpec) -> Payload:
    """Encode an :class:`ArchSpec` inline (every cost-model-visible field)."""
    buf = arch.buffer
    return {
        "name": arch.name, "pe_rows": arch.pe_rows, "pe_cols": arch.pe_cols,
        "flexible_order": arch.flexible_order,
        "flexible_parallelism": arch.flexible_parallelism,
        "flexible_shape": arch.flexible_shape,
        "allowed_parallel_dims": (None if arch.allowed_parallel_dims is None
                                  else list(arch.allowed_parallel_dims)),
        "max_parallel_dims": arch.max_parallel_dims,
        "fixed_parallelism": (None if arch.fixed_parallelism is None
                              else [[d, n] for d, n in arch.fixed_parallelism]),
        "runtime_layout_flexible": arch.runtime_layout_flexible,
        "compile_time_layout_flexible": arch.compile_time_layout_flexible,
        "fixed_layout": arch.fixed_layout,
        "reorder_pattern": arch.reorder_pattern.value,
        "reorder_implementation": arch.reorder_implementation.value,
        "buffer": {"num_lines": buf.num_lines, "line_size": buf.line_size,
                   "banks": buf.banks, "ports_per_bank": buf.ports_per_bank,
                   "word_bits": buf.word_bits},
        "offchip_bandwidth_gbps": arch.offchip_bandwidth_gbps,
        "frequency_mhz": arch.frequency_mhz,
        "mac_bits": arch.mac_bits,
    }


def arch_from_payload(payload: Payload) -> ArchSpec:
    """Decode an inline architecture payload back into an :class:`ArchSpec`."""
    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"arch payload must be an object, got {type(payload).__name__}")
    _require(payload, ("name", "pe_rows", "pe_cols"), "arch")
    try:
        buf = payload.get("buffer") or {}
        fixed = payload.get("fixed_parallelism")
        allowed = payload.get("allowed_parallel_dims")
        return ArchSpec(
            name=_str(payload, "name"), pe_rows=_int(payload, "pe_rows"),
            pe_cols=_int(payload, "pe_cols"),
            flexible_order=_bool(payload, "flexible_order", True),
            flexible_parallelism=_bool(payload, "flexible_parallelism",
                                       True),
            flexible_shape=_bool(payload, "flexible_shape", True),
            allowed_parallel_dims=(None if allowed is None
                                   else tuple(str(d) for d in allowed)),
            max_parallel_dims=_int(payload, "max_parallel_dims", 2),
            fixed_parallelism=(None if fixed is None else tuple(
                (str(d), _int_value("fixed_parallelism degree", n))
                for d, n in fixed)),
            runtime_layout_flexible=_bool(payload, "runtime_layout_flexible",
                                          False),
            compile_time_layout_flexible=_bool(
                payload, "compile_time_layout_flexible", True),
            fixed_layout=payload.get("fixed_layout"),
            reorder_pattern=ReorderPattern(
                payload.get("reorder_pattern", "none")),
            reorder_implementation=ReorderImplementation(
                payload.get("reorder_implementation", "none")),
            buffer=BufferGeometry(
                num_lines=_int(buf, "num_lines", 2048),
                line_size=_int(buf, "line_size", 32),
                banks=_int(buf, "banks", 32, minimum=1),
                ports_per_bank=_int(buf, "ports_per_bank", 2, minimum=1),
                word_bits=_int(buf, "word_bits", 8)),
            offchip_bandwidth_gbps=_float(payload, "offchip_bandwidth_gbps",
                                          25.6),
            frequency_mhz=_float(payload, "frequency_mhz", 1000.0),
            mac_bits=_int(payload, "mac_bits", 8))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidRequestError):
            raise
        raise InvalidRequestError(f"bad arch payload: {exc}") from exc


def resolve_arch(arch: Union[str, Payload]) -> ArchSpec:
    """A request's ``arch`` field -> an :class:`ArchSpec` (name or inline)."""
    if isinstance(arch, str):
        from repro.scenarios.registry import resolve_arch as registry_arch

        return registry_arch(arch)
    return arch_from_payload(arch)


# --------------------------------------------------------------- mappings
def mapping_payload(mapping: Mapping) -> Payload:
    """Encode a :class:`~repro.dataflow.mapping.Mapping` inline."""
    return {
        "name": mapping.name,
        "array_rows": mapping.array_rows, "array_cols": mapping.array_cols,
        "parallel": [[p.dim, p.degree] for p in mapping.parallel],
        "tile": [[d, n] for d, n in mapping.tile.sizes],
        "order": list(mapping.order),
        "reduction_dims": sorted(mapping.reduction_dims),
    }


def mapping_from_payload(payload: Payload) -> Mapping:
    """Decode an inline mapping payload back into a :class:`Mapping`."""
    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"mapping payload must be an object, got {type(payload).__name__}")
    _require(payload, ("name", "array_rows", "array_cols", "parallel",
                       "tile", "order", "reduction_dims"), "mapping")
    try:
        return Mapping(
            name=_str(payload, "name"),
            array_rows=_int(payload, "array_rows"),
            array_cols=_int(payload, "array_cols"),
            parallel=tuple(ParallelSpec(str(d),
                                        _int_value("parallel degree", n))
                           for d, n in payload["parallel"]),
            tile=TileLevel(tuple((str(d), _int_value("tile size", n))
                                 for d, n in payload["tile"])),
            order=tuple(str(d) for d in payload["order"]),
            reduction_dims=frozenset(str(d)
                                     for d in payload["reduction_dims"]))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidRequestError):
            raise
        raise InvalidRequestError(f"bad mapping payload: {exc}") from exc


def resolve_mapping(mapping: Union[str, Payload], workload,
                    arch: ArchSpec) -> Mapping:
    """A request's ``mapping`` field -> a concrete :class:`Mapping`.

    The one named mapping is ``"output_stationary"`` — the canonical
    policy mapping derived from the workload and the architecture's PE
    array; anything else must be an inline payload.
    """
    if isinstance(mapping, str):
        if mapping != "output_stationary":
            raise InvalidRequestError(
                f"unknown named mapping {mapping!r}; use "
                "'output_stationary' or an inline mapping payload")
        from repro.dataflow.mapping import output_stationary_mapping

        return output_stationary_mapping(workload, arch.pe_rows,
                                         arch.pe_cols)
    return mapping_from_payload(mapping)


# ----------------------------------------------------------------- layouts
def resolve_layout(name: str) -> Layout:
    """A layout name string (``"HWC_C32"``-style) -> a :class:`Layout`."""
    if not isinstance(name, str) or not name:
        raise InvalidRequestError(
            f"layout must be a non-empty name string, got {name!r}")
    try:
        return parse_layout(name)
    except (TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad layout {name!r}: {exc}") from exc


# --------------------------------------------------------------- scenarios
def scenario_payload(scenario) -> Payload:
    """Encode a :class:`~repro.scenarios.spec.Scenario` inline."""
    return {"name": scenario.name, "workload_set": scenario.workload_set,
            "arch": scenario.arch, "config": scenario.config.as_dict(),
            "tags": list(scenario.tags), "backend": scenario.backend}


def scenario_from_payload(payload: Payload):
    """Decode an inline scenario payload back into a :class:`Scenario`."""
    from repro.scenarios.spec import Scenario

    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"scenario payload must be an object, got {type(payload).__name__}")
    _require(payload, ("name", "workload_set", "arch", "config"), "scenario")
    tags = payload.get("tags", ())
    if (not isinstance(tags, (list, tuple))
            or not all(isinstance(tag, str) for tag in tags)):
        raise InvalidRequestError(
            f"tags must be a list of strings, got {tags!r}")
    try:
        return Scenario(
            name=_str(payload, "name"),
            workload_set=_str(payload, "workload_set"),
            arch=_str(payload, "arch"),
            config=SearchConfig.from_dict(payload["config"]),
            tags=tuple(tags),
            backend=_str(payload, "backend", "analytical"))
    except (TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, ReproError):
            raise
        raise InvalidRequestError(f"bad scenario payload: {exc}") from exc
