"""Name registries resolving scenario specs to concrete objects.

Scenarios reference workload sets and architectures by name so they stay
serializable and so records can be re-run from their JSON alone.  This
module owns both registries, ships the built-in entries, and parses the
one piece of spec syntax: an optional ``[:k]`` slice suffix on a workload
set (``"resnet50[:4]"`` = the first four layers), which keeps small test
and smoke cells declarative instead of needing bespoke registry entries.

Downstream projects can :func:`register_workload_set` /
:func:`register_arch` their own entries; built-ins are registered at import
time with factories (never shared mutable lists).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.registry import fig13_arch_suite
from repro.errors import InvalidRequestError
from repro.layoutloop.arch import ArchSpec, feather_arch
from repro.workloads.bert import bert_head_gemm_sweep, bert_unique_gemms
from repro.workloads.gemm import fig10_workloads
from repro.workloads.micro import micro_conv_layers, micro_gemm_layers
from repro.workloads.mobilenet_v3 import (
    mobilenet_v3_depthwise_layers,
    mobilenet_v3_layers,
    mobilenet_v3_pointwise_layers,
)
from repro.workloads.resnet50 import resnet50_layers, resnet50_residual_block

_WORKLOAD_SETS: Dict[str, Callable[[], List]] = {}
_ARCHES: Dict[str, Callable[[], ArchSpec]] = {}

_SLICE_RE = re.compile(r"^(?P<base>.*?)\[:(?P<stop>\d+)\]$")


# ------------------------------------------------------------- registration
def register_workload_set(name: str, factory: Callable[[], List],
                          overwrite: bool = False) -> None:
    """Register a zero-argument factory returning a list of workloads."""
    if "[" in name or "]" in name:
        raise ValueError(f"workload-set name {name!r} may not contain "
                         "brackets (reserved for the [:k] slice syntax)")
    if name in _WORKLOAD_SETS and not overwrite:
        raise ValueError(f"workload set {name!r} is already registered")
    _WORKLOAD_SETS[name] = factory


def register_arch(name: str, factory: Callable[[], ArchSpec],
                  overwrite: bool = False) -> None:
    """Register a zero-argument factory returning an :class:`ArchSpec`."""
    if name in _ARCHES and not overwrite:
        raise ValueError(f"architecture {name!r} is already registered")
    _ARCHES[name] = factory


def workload_set_names() -> List[str]:
    """Registered workload-set names, sorted."""
    return sorted(_WORKLOAD_SETS)


def arch_names() -> List[str]:
    """Registered architecture names, sorted."""
    return sorted(_ARCHES)


# --------------------------------------------------------------- resolution
def parse_workload_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split a workload-set spec into ``(registry name, slice stop)``."""
    match = _SLICE_RE.match(spec)
    if match:
        return match.group("base"), int(match.group("stop"))
    return spec, None


def resolve_workload_set(spec: str) -> List:
    """Materialize a workload-set spec into a fresh list of workloads."""
    base, stop = parse_workload_spec(spec)
    try:
        factory = _WORKLOAD_SETS[base]
    except KeyError:
        raise InvalidRequestError(
            f"unknown workload set {base!r}; registered: "
            f"{', '.join(workload_set_names())}") from None
    workloads = list(factory())
    return workloads[:stop] if stop is not None else workloads


def resolve_arch(name: str) -> ArchSpec:
    """Materialize an architecture registry name into an :class:`ArchSpec`."""
    try:
        factory = _ARCHES[name]
    except KeyError:
        raise InvalidRequestError(
            f"unknown architecture {name!r}; registered: "
            f"{', '.join(arch_names())}") from None
    return factory()


# ----------------------------------------------------------------- builtins
def _fig2_motivation(model: str) -> List:
    from repro.experiments.fig2 import motivation_workloads

    return motivation_workloads(model)


def _register_builtin_workload_sets() -> None:
    # The paper's three Fig. 13 workloads (conv layers without the FC).
    register_workload_set(
        "resnet50", lambda: resnet50_layers(include_fc=False))
    register_workload_set(
        "mobilenet_v3", lambda: mobilenet_v3_layers(include_fc=False))
    register_workload_set("bert", bert_unique_gemms)
    # Figure-specific sets.
    register_workload_set("fig10_gemms", fig10_workloads)
    register_workload_set("fig2_resnet50_motivation",
                          lambda: _fig2_motivation("resnet50"))
    register_workload_set("fig2_mobilenet_v3_motivation",
                          lambda: _fig2_motivation("mobilenet_v3"))
    # Scenario-diversity sets the cost model supports but no figure runs.
    register_workload_set("mobilenet_v3_depthwise",
                          mobilenet_v3_depthwise_layers)
    register_workload_set("mobilenet_v3_pointwise",
                          mobilenet_v3_pointwise_layers)
    register_workload_set("bert_head_sweep", bert_head_gemm_sweep)
    # The fused-mapping demo chain (conv2_x bottleneck 2, layers 6-8).
    register_workload_set("resnet50_residual_block", resnet50_residual_block)
    register_workload_set(
        "resnet50_batch4",
        lambda: [l.with_batch(4) for l in resnet50_layers(include_fc=False)])
    register_workload_set(
        "mobilenet_v3_batch4",
        lambda: [l.with_batch(4)
                 for l in mobilenet_v3_layers(include_fc=False)])
    # Micro sets sized for the cycle-level simulator backend (the
    # functional NEST runs every MAC in Python, so simulator/crossval
    # cells need shapes a few orders of magnitude below the paper's).
    register_workload_set("micro_convs", micro_conv_layers)
    register_workload_set("micro_gemms", micro_gemm_layers)


def _register_builtin_arches() -> None:
    # Every Table IV / Fig. 13 configuration, addressable by its arch name.
    # ArchSpec is a frozen dataclass, so the factories can safely hand out
    # the one instance built at import time.
    for spec in fig13_arch_suite():
        register_arch(spec.name, lambda s=spec: s)
    for spec in fig13_arch_suite(gemm=True):
        if spec.name not in _ARCHES:  # only SIGMA-like (MK_K32) is new
            register_arch(spec.name, lambda s=spec: s)
    # Smaller FEATHER instances for GEMM micro-scenarios (Fig. 10 scale).
    register_arch("FEATHER-4x4", lambda: feather_arch(4, 4))
    register_arch("FEATHER-8x8", lambda: feather_arch(8, 8))


_register_builtin_workload_sets()
_register_builtin_arches()
