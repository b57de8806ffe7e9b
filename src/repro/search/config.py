"""The one search configuration: every setting that shapes a search result.

Layoutloop prices every design of a study under one mapper configuration
(§VI-A2).  :class:`SearchConfig` is that configuration as one frozen,
validated value: a :class:`~repro.api.SearchRequest` builds it from its
flat wire fields, a scenario cell carries it, a
:class:`~repro.layoutloop.mapper.Mapper` takes it, and
:meth:`SearchConfig.key` is the identity every memo and content key uses.
Every validation failure raises :class:`~repro.errors.InvalidRequestError`
(see ``docs/architecture.md``, "Search configuration").
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.errors import InvalidRequestError

if TYPE_CHECKING:
    from repro.constraints import ConstraintSet

METRICS: Tuple[str, ...] = ("edp", "latency", "energy")
"""Objectives a search can minimise."""
METRIC_FIELDS: Dict[str, str] = dict(zip(
    METRICS, ("edp", "total_cycles", "total_energy_pj")))
"""The cost-report field each metric minimises."""
POLICIES: Tuple[str, ...] = ("exhaustive", "halving", "evolutionary")
"""Search policies over the candidate universe (:mod:`repro.search.budget`)."""
CONSTRAINT_MODES: Tuple[str, ...] = ("none", "default")
"""The wire spellings of the constraint layer (:mod:`repro.constraints`)."""


def strict_int(name: str, value, minimum: Optional[int] = None,
               nullable: bool = False) -> Optional[int]:
    """``value`` as a plain ``int``, or :class:`InvalidRequestError`.

    Booleans, fractional numbers, strings and (unless ``nullable``)
    ``None`` are rejected; other integral types (numpy integers) are
    accepted and returned as ``int``.
    """
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidRequestError(
            f"{name} must be an integer{' or null' if nullable else ''}, "
            f"got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidRequestError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def strict_bool(name: str, value) -> bool:
    """``value`` if it is a boolean, else :class:`InvalidRequestError`."""
    if not isinstance(value, bool):
        raise InvalidRequestError(
            f"{name} must be a boolean, got {value!r}")
    return value


@dataclass(frozen=True)
class SearchConfig:
    """Every result-shaping setting of a search (see the module docstring).

    ``name`` is a label (cell names, records) and stays out of :meth:`key`.
    """

    name: str = "default"
    """Short label used in scenario cell names (e.g. ``"edp-50"``)."""
    metric: str = "edp"
    """Objective the search minimises: one of :data:`METRICS`."""
    max_mappings: Union[int, str] = 50
    """Sampled mappings per layer shape (the pruned-random budget), or
    ``"auto"``: the whole structured space scanned in admissible-bound
    order (:func:`repro.search.budget.halving_search` with no budget),
    stopping once no remaining bound can beat the incumbent — exactly the
    uncapped exhaustive winner.  ``"auto"`` needs the analytical backend,
    the exhaustive policy and no bound constraints, and excludes
    ``frontier``/``fused``."""
    seed: int = 0
    """RNG seed of the mapping sampler (and of stochastic backends)."""
    policy: str = "exhaustive"
    """Search policy: one of :data:`POLICIES`."""
    budget: Optional[int] = None
    """Per-shape cap on scored (mapping, layout) pairs; needs a
    non-exhaustive ``policy``."""
    frontier: bool = False
    """Keep the Pareto frontier over (EDP, latency, energy, buffer
    footprint) per shape beside the scalar winner.  Needs the analytical
    backend and the exhaustive policy."""
    fused: bool = False
    """Also search fused two-layer mappings over adjacent fusible layer
    pairs.  Needs the analytical backend and the exhaustive policy."""
    constraints: Union[None, str, ConstraintSet] = None
    """Constraint layer: ``None`` inherits the backend's own rules,
    ``"none"`` forces the layer off, ``"default"`` binds the
    architecture's rules, and in-process callers may pass a live
    :class:`~repro.constraints.ConstraintSet` (which has no JSON form)."""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise InvalidRequestError(
                f"config name must be a string, got {self.name!r}")
        if self.metric not in METRICS:
            raise InvalidRequestError(
                f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.policy not in POLICIES:
            raise InvalidRequestError(
                f"policy must be one of {POLICIES}, got {self.policy!r}")
        if isinstance(self.max_mappings, str):
            if self.max_mappings != "auto":
                raise InvalidRequestError(
                    "max_mappings must be a positive integer or 'auto', "
                    f"got {self.max_mappings!r}")
        else:
            self._set("max_mappings", strict_int(
                "max_mappings", self.max_mappings, minimum=1))
        self._set("seed", strict_int("seed", self.seed))
        self._set("budget", strict_int("budget", self.budget, minimum=1,
                                       nullable=True))
        for name in ("frontier", "fused"):
            strict_bool(name, getattr(self, name))
        if (self.constraints is not None
                and self.constraints not in CONSTRAINT_MODES):
            from repro.constraints import ConstraintSet

            if not isinstance(self.constraints, ConstraintSet):
                raise InvalidRequestError(
                    f"constraints must be None, one of {CONSTRAINT_MODES} "
                    f"or a ConstraintSet, got {self.constraints!r}")
        if self.budget is not None and self.policy == "exhaustive":
            raise InvalidRequestError(
                "budget requires policy='halving' or 'evolutionary'")
        if self.frontier or self.fused:
            # Budgeted policies skip candidates the frontier must see, and
            # the bound-ordered "auto" scan defines the scalar winner only.
            if self.policy != "exhaustive":
                raise InvalidRequestError(
                    "frontier/fused search requires policy='exhaustive', "
                    f"got {self.policy!r}")
            if self.max_mappings == "auto":
                raise InvalidRequestError(
                    "frontier/fused search requires an integer max_mappings")
        if self.max_mappings == "auto":
            if self.policy != "exhaustive":
                raise InvalidRequestError(
                    "max_mappings='auto' requires policy='exhaustive', "
                    f"got {self.policy!r}")
            if self.constraints not in (None, "none"):
                raise InvalidRequestError(
                    "max_mappings='auto' scans the raw structured universe "
                    "and cannot be combined with bound constraints")

    def _set(self, name: str, value) -> None:
        object.__setattr__(self, name, value)

    def check_backend(self, backend: str) -> None:
        """Reject this config on the evaluation backend named ``backend``.

        The bound-ordered ``"auto"`` scan, the frontier's dominance prune
        and the fused-pair cost discounts are statements about the
        analytical model, so ``max_mappings="auto"``, ``frontier`` and ``fused`` need
        ``backend="analytical"``.
        """
        if backend == "analytical":
            return
        if self.max_mappings == "auto":
            raise InvalidRequestError(
                f"max_mappings='auto' requires backend='analytical', "
                f"got {backend!r}")
        if self.frontier or self.fused:
            raise InvalidRequestError(
                f"frontier/fused search requires backend='analytical', "
                f"got {backend!r}")

    def key(self) -> Tuple:
        """The hashable identity of the result-shaping fields (``name``
        excluded), in field order; ``constraints`` is appended only when
        set."""
        key = (self.metric, self.max_mappings, self.seed, self.policy,
               self.budget, self.frontier, self.fused)
        if self.constraints is None:
            return key
        if isinstance(self.constraints, str):
            return key + (("constraints", self.constraints),)
        return key + (self.constraints.signature(),)

    def as_dict(self) -> Dict[str, object]:
        """The JSON payload (what scenario records embed); ``constraints``
        is present only when set."""
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}
        if self.constraints is None:
            del data["constraints"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SearchConfig":
        """Inverse of :meth:`as_dict`; missing fields take their defaults
        and unknown ones are rejected."""
        if not isinstance(data, dict):
            raise InvalidRequestError(
                f"config payload must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise InvalidRequestError(
                f"config does not accept field(s) {unknown}")
        return cls(**data)


CONFIG_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(SearchConfig) if f.name != "name")
"""The result-shaping fields of :class:`SearchConfig` (``name`` excluded) —
the flat fields a :class:`~repro.api.SearchRequest` carries on the wire."""
