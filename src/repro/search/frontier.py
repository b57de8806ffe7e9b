"""Pareto-frontier co-search over (EDP, latency, energy, buffer footprint).

The scalar search (:meth:`repro.layoutloop.mapper.Mapper.search`) returns one
lexicographic winner per shape.  The paper's core claim — reorder-in-reduction
lets the layout choice trade bank conflicts against reorder energy — is
inherently multi-objective, so :func:`frontier_search` keeps the whole
non-dominated set over four objectives per (mapping, layout) candidate:

* ``edp`` — energy-delay product (pJ * cycles),
* ``total_cycles`` — end-to-end latency,
* ``total_energy_pj`` — total energy,
* ``buffer_footprint_bytes`` — the on-chip tile footprint of the mapping
  (:func:`buffer_footprint_bytes`; layout-independent by construction).

The scan visits the exhaustive scalar loop's universe in index order and
scores through the same :class:`~repro.layoutloop.mapper.Incumbent`, so
the returned :class:`~repro.layoutloop.mapper.SearchResult` carries the
winner :meth:`Mapper.search` returns — and the winner is a frontier member by
construction (a metric tie can strictly dominate the lexicographic winner;
it is inserted regardless, so ``frontier=`` strictly generalizes the scalar
result).

Dominance pruning reuses the admissible bounds of :mod:`repro.search.bounds`:
a mapping's *bound vector* — (EDP bound, cycles floor, energy floor, exact
footprint) — never exceeds any of its candidates componentwise, so when an
already-kept frontier point is ``<=`` the bound vector on every component,
every candidate of that mapping is dominated (or an exact duplicate of the
earlier point) and the mapping is skipped soundly: the frontier *and* the
scalar winner come out identical to the unpruned scan.  Like the scalar
prune, this is a statement about the analytical model only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.search.bounds import cached_bound_statics
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

#: Objective names, in vector order (the order every frontier point uses).
OBJECTIVES: Tuple[str, ...] = ("edp", "total_cycles", "total_energy_pj",
                               "buffer_footprint_bytes")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Strict Pareto dominance: ``a <= b`` everywhere and ``<`` somewhere.

    Irreflexive (a point never dominates itself) and transitive — the two
    properties the frontier maintenance below relies on (pinned by the
    hypothesis tests).
    """
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def pareto_fold(front: List[Tuple[Tuple[float, ...], object]],
                vector: Tuple[float, ...], payload: object) -> None:
    """Fold one scored vector into a running Pareto front, in place.

    First-seen representatives: a vector that is dominated *or equalled* by
    an existing entry is discarded, so ties keep the earliest (lexicographic
    scan-order) candidate; otherwise every entry the new vector dominates is
    removed and ``(vector, payload)`` appended.
    """
    for kept, _ in front:
        if all(k <= v for k, v in zip(kept, vector)):
            return
    front[:] = [(kept, item) for kept, item in front
                if not all(v <= k for v, k in zip(vector, kept))]
    front.append((vector, payload))


# ------------------------------------------------------------- tile footprint
def _tile_extent(mapping, dim: str, extent: int) -> int:
    """On-chip tile extent of one dimension: the declared level-1 tile size
    or the spatial parallel degree, whichever is larger, capped at the
    workload extent (a tile never exceeds the tensor)."""
    degree = max(mapping.tile.size(dim), mapping.parallel_degree(dim))
    return max(1, min(int(extent), int(degree)))


def tile_footprints(workload, mapping, arch) -> Tuple[int, int, int]:
    """Per-tensor on-chip tile sizes in bytes: ``(iact, weight, oact)``.

    Deterministic and layout-independent: the bytes a level-1 tile of each
    tensor occupies under the mapping's tile/parallel degrees, with the
    input-activation halo derived from the output tile
    (``H_t = (P_t - 1) * stride + R_t``, capped at the tensor extent).
    This is the fourth frontier objective and the legality measure of the
    fused two-layer search.
    """
    if isinstance(workload, ConvLayerSpec):
        n_t = _tile_extent(mapping, "N", workload.n)
        m_t = _tile_extent(mapping, "M", workload.m)
        c_t = _tile_extent(mapping, "C", workload.c // workload.groups)
        p_t = _tile_extent(mapping, "P", workload.p)
        q_t = _tile_extent(mapping, "Q", workload.q)
        r_t = _tile_extent(mapping, "R", workload.r)
        s_t = _tile_extent(mapping, "S", workload.s)
        h_t = min(workload.h, (p_t - 1) * workload.stride + r_t)
        w_t = min(workload.w, (q_t - 1) * workload.stride + s_t)
        iact = n_t * c_t * h_t * w_t
        weight = m_t * c_t * r_t * s_t
        oact = n_t * m_t * p_t * q_t
    elif isinstance(workload, GemmSpec):
        m_t = _tile_extent(mapping, "M", workload.m)
        k_t = _tile_extent(mapping, "K", workload.k)
        n_t = _tile_extent(mapping, "N", workload.n)
        iact = m_t * k_t
        weight = k_t * n_t
        oact = m_t * n_t
    else:
        raise TypeError(f"unsupported workload type {type(workload)!r}")
    bits = arch.mac_bits
    return ((iact * bits) // 8, (weight * bits) // 8, (oact * bits) // 8)


def buffer_footprint_bytes(workload, mapping, arch) -> int:
    """Total on-chip tile footprint of a mapping (bytes, all three tensors)."""
    return sum(tile_footprints(workload, mapping, arch))


# ------------------------------------------------------------ frontier types
@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated (mapping, layout) candidate of a shape's frontier."""

    mapping: str
    """Name of the candidate's dataflow mapping."""
    layout: str
    """Name of the candidate's streaming-tensor layout."""
    mapping_index: int
    """Scan-order index of the mapping (lexicographic tie-break key)."""
    layout_index: int
    """Scan-order index of the layout (lexicographic tie-break key)."""
    edp: float
    """Energy-delay product of the candidate (pJ * cycles)."""
    total_cycles: float
    """End-to-end latency of the candidate (cycles)."""
    total_energy_pj: float
    """Total energy of the candidate (pJ)."""
    buffer_footprint_bytes: int
    """On-chip tile footprint of the candidate's mapping (bytes)."""

    @property
    def objectives(self) -> Tuple[float, float, float, int]:
        """The objective vector, in :data:`OBJECTIVES` order."""
        return (self.edp, self.total_cycles, self.total_energy_pj,
                self.buffer_footprint_bytes)

    def to_dict(self) -> Dict[str, object]:
        return {"mapping": self.mapping, "layout": self.layout,
                "mapping_index": self.mapping_index,
                "layout_index": self.layout_index,
                "edp": self.edp, "total_cycles": self.total_cycles,
                "total_energy_pj": self.total_energy_pj,
                "buffer_footprint_bytes": self.buffer_footprint_bytes}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FrontierPoint":
        return cls(**data)


@dataclass
class ShapeFrontier:
    """The Pareto frontier of one workload shape on one architecture.

    ``points`` are canonically ordered — sorted by (objective vector,
    mapping index, layout index) — so two runs of the same cell produce the
    same JSON byte for byte; the scalar lexicographic winner is always a
    member (``winner_index``).  Serialization uses only plain JSON types,
    and the stdlib's shortest-round-trip float repr makes
    ``to_dict -> json -> from_dict`` bit-identical (the same guarantee
    :class:`~repro.scenarios.record.ScenarioRecord` documents).
    """

    workload: str
    """Name of the searched workload."""
    arch: str
    """Name of the architecture."""
    metric: str
    """Scalar objective the winner minimised (``edp``/``latency``/``energy``)."""
    points: List[FrontierPoint]
    """The non-dominated set, canonically ordered."""
    winner_index: int
    """Index (into ``points``) of the scalar lexicographic winner."""
    evaluated: int
    """(mapping, layout) candidates scored, including evaluation-cache hits."""
    pruned: int
    """Candidates skipped by the frontier dominance bound."""

    def winner(self) -> FrontierPoint:
        """The frontier member equal to the scalar search's winner."""
        return self.points[self.winner_index]

    def to_dict(self) -> Dict[str, object]:
        return {"workload": self.workload, "arch": self.arch,
                "metric": self.metric,
                "points": [p.to_dict() for p in self.points],
                "winner_index": self.winner_index,
                "evaluated": self.evaluated, "pruned": self.pruned}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShapeFrontier":
        fields = dict(data)
        points = [FrontierPoint.from_dict(p) for p in fields.pop("points")]
        return cls(points=points, **fields)


# ------------------------------------------------------------------- search
def frontier_search(mapper, workload):
    """Scan the mapper's candidate universe keeping the Pareto frontier.

    Returns ``(result, frontier)`` where ``result`` is a
    :class:`~repro.layoutloop.mapper.SearchResult` bit-identical to
    :meth:`Mapper.search` on the same configuration (same winner report,
    mapping and layout — the counters reflect *this* scan's frontier
    pruning) and ``frontier`` is the shape's :class:`ShapeFrontier`.

    The mapper's config must be valid as a ``frontier=True`` config on its
    backend (:meth:`~repro.search.config.SearchConfig.check_backend`):
    analytical backend, exhaustive policy, integer ``max_mappings``.
    """
    from repro.layoutloop.mapper import Incumbent
    from repro.search.bulk import candidate_universe

    # Rebuilding the config with frontier=True runs its frontier rules
    # whatever the mapper's own flag (direct callers leave it False).
    config = dataclasses.replace(mapper.config, frontier=True)
    config.check_backend(mapper._backend_name)

    layouts = mapper.candidate_layouts(workload)
    statics = cached_bound_statics(mapper.cost_model, workload)
    arch = mapper.arch
    # Footprints and cycle floors for the whole universe in one numpy pass;
    # mappings materialize lazily, so dominance-pruned entries are never
    # built.
    mappings = candidate_universe(mapper, workload)
    footprints = mappings.footprints(arch).tolist()
    cycle_floors = mappings.cycles_floor(statics).tolist()

    incumbent = Incumbent(mapper, workload, layouts,
                          mappings.compute_cycles().tolist())
    pruned = 0
    # Running front: [(objective vector, (m_idx, l_idx, mapping, layout))].
    front: List[Tuple[Tuple[float, ...], Tuple]] = []
    front_arr: Optional[np.ndarray] = None  # numpy mirror, rebuilt after folds

    for m_idx in range(len(mappings)):
        footprint = footprints[m_idx]
        if front:
            cycles_floor = cycle_floors[m_idx]
            lower = (statics.energy_floor_pj * cycles_floor, cycles_floor,
                     statics.energy_floor_pj, footprint)
            # A kept point <= the bound vector everywhere dominates (or
            # exactly duplicates) every candidate of this mapping: skip it.
            # The point is from an earlier mapping, so the scalar incumbent
            # also survives any metric tie (lexicographic order).
            if front_arr is None:
                front_arr = np.asarray([kept for kept, _ in front],
                                       dtype=np.float64)
            if np.any(np.all(front_arr <= np.asarray(lower, dtype=np.float64),
                             axis=1)):
                pruned += len(layouts)
                continue
        mapping = mappings[m_idx]
        scored = incumbent.score(m_idx, mapping)
        for l_idx, (layout, ((cycles, energy, _), _)) in enumerate(
                zip(layouts, scored)):
            vector = (energy * cycles, cycles, energy, footprint)
            pareto_fold(front, vector, (m_idx, l_idx, mapping, layout))
        front_arr = None  # folds may have grown or thinned the front

    # The lexicographic winner can be strictly dominated through a metric
    # tie; insert it by construction so frontier mode strictly generalizes
    # the scalar result.
    result = incumbent.result(pruned)
    winner_key = incumbent.key[1:]
    if not any(payload[:2] == winner_key for _, payload in front):
        cycles, energy, _ = incumbent.entry
        front.append(((energy * cycles, cycles, energy,
                       footprints[winner_key[0]]),
                      (*winner_key, result.best_mapping, result.best_layout)))

    front.sort(key=lambda entry: (entry[0], entry[1][0], entry[1][1]))
    points = [FrontierPoint(
        mapping=payload[2].name, layout=payload[3].name,
        mapping_index=payload[0], layout_index=payload[1],
        edp=vector[0], total_cycles=vector[1], total_energy_pj=vector[2],
        buffer_footprint_bytes=vector[3])
        for vector, payload in front]
    winner_index = next(index for index, (_, payload) in enumerate(front)
                        if payload[:2] == winner_key)

    frontier = ShapeFrontier(
        workload=result.workload, arch=arch.name, metric=config.metric,
        points=points, winner_index=winner_index,
        evaluated=result.evaluated, pruned=pruned)
    return result, frontier
