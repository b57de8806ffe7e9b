"""Dataflow-layout co-search over whole models (paper §V and §VI-A2).

The paper searches the (dataflow, layout) pair with the best energy-delay
product for every layer independently, then sums per-layer results for the
whole model.  Because DNNs repeat layer shapes many times, the co-search
deduplicates identical shapes and weights the per-shape result by its
occurrence count — this is a pure speed optimisation with no effect on the
totals.

Whole-model searches run as :class:`~repro.api.SearchRequest` objects on a
:class:`~repro.api.Session` (the batch engine in :mod:`repro.search.engine`
adds evaluation memoization, admissible pruning and optional process
fan-out).  The aggregate dataclasses (:class:`LayerChoice`,
:class:`ModelCost`) and the fused two-layer search live here because they
are part of the layoutloop vocabulary.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.layoutloop.mapper import Mapper, SearchResult
from repro.search.config import METRIC_FIELDS
from repro.search.frontier import pareto_fold, tile_footprints
from repro.search.signatures import workload_signature
from repro.workloads.conv import ConvLayerSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.search.engine import SearchStats


@dataclass
class LayerChoice:
    """The chosen (dataflow, layout) and its cost for one unique layer shape."""

    result: SearchResult
    """The per-shape search outcome (best mapping, layout and cost report)."""
    count: int
    """How many times this shape occurs in the model (weights the totals)."""
    frontier: Optional[object] = None
    """The shape's :class:`~repro.search.frontier.ShapeFrontier` when the
    search ran in ``frontier=`` mode; None otherwise."""

    @property
    def cycles(self) -> float:
        """Total latency contribution of all occurrences (cycles)."""
        return self.result.best_report.total_cycles * self.count

    @property
    def energy_pj(self) -> float:
        """Total energy contribution of all occurrences (pJ)."""
        return self.result.best_report.total_energy_pj * self.count

    @property
    def macs(self) -> int:
        """Total MAC operations of all occurrences (count)."""
        return self.result.best_report.macs * self.count


@dataclass
class ModelCost:
    """Aggregate cost of running a whole model on one architecture."""

    arch: str
    """Name of the architecture the model was searched on."""
    model: str
    """Name of the model (e.g. ``resnet50``)."""
    layer_choices: List[LayerChoice] = field(default_factory=list)
    """Per-unique-shape winners, in first-seen layer order."""
    search_stats: Optional["SearchStats"] = None
    """Engine bookkeeping (evaluations, pruning, cache hits) when searched
    through the batch engine (:mod:`repro.search.engine`); None otherwise."""
    frontiers: Optional[List] = None
    """Per-unique-shape :class:`~repro.search.frontier.ShapeFrontier`
    objects (same order as ``layer_choices``) when the search ran in
    ``frontier=`` mode; None otherwise."""
    fused_pairs: Optional[List] = None
    """Per-adjacent-pair :class:`FusedPairResult` objects when the search
    ran in ``fused=`` mode; None otherwise."""

    @property
    def total_cycles(self) -> float:
        """Whole-model latency (cycles), occurrence-weighted."""
        return sum(c.cycles for c in self.layer_choices)

    @property
    def total_energy_pj(self) -> float:
        """Whole-model energy (pJ), occurrence-weighted."""
        return sum(c.energy_pj for c in self.layer_choices)

    @property
    def total_macs(self) -> int:
        """Whole-model MAC operations (count)."""
        return sum(c.macs for c in self.layer_choices)

    @property
    def energy_per_mac_pj(self) -> float:
        """Whole-model energy efficiency (pJ/MAC).

        With zero total MACs the ratio is undefined: nonzero energy returns
        ``inf`` (never a silent 0.0 that would rank the model as free),
        zero energy returns 0.0.
        """
        if self.total_macs:
            return self.total_energy_pj / self.total_macs
        return math.inf if self.total_energy_pj > 0 else 0.0

    @property
    def edp(self) -> float:
        """Whole-model energy-delay product (pJ * cycles)."""
        return self.total_energy_pj * self.total_cycles

    @property
    def avg_utilization(self) -> float:
        """MAC-weighted steady-state utilization across layers (0..1).

        Falls back to the unweighted mean over layers when the model has
        zero total MACs (so degenerate inputs do not read as 0% utilized).
        """
        if not self.layer_choices:
            return 0.0
        total_macs = self.total_macs
        if not total_macs:
            return (sum(c.result.best_report.utilization
                        for c in self.layer_choices) / len(self.layer_choices))
        total = sum(c.result.best_report.utilization * c.macs
                    for c in self.layer_choices)
        return total / total_macs

    @property
    def stall_fraction(self) -> float:
        """Fraction of total cycles spent on bank-conflict stalls (0..1)."""
        stalls = sum(c.result.best_report.stall_cycles * c.count for c in self.layer_choices)
        return stalls / self.total_cycles if self.total_cycles else 0.0

    @property
    def reorder_fraction(self) -> float:
        """Fraction of total cycles exposed by layout reordering (0..1)."""
        reorder = sum(c.result.best_report.reorder_cycles_exposed * c.count
                      for c in self.layer_choices)
        return reorder / self.total_cycles if self.total_cycles else 0.0

    def geomean_cycles(self) -> float:
        """Geometric mean of per-unique-shape latency (cycles)."""
        values = [c.result.best_report.total_cycles for c in self.layer_choices]
        return _geomean(values)

    def geomean_energy_per_mac(self) -> float:
        """Geometric mean of per-unique-shape energy efficiency (pJ/MAC)."""
        values = [c.result.best_report.energy_per_mac_pj for c in self.layer_choices]
        return _geomean(values)

    def layouts_used(self) -> List[str]:
        """Sorted names of the distinct layouts chosen across the model."""
        return sorted({c.result.best_layout.name for c in self.layer_choices})


def _geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def unique_workloads(workloads: Sequence) -> List[Tuple[object, int]]:
    """Group workloads by shape signature, preserving first-seen order.

    Uses the same :func:`repro.search.signatures.workload_signature` the
    engine caches key on, so deduplication and memoization always agree.
    """
    groups: "OrderedDict[Tuple, Tuple[object, int]]" = OrderedDict()
    for wl in workloads:
        sig = workload_signature(wl)
        if sig in groups:
            existing, count = groups[sig]
            groups[sig] = (existing, count + 1)
        else:
            groups[sig] = (wl, 1)
    return list(groups.values())


# ------------------------------------------------------- fused two-layer search
@dataclass
class FusedPairResult:
    """A fused producer→consumer search outcome over shared layouts.

    Fusing keeps the producer's output tile on chip: the consumer streams
    it directly, so the intermediate tensor's DRAM write-out and read-back
    are both skipped, and the shared intermediate layout — the producer's
    output layout *is* the consumer's input layout — is a single search
    variable constraining both layers.  ``points`` is the Pareto frontier
    over the shared layouts, (EDP, cycles, energy, fused footprint); every
    point is a plain JSON dict, so a ``FusedPairResult`` round-trips
    through :class:`~repro.scenarios.record.ScenarioRecord` payloads
    bit-identically.
    """

    producer: str
    """Name of the producing layer."""
    consumer: str
    """Name of the consuming layer."""
    arch: str
    """Name of the architecture."""
    metric: str
    """Scalar objective the winner minimised."""
    points: List[Dict[str, object]]
    """Frontier points over shared layouts, canonically ordered; each has
    the shared ``layout``, both chosen mappings, the four fused objectives,
    ``legal`` (fused footprint fits the on-chip buffer) and
    ``saved_dram_bytes``."""
    winner_index: int
    """Index (into ``points``) of the scalar lexicographic winner."""
    capacity_bytes: int
    """On-chip buffer capacity the legality check used (bytes)."""

    def winner(self) -> Dict[str, object]:
        """The winning shared-layout candidate."""
        return self.points[self.winner_index]

    def to_dict(self) -> Dict[str, object]:
        return {"producer": self.producer, "consumer": self.consumer,
                "arch": self.arch, "metric": self.metric,
                "points": [dict(p) for p in self.points],
                "winner_index": self.winner_index,
                "capacity_bytes": self.capacity_bytes}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FusedPairResult":
        fields = dict(data)
        fields["points"] = [dict(p) for p in fields["points"]]
        return cls(**fields)


def fusible(producer, consumer) -> bool:
    """Whether two adjacent conv layers can share the intermediate on chip:
    the producer's output tensor must *be* the consumer's input tensor
    (channels and spatial extents line up, same batch)."""
    return (isinstance(producer, ConvLayerSpec)
            and isinstance(consumer, ConvLayerSpec)
            and producer.n == consumer.n
            and producer.m == consumer.c
            and producer.p == consumer.h
            and producer.q == consumer.w)


def fused_pair_search(mapper: Mapper, producer, consumer) -> FusedPairResult:
    """Search a fused producer→consumer pair over shared intermediate layouts.

    For each candidate layout of the intermediate tensor, the producer is
    searched unconstrained (its own input layout stays free) and the
    consumer is searched restricted to that layout; the fused pair then

    * skips the intermediate's DRAM round trip — the write-out and
      read-back energy (``2 * bytes * dram_access_per_byte_pj``) and the
      corresponding off-chip streaming cycles (floored so the fused pair
      is never faster than its slower member), and
    * shares one on-chip tile — the fused footprint discounts the smaller
      of the producer's output tile and the consumer's input tile, and is
      ``legal`` only when it fits :attr:`BufferGeometry.capacity_bytes`.

    The frontier keeps the non-dominated *legal* candidates; the scalar
    winner is the lexicographic minimum of ``(metric value, layout
    index)`` over them (over all candidates when none is legal — the
    ``legal`` flags then say so).
    """
    from repro.errors import InvalidRequestError

    if not fusible(producer, consumer):
        raise InvalidRequestError(
            f"layers {getattr(producer, 'name', producer)!r} -> "
            f"{getattr(consumer, 'name', consumer)!r} are not fusible: the "
            "producer's output tensor must be the consumer's input tensor")
    arch = mapper.arch
    table = mapper.cost_model.energy
    shared = mapper.candidate_layouts(consumer)
    producer_result = mapper.search(producer)
    producer_tiles = tile_footprints(producer, producer_result.best_mapping,
                                     arch)
    inter_bytes = (producer.oact_elems * arch.mac_bits) // 8

    candidates: List[Dict[str, object]] = []
    for layout_index, layout in enumerate(shared):
        consumer_result = mapper.search(consumer, layouts=[layout])
        consumer_tiles = tile_footprints(
            consumer, consumer_result.best_mapping, arch)
        saved_pj = 2.0 * inter_bytes * table.dram_access_per_byte_pj
        energy_pj = (producer_result.best_report.total_energy_pj
                     + consumer_result.best_report.total_energy_pj - saved_pj)
        saved_cycles = 2.0 * inter_bytes / arch.offchip_bytes_per_cycle
        summed = (producer_result.best_report.total_cycles
                  + consumer_result.best_report.total_cycles)
        cycles = max(summed - saved_cycles,
                     float(max(producer_result.best_report.total_cycles,
                               consumer_result.best_report.total_cycles)))
        footprint = (sum(producer_tiles) + sum(consumer_tiles)
                     - min(producer_tiles[2], consumer_tiles[0]))
        candidates.append({
            "layout": layout.name, "layout_index": layout_index,
            "producer_mapping": producer_result.best_mapping.name,
            "consumer_mapping": consumer_result.best_mapping.name,
            "edp": energy_pj * cycles, "total_cycles": cycles,
            "total_energy_pj": energy_pj,
            "buffer_footprint_bytes": footprint,
            "legal": footprint <= arch.buffer.capacity_bytes,
            "saved_dram_bytes": 2 * inter_bytes,
        })

    pool = [c for c in candidates if c["legal"]] or candidates
    metric = mapper.config.metric
    winner = min(pool, key=lambda c: (c[METRIC_FIELDS[metric]],
                                      c["layout_index"]))
    front: List[Tuple[Tuple[float, ...], Dict[str, object]]] = []
    for candidate in pool:
        vector = (candidate["edp"], candidate["total_cycles"],
                  candidate["total_energy_pj"],
                  candidate["buffer_footprint_bytes"])
        pareto_fold(front, vector, candidate)
    if not any(payload is winner for _, payload in front):
        front.append(((winner["edp"], winner["total_cycles"],
                       winner["total_energy_pj"],
                       winner["buffer_footprint_bytes"]), winner))
    front.sort(key=lambda entry: (entry[0], entry[1]["layout_index"]))
    points = [payload for _, payload in front]
    return FusedPairResult(
        producer=getattr(producer, "name", str(producer)),
        consumer=getattr(consumer, "name", str(consumer)),
        arch=arch.name, metric=metric, points=points,
        winner_index=points.index(winner),
        capacity_bytes=arch.buffer.capacity_bytes)


def fused_model_search(mapper: Mapper, workloads: Sequence
                       ) -> List[FusedPairResult]:
    """Fused search over every fusible adjacent pair of a layer sequence.

    Layers are taken in model order (no shape deduplication — adjacency is
    positional); non-fusible pairs are skipped.  Returns one
    :class:`FusedPairResult` per fusible pair, in order.
    """
    results = []
    for producer, consumer in zip(workloads, list(workloads)[1:]):
        if fusible(producer, consumer):
            results.append(fused_pair_search(mapper, producer, consumer))
    return results

