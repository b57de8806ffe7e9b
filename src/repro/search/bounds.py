"""Workload-level components of the admissible pruning bounds.

The expensive part of scoring a (mapping, layout) candidate is the
bank-conflict concordance analysis inside
:meth:`repro.layoutloop.cost_model.CostModel.evaluate_mapping_batch`.  The
pruning bounds are *sound* lower bounds built from quantities that are
either workload-only (tensor footprints, reorder-mechanism cost, computed
here once per search as :class:`BoundStatics`) or mapping-only (padded
compute cycles, combined with the statics for the whole universe at once
by :meth:`repro.search.bulk.BulkUniverse.bounds`) — both orders of
magnitude cheaper than a full evaluation:

* ``total_cycles  >= compute_cycles + exposed reorder cycles`` because the
  bank-conflict slowdown is always >= 1 (it is ``max(lines/ports, 1)``);
* ``total_energy  >= energy floor`` where the floor keeps exactly the terms
  of the energy breakdown that do not depend on the mapping or layout: MAC
  and register energy, compulsory buffer/NoC/DRAM traffic (every tensor
  element is moved at least once) and the reorder-mechanism energy.

Because the bounds never exceed the true metric value, skipping a candidate
whose bound is already >= the incumbent best can never drop the optimum —
the pruned search returns bit-identical results to the exhaustive one (see
``tests/test_search_engine.py`` for the property test).  The scalar
per-mapping bound the bulk pass replicates lives in the tests' reference
oracle (``tests/reference.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class BoundStatics:
    """Workload-level (mapping-independent) bound components.

    Computed once per search; combined with per-mapping compute cycles by
    :meth:`repro.search.bulk.BulkUniverse.bounds`.
    """

    energy_floor_pj: float
    """Lower bound on total energy (pJ) over all mappings and layouts."""

    reorder_cycles: float
    """Exact exposed latency (cycles) of the arch's reorder mechanism."""


def bound_statics(cost_model, workload) -> BoundStatics:
    """Precompute the workload-level bound components for one cost model."""
    table = cost_model.energy
    arch = cost_model.arch
    macs = workload.macs
    iact, weight, oact = cost_model._tensor_elems(workload)
    elems = iact + weight + oact
    bytes_per_elem = arch.mac_bits / 8.0
    reorder_cycles, reorder_energy_pj = cost_model.reorder_costs(workload)

    energy_floor_pj = (
        macs * table.mac_int8_pj
        + 2.0 * macs * table.register_access_pj
        # buffer_read >= (iact + weight) reads even at slowdown 1 and
        # unbounded reuse, because reads are floored at the tensor footprint.
        + (iact + weight) * table.buffer_read_per_word_pj
        # buffer_write >= fills from DRAM plus one write per output element.
        + elems * table.buffer_write_per_word_pj
        + elems * table.noc_hop_per_word_pj
        + elems * bytes_per_elem * table.dram_access_per_byte_pj
        + reorder_energy_pj
    )
    return BoundStatics(energy_floor_pj=energy_floor_pj,
                        reorder_cycles=reorder_cycles)


_STATICS_CACHE: Dict[Tuple, BoundStatics] = {}
_STATICS_LOCK = threading.Lock()


def cached_bound_statics(cost_model, workload) -> BoundStatics:
    """Memoized :func:`bound_statics`, keyed on (arch+energy, shape) signature.

    The statics depend only on what the signatures capture — every cost
    model with the same architecture and energy table produces the same
    floor for the same workload shape — so one process-wide map is safe to
    share across mappers, sessions and threads.  ``BoundStatics`` is frozen,
    so returning the shared instance is safe too.
    """
    from repro.search.signatures import arch_signature, workload_signature

    key = (arch_signature(cost_model.arch, cost_model.energy),
           workload_signature(workload))
    with _STATICS_LOCK:
        statics = _STATICS_CACHE.get(key)
    if statics is None:
        statics = bound_statics(cost_model, workload)
        with _STATICS_LOCK:
            _STATICS_CACHE.setdefault(key, statics)
    return statics
