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

The floor adds its terms left to right in the breakdown's order, as every
energy total does (:func:`repro.layoutloop.cost_model.energy_total`).  Each
term is at most the breakdown's and rounding is monotone, so the floor
never exceeds a total, on every interpreter, and equals it where every term
is reached.

Because the bounds never exceed the true metric value, skipping a candidate
whose bound is already >= the incumbent best can never drop the optimum —
the pruned search returns bit-identical results to the exhaustive one (see
``tests/test_search_engine.py`` for the property test).  The columnar scan
of a slowdown-free design checks ``bound <= value`` on every entry of its
universe and raises on a violation.  The scalar per-mapping bound the bulk
pass replicates lives in the tests' reference oracle
(``tests/reference.py``).

The statics are a handful of float operations, so every search computes
them afresh (:func:`bound_statics`): a memo keyed on the arch and shape
signatures takes about as long per call as computing them.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    # Left to right in the breakdown's order, like ``energy_total``.
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
