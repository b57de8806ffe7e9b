"""Property-based tests of the constraint layer (repair, don't reject).

Hypothesis drives random mappings through random :class:`ConstraintSet`s
and asserts the repair contract the search engine is built on:

* repair always lands in the legal set (``validate() == True``);
* repair is idempotent — repairing a repaired mapping returns the
  *identical object* with the identity outcome;
* an already-legal mapping is never touched;
* the pruning bounds stay admissible on repaired universes: a pruned
  constrained search returns the unpruned winner bit-identically and its
  counters close over the raw universe
  (``evaluated + pruned + repaired == universe_pairs``).

Plus the identity checks on every golden cell: with no ConstraintSet
bound, forcing the layer off (``constraints="none"``) is bit-identical to
the default mapper; on the constrained-backend cells every repaired
candidate validates, repair is idempotent on it and the counters close
over the universe.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from reference import reference_search
from repro.backends import create_backend
from repro.constraints import (
    NO_REPAIR,
    ConstraintSet,
    UnsatisfiableConstraintError,
    default_constraints,
    noc_constraints,
    systolic_constraints,
)
from repro.dataflow.mapping import Mapping, ParallelSpec, TileLevel
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.mapper import Mapper
from repro.scenarios import golden_matrix
from repro.scenarios.registry import resolve_arch, resolve_workload_set
from repro.search.config import SearchConfig
from repro.search.signatures import workload_signature
from repro.workloads.conv import ConvLayerSpec

ARCH = feather_arch()
WORKLOAD = ConvLayerSpec("hyp-conv", m=32, c=32, h=8, w=8, r=3, s=3)
DIMS = ("N", "M", "C", "R", "S", "P", "Q")

_DEGREES = st.sampled_from([1, 2, 3, 4, 6, 8, 16])
_ORDERS = st.permutations(DIMS).map(tuple)


@st.composite
def mappings(draw):
    parallel = []
    budget = 16 * 16  # total parallelism must fit the array
    for dim in ("M", "C", "P", "Q"):
        degree = draw(_DEGREES)
        if degree > 1 and degree <= budget:
            parallel.append(ParallelSpec(dim, degree))
            budget //= degree
    tile = {dim: draw(st.sampled_from([1, 2, 4, 8, 16])) for dim in
            ("M", "C", "P", "Q")}
    for spec in parallel:  # tiles at least cover the spatial degree
        tile[spec.dim] = max(tile[spec.dim], spec.degree)
    return Mapping("hyp", 16, 16, tuple(parallel), TileLevel.of(**tile),
                   draw(_ORDERS))


@st.composite
def constraint_sets(draw):
    # Full-length orders only: a partial order that cannot cover the conv
    # dims is the (separately tested) unsatisfiable case, not this one.
    allowed_orders = draw(st.sampled_from([
        None,
        (DIMS,),
        (("M", "N", "C", "R", "S", "P", "Q"),),
        (DIMS, ("Q", "P", "S", "R", "C", "M", "N")),
    ]))
    return ConstraintSet(
        name="hyp-rules",
        allowed_orders=allowed_orders,
        buffer_capacity_bytes=draw(st.sampled_from([None, 1 << 14, 1 << 18])),
        allowed_parallel_dims=draw(st.sampled_from(
            [None, ("M",), ("M", "C"), ("M", "C", "K")])),
        parallel_multiple_of=draw(st.sampled_from([1, 2, 4])),
        pow2_spatial_reduction=draw(st.booleans()),
        max_spatial_reduction=draw(st.sampled_from([None, 2, 8])),
    )


def _repair(cset, mapping):
    try:
        return cset.repair(mapping, WORKLOAD, ARCH)
    except UnsatisfiableConstraintError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(mapping=mappings(), cset=constraint_sets())
def test_repair_lands_in_the_legal_set(mapping, cset):
    fixed, outcome = _repair(cset, mapping)
    assert cset.validate(fixed, WORKLOAD, ARCH)
    assert cset.violations(fixed, WORKLOAD, ARCH) == ()
    # The outcome names what was violated iff something was repaired.
    assert outcome.changed == bool(cset.violations(mapping, WORKLOAD, ARCH))
    if outcome.changed:
        assert outcome.violations
        assert fixed.name == f"{mapping.name}~fix"


@settings(max_examples=200, deadline=None)
@given(mapping=mappings(), cset=constraint_sets())
def test_repair_is_idempotent(mapping, cset):
    fixed, _ = _repair(cset, mapping)
    again, outcome = cset.repair(fixed, WORKLOAD, ARCH)
    assert again is fixed
    assert outcome is NO_REPAIR


@settings(max_examples=200, deadline=None)
@given(mapping=mappings(), cset=constraint_sets())
def test_repair_never_touches_a_legal_mapping(mapping, cset):
    assume(cset.validate(mapping, WORKLOAD, ARCH))
    fixed, outcome = cset.repair(mapping, WORKLOAD, ARCH)
    assert fixed is mapping
    assert outcome is NO_REPAIR
    assert not outcome.changed


@settings(max_examples=120, deadline=None)
@given(mapping=mappings())
def test_preset_constraints_repair_to_legality(mapping):
    for cset in (default_constraints(ARCH), systolic_constraints(ARCH),
                 noc_constraints("tree", ARCH), noc_constraints("linear",
                                                                ARCH)):
        fixed, _ = _repair(cset, mapping)
        assert cset.validate(fixed, WORKLOAD, ARCH)
        again, outcome = cset.repair(fixed, WORKLOAD, ARCH)
        assert again is fixed and outcome is NO_REPAIR


@settings(max_examples=15, deadline=None)
@given(cset=constraint_sets())
def test_pruning_bounds_admissible_on_repaired_universes(cset):
    """A pruned constrained search must return the unpruned winner
    bit-identically, with counters closing over the raw universe."""
    try:
        config = SearchConfig(metric="edp", max_mappings=8, seed=0,
                              constraints=cset)
        pruned = Mapper(ARCH, config).search(WORKLOAD)
        full = reference_search(Mapper(ARCH, config), WORKLOAD, prune=False)
    except UnsatisfiableConstraintError:
        assume(False)
    assert pruned.best_report == full.best_report
    assert pruned.best_mapping.name == full.best_mapping.name
    assert pruned.best_layout.name == full.best_layout.name
    # Pruning only moves evaluations into the pruned counter.
    assert pruned.evaluated + pruned.pruned == full.evaluated
    for result in (pruned, full):
        universe = result.repair["universe_pairs"]
        assert (result.evaluated + result.pruned + result.repaired
                == universe)


def test_unsatisfiable_order_raises():
    cset = ConstraintSet(name="gemm-only",
                         allowed_orders=(("M", "K", "N"),))
    mapping = Mapping("conv", 16, 16, (), TileLevel.of(M=1), DIMS)
    try:
        cset.repair(mapping, WORKLOAD, ARCH)
    except UnsatisfiableConstraintError as exc:
        assert "loop-order" in str(exc)
    else:
        raise AssertionError("expected UnsatisfiableConstraintError")


# ----------------------------------------------------- golden-cell identity
GOLDEN = list(golden_matrix())


def _golden_mapper(cell, constraints=None) -> Mapper:
    """A fresh mapper of a golden cell's configuration and backend."""
    arch = resolve_arch(cell.arch)
    backend = ("analytical" if cell.backend in ("analytical", "crossval")
               else create_backend(cell.backend, arch, seed=cell.config.seed))
    return Mapper(arch, dataclasses.replace(cell.config,
                                            constraints=constraints),
                  backend=backend)


def _unique_shapes(cell):
    seen = {}
    for workload in resolve_workload_set(cell.workload_set):
        seen.setdefault(workload_signature(workload), workload)
    return list(seen.values())


@pytest.mark.parametrize("cell", GOLDEN, ids=[c.name for c in GOLDEN])
def test_constraint_layer_identity_on_golden_cells(cell):
    """Unconstrained cells: ``constraints="none"`` is bit-identical to the
    default mapper (winner, counters, frontier) and accounts no repairs.
    Constrained cells: the repaired universe is legal, repair is idempotent
    on it and ``evaluated + pruned + repaired == universe_pairs``."""
    plain = _golden_mapper(cell)
    if plain.constraints is None:
        off = _golden_mapper(cell, constraints="none")
        for workload in _unique_shapes(cell):
            if cell.config.frontier:
                p_res, p_front = plain.search_frontier(workload)
                o_res, o_front = off.search_frontier(workload)
                assert p_front.to_dict() == o_front.to_dict()
            else:
                p_res = plain.search(workload)
                o_res = off.search(workload)
            assert p_res.best_report == o_res.best_report
            assert p_res.best_mapping.name == o_res.best_mapping.name
            assert p_res.best_layout.name == o_res.best_layout.name
            assert ((p_res.evaluated, p_res.pruned)
                    == (o_res.evaluated, o_res.pruned))
            for result in (p_res, o_res):
                assert result.repaired == 0 and result.repair is None
        return
    cset = plain.constraints
    for workload in _unique_shapes(cell):
        result = plain.search(workload)
        for mapping in plain.candidate_mappings(workload):
            assert cset.validate(mapping, workload, plain.arch), mapping.name
            fixed, _ = cset.repair(mapping, workload, plain.arch)
            assert fixed is mapping, mapping.name
        assert (result.evaluated + result.pruned + result.repaired
                == result.repair["universe_pairs"])
