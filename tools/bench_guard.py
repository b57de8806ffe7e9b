#!/usr/bin/env python
"""CI performance guard: the fast paths must beat their reference paths.

The default gate, **kernel**, times raw cost-model evaluations (every
unique ResNet-50 conv shape x sampled mappings x the conv layout library)
on SIGMA with off-chip reordering: the batched
``CostModel.evaluate_mapping_batch`` against the scalar
``CostModel.evaluate`` oracle, where the batched concordance analysis
carries the load.  It fails (exit 1) when the batched path is not
measurably faster, and also when the reports differ — a fast wrong path
still fails the guard.  The threshold is deliberately below the locally
measured speedup (~12x) so only a real regression trips on a noisy CI box.

The remaining gates are off by default.
**budget** (``--gates budget``) counts
full cost-model evaluations instead of wall-clock: the budgeted search
policies must reproduce the exhaustive winner on every unique ResNet-50
shape, with the warm-started evolutionary policy doing it in at least
``--min-budget-reduction`` (3x) fewer evaluations.
**constraints** (``--gates constraints``) is the identity gate on the
constraint layer: with no ConstraintSet bound, a mapper with the layer
forced off (``constraints="none"``) must be bit-identical to the default
mapper on every golden cell (winners, frontiers *and* counters, zero
repairs accounted), and on the constrained-backend golden cells every
candidate in the repaired universe must validate, repair must be
idempotent on it, and the coverage counters must close exactly:
``evaluated + pruned + repaired == universe_pairs``.
**service** is off by default because it reads a
measurement instead of taking one: ``--gates service`` checks that the
latest ``tools/loadtest.py`` run (``BENCH_service.json``) pushed the
threaded server past an *absolute* throughput floor with zero request
errors.  Absolute, not a threads-4-vs-threads-1 ratio: the ratio only
exceeds 1x when there are physical cores to offload to, and the guard
must stay honest on a 1-core runner.

Usage::

    PYTHONPATH=src python tools/bench_guard.py [--min-kernel-speedup X]
    PYTHONPATH=src python tools/bench_guard.py --gates service \
        --min-service-throughput 20 --service-bench BENCH_service.json
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path


def _load_best_of():
    """The shared best-of-N timer from ``benchmarks/_timing.py``.

    Loaded by file path: the benchmark suite is not an importable package,
    and the helper must stay single-sourced so the guard and the benchmarks
    can never de-noise differently.  ``_timing`` is deliberately
    pytest-free — the guard needs only stdlib + repro.
    """
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "_timing.py"
    spec = importlib.util.spec_from_file_location("_bench_timing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.best_of


best_of = _load_best_of()


def kernel_speedup(rounds: int) -> float:
    """Scalar vs batched evaluation speedup on the ResNet-50 shape set."""
    from repro.baselines.registry import sigma_like
    from repro.dataflow.space import MappingSpace
    from repro.layout.library import conv_layout_library
    from repro.layoutloop.cosearch import unique_workloads
    from repro.layoutloop.cost_model import CostModel
    from repro.workloads.resnet50 import resnet50_layers

    model = CostModel(sigma_like(reorder="offchip"))
    layouts = conv_layout_library()
    cases = []
    for shape, _ in unique_workloads(resnet50_layers(include_fc=False)):
        for mapping in MappingSpace(shape, 16, 16).sample(4, seed=0):
            cases.append((shape, mapping))

    scalar_s, scalar = best_of(
        lambda: [[model.evaluate(wl, m, l) for l in layouts]
                 for wl, m in cases], rounds)
    batched_s, batched = best_of(
        lambda: [model.evaluate_mapping_batch(wl, m, layouts)
                 for wl, m in cases], rounds)
    if batched != scalar:
        print("FAIL: batched cost-model reports differ from the scalar oracle")
        sys.exit(1)
    print(f"kernel   : scalar {scalar_s:.3f}s  batched {batched_s:.3f}s  "
          f"speedup {scalar_s / batched_s:.2f}x "
          f"({len(cases) * len(layouts)} evaluations, identical reports)")
    return scalar_s / batched_s


def budget_reduction() -> float:
    """Budgeted-policy evaluation reduction at exhaustive winner identity.

    Counts full cost-model evaluations — scored (mapping, layout) pairs —
    on the deduplicated ResNet-50 co-search on FEATHER, comparing:

    * **halving** (uncapped): must reproduce the exhaustive winner on every
      unique shape (the bound-order guarantee, checked here end to end);
      its reduction is reported but not gated — the bound can only prune
      what it can prove.
    * **evolutionary, warm-started** (budget=14): a repeat-session search
      seeded from the memoized per-shape winners; must also reproduce every
      exhaustive winner, and its reduction is the gated ratio.
    """
    from repro.layoutloop import Mapper, SearchConfig, feather_arch
    from repro.search.budget import evolutionary_search, halving_search
    from repro.search.signatures import workload_signature
    from repro.workloads.resnet50 import resnet50_layers

    unique = {}
    for workload in resnet50_layers(include_fc=False):
        unique.setdefault(workload_signature(workload), workload)
    shapes = list(unique.values())

    arch = feather_arch()
    config = SearchConfig(max_mappings=24, seed=0)
    exhaustive = Mapper(arch, config)
    winners = {}
    baseline = 0
    for workload in shapes:
        result = exhaustive.search(workload)
        baseline += result.evaluated
        winners[workload_signature(workload)] = result

    def identical(result, workload) -> bool:
        won = winners[workload_signature(workload)]
        return (result.best_report.total_cycles
                == won.best_report.total_cycles
                and result.best_report.total_energy_pj
                == won.best_report.total_energy_pj
                and result.best_mapping.name == won.best_mapping.name
                and result.best_layout.name == won.best_layout.name)

    cold = Mapper(arch, config)
    halving_evals = 0
    for workload in shapes:
        result = halving_search(cold, workload)
        halving_evals += result.evaluated
        if not identical(result, workload):
            print(f"FAIL: halving winner differs from exhaustive on "
                  f"{result.workload}")
            sys.exit(1)

    warm = Mapper(arch, config)
    warm._cache.update(exhaustive._cache)  # the repeat-session memo
    evo_evals = 0
    for workload in shapes:
        result = evolutionary_search(warm, workload, budget=14)
        evo_evals += result.evaluated
        if not identical(result, workload):
            print(f"FAIL: warm evolutionary winner differs from exhaustive "
                  f"on {result.workload}")
            sys.exit(1)

    reduction = baseline / evo_evals
    print(f"budget   : exhaustive {baseline}  halving {halving_evals} "
          f"({baseline / halving_evals:.2f}x)  warm evolutionary {evo_evals} "
          f"({reduction:.2f}x)  identical winners on {len(shapes)} shapes")
    return reduction


def constraints_identity() -> int:
    """Constraint-layer identity gate (``--gates constraints``).

    Two checks over the golden matrix, both exact:

    * **unconstrained bit-identity** — on every golden cell whose backend
      binds no :class:`~repro.constraints.ConstraintSet` (analytical,
      crossval, simulator), a mapper with the constraint layer forced off
      (``constraints="none"``) must be bit-identical to the default
      mapper: same winner report, mapping, layout and evaluated/pruned
      counters (frontier cells compare the full serialized frontier), with
      zero repairs accounted on either side.  With nothing bound the layer
      must be a no-op, not a cheap approximation of one.
    * **repaired-search legality + coverage** — on the constrained-backend
      golden cells (systolic, noc:*), every candidate in the repaired
      universe must ``validate()``, repair must be idempotent on it
      (already-legal mappings come back as the identical object), and the
      search counters must close over the raw universe exactly:
      ``evaluated + pruned + repaired == universe_pairs``.
    """
    import dataclasses

    from repro.backends import create_backend
    from repro.layoutloop.mapper import Mapper
    from repro.scenarios.builtin import golden_matrix
    from repro.scenarios.registry import resolve_arch, resolve_workload_set
    from repro.search.signatures import workload_signature

    def build(cell, constraints=None) -> Mapper:
        arch = resolve_arch(cell.arch)
        backend = ("analytical" if cell.backend in ("analytical", "crossval")
                   else create_backend(cell.backend, arch,
                                       seed=cell.config.seed))
        return Mapper(arch, dataclasses.replace(cell.config,
                                                constraints=constraints),
                      backend=backend)

    def unique(workloads):
        seen = {}
        for workload in workloads:
            seen.setdefault(workload_signature(workload), workload)
        return list(seen.values())

    identical = 0
    legal = 0
    for cell in golden_matrix():
        plain = build(cell)
        shapes = unique(resolve_workload_set(cell.workload_set))
        if plain.constraints is None:
            off = build(cell, constraints="none")
            for workload in shapes:
                if cell.config.frontier:
                    p_res, p_front = plain.search_frontier(workload)
                    o_res, o_front = off.search_frontier(workload)
                    if p_front.to_dict() != o_front.to_dict():
                        print(f"FAIL: constraints=\"none\" frontier differs "
                              f"from default on {cell.name} / "
                              f"{p_res.workload}")
                        sys.exit(1)
                else:
                    p_res = plain.search(workload)
                    o_res = off.search(workload)
                if (p_res.best_report != o_res.best_report
                        or p_res.best_mapping.name != o_res.best_mapping.name
                        or p_res.best_layout.name != o_res.best_layout.name
                        or (p_res.evaluated, p_res.pruned)
                        != (o_res.evaluated, o_res.pruned)):
                    print(f"FAIL: constraints=\"none\" search differs from "
                          f"default on {cell.name} / {p_res.workload}")
                    sys.exit(1)
                if (p_res.repaired or p_res.repair is not None
                        or o_res.repaired or o_res.repair is not None):
                    print(f"FAIL: repairs accounted with no constraints "
                          f"bound on {cell.name} / {p_res.workload}")
                    sys.exit(1)
                identical += 1
        else:
            cset = plain.constraints
            for workload in shapes:
                result = plain.search(workload)
                for mapping in plain.candidate_mappings(workload):
                    if not cset.validate(mapping, workload, plain.arch):
                        print(f"FAIL: illegal mapping {mapping.name!r} in "
                              f"the repaired universe of {cell.name} / "
                              f"{result.workload}")
                        sys.exit(1)
                    fixed, _ = cset.repair(mapping, workload, plain.arch)
                    if fixed is not mapping:
                        print(f"FAIL: repair is not idempotent on "
                              f"{mapping.name!r} ({cell.name} / "
                              f"{result.workload})")
                        sys.exit(1)
                universe = result.repair["universe_pairs"]
                if (result.evaluated + result.pruned + result.repaired
                        != universe):
                    print(f"FAIL: coverage {result.evaluated} evaluated + "
                          f"{result.pruned} pruned + {result.repaired} "
                          f"repaired != universe {universe} on {cell.name} "
                          f"/ {result.workload}")
                    sys.exit(1)
                legal += 1
    print(f"constrnt : constraints=\"none\" bit-identical on {identical} "
          f"unconstrained golden searches; repaired universes legal, "
          f"repair idempotent, coverage == universe on {legal} constrained "
          f"searches")
    return identical + legal


def service_throughput(bench_path: Path) -> float:
    """Threaded-server throughput from the latest loadtest run.

    Reads the last entry of ``BENCH_service.json`` (written by
    ``tools/loadtest.py``), picks the highest-``threads`` server
    configuration in it, and fails outright if any request errored —
    a fast server that drops requests is not a service.
    """
    import json

    if not bench_path.exists():
        print(f"FAIL: no service benchmark at {bench_path}; run "
              f"tools/loadtest.py first")
        sys.exit(1)
    runs = json.loads(bench_path.read_text()).get("runs", [])
    if not runs:
        print(f"FAIL: {bench_path} has no recorded runs")
        sys.exit(1)
    servers = runs[-1]["servers"]
    label, threaded = max(servers.items(),
                          key=lambda kv: kv[1].get("threads", 0))
    errors = sum(s["errors"] for s in servers.values())
    if errors:
        print(f"FAIL: the recorded loadtest run had {errors} request error(s)")
        sys.exit(1)
    print(f"service  : {label} {threaded['throughput_rps']:.2f} req/s  "
          f"p99 {threaded['latency_p99_ms']:.1f}ms  0 errors  "
          f"(cpu_count {runs[-1].get('cpu_count')})")
    return threaded["throughput_rps"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gates", default="kernel",
                        help="comma-separated gates to run "
                             "(kernel, budget, constraints, service)")
    parser.add_argument("--min-kernel-speedup", type=float, default=3.0,
                        help="minimum scalar/batched evaluation ratio")
    parser.add_argument("--min-budget-reduction", type=float, default=3.0,
                        help="minimum exhaustive/warm-evolutionary full-"
                             "evaluation ratio at identical winners")
    parser.add_argument("--min-service-throughput", type=float, default=10.0,
                        help="minimum threaded-server req/s in the latest "
                             "loadtest run (service gate)")
    parser.add_argument("--service-bench", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_service.json",
                        help="loadtest trajectory file for the service gate")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per path (best-of)")
    args = parser.parse_args(argv)
    gates = {g.strip() for g in args.gates.split(",") if g.strip()}
    unknown = gates - {"kernel", "budget", "constraints", "service"}
    if unknown:
        parser.error(f"unknown gates: {sorted(unknown)}")

    failed = False
    if "kernel" in gates:
        kernel = kernel_speedup(args.rounds)
        if kernel < args.min_kernel_speedup:
            print(f"FAIL: kernel speedup {kernel:.2f}x below the "
                  f"{args.min_kernel_speedup:.2f}x floor")
            failed = True
    if "budget" in gates:
        budget = budget_reduction()
        if budget < args.min_budget_reduction:
            print(f"FAIL: budgeted-search reduction {budget:.2f}x below the "
                  f"{args.min_budget_reduction:.2f}x floor")
            failed = True
    if "constraints" in gates:
        constraints_identity()  # exits on any identity violation
    if "service" in gates:
        service = service_throughput(args.service_bench)
        if service < args.min_service_throughput:
            print(f"FAIL: service throughput {service:.2f} req/s below the "
                  f"{args.min_service_throughput:.2f} req/s floor")
            failed = True
    if failed:
        return 1
    print("bench guard OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
