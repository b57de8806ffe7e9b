#!/usr/bin/env python
"""CI backend-parity guard: analytical vs simulator on a micro cell.

Cross-validates the two evaluation backends on the ``micro_conv3x3`` cell
(a dense 3x3 conv on FEATHER-4x4, large enough to reach the NEST's steady
state) and fails (exit 1) unless:

* the co-searched winner's **cycle delta** |simulated/analytical - 1| is
  within ``--max-cycle-delta`` (default 5%; measured ~0.7% — steady-state
  cells agree closely, the analytical model just omits warmup/drain);
* the **RIR claim** holds in simulation: measured StaB read slowdown and
  oAct write serialization are exactly 1.0 for the co-searched pair.

The warmup-dominated micro GEMM cells are printed for context but not
gated — their deltas are the *fidelity gap* cross-validation scenarios
exist to expose, not a regression signal.

The cross-architecture backends are gated on their exact pricing
invariants instead of a delta bound (they model *different* hardware, so
closeness to the analytical FEATHER model is not the claim):

* **systolic** — the co-searched winner borrows its energy from the
  analytical cost model bit-exactly and never reports negative stalls
  (the rigid array can only add fill/drain/serialization cycles on top
  of the ideal MAC throughput);
* **noc:linear/tree/fan** — on one tree-legal winner per micro conv, each
  topology's energy equals the analytical energy bit-exactly, its total
  cycles are >= the analytical cycles (exposed reduction latency is
  nonnegative), and the log-depth topologies (tree, fan) never expose
  more reduction latency than the linear chain.

Usage::

    PYTHONPATH=src python tools/backend_parity.py [--max-cycle-delta X]
"""

from __future__ import annotations

import argparse
import sys


def cross_architecture_parity(arch) -> bool:
    """Exact pricing invariants of the systolic and NoC backends.

    Returns ``True`` when every invariant holds; prints one line per
    (workload, backend) cell.  The gate is exact (energy bit-equality,
    cycle/stall inequalities), not a delta bound — see the module
    docstring.
    """
    from repro.backends import create_backend
    from repro.layoutloop import Mapper, SearchConfig
    from repro.workloads.micro import micro_conv_layers

    analytical = create_backend("analytical", arch)
    config = SearchConfig(metric="edp", max_mappings=8)
    ok = True

    print("\nbackend parity — systolic + reduction NoCs on FEATHER-4x4 "
          "(gate: exact energy, nonnegative exposed cycles)")
    print(f"{'cell':18s} {'backend':10s} {'cycles':>10s} {'analytic':>10s} "
          f"{'exposed':>8s}  gate")
    for workload in micro_conv_layers():
        sys_backend = create_backend("systolic", arch)
        sys_res = Mapper(arch, config, backend=sys_backend).search(workload)
        base, = analytical.evaluate(workload, sys_res.best_mapping,
                                    [sys_res.best_layout])
        rep = sys_res.best_report
        good = (rep.total_energy_pj == base.total_energy_pj
                and rep.stall_cycles >= 0
                and rep.total_cycles >= rep.macs / max(
                    1.0, rep.extra["parallel_m"] * rep.extra["parallel_k"]))
        ok &= good
        print(f"{workload.name:18s} {'systolic':10s} {rep.total_cycles:10.0f} "
              f"{base.total_cycles:10.0f} "
              f"{rep.extra['fill_drain_cycles']:8.0f}  "
              f"{'PASS' if good else 'FAIL'}")

        # One tree-legal winner (the strictest reduction universe) priced
        # on every topology: legal for tree implies legal for all three.
        tree_res = Mapper(arch, config,
                          backend=create_backend("noc:tree", arch)
                          ).search(workload)
        mapping, layout = tree_res.best_mapping, tree_res.best_layout
        base, = analytical.evaluate(workload, mapping, [layout])
        exposed = {}
        for topology in ("linear", "tree", "fan"):
            rep, = create_backend(f"noc:{topology}", arch).evaluate(
                workload, mapping, [layout])
            exposed[topology] = rep.extra["reduction_cycles_exposed"]
            good = (rep.total_energy_pj == base.total_energy_pj
                    and rep.total_cycles
                    == base.total_cycles + exposed[topology]
                    and exposed[topology] >= 0)
            ok &= good
            print(f"{workload.name:18s} {'noc:' + topology:10s} "
                  f"{rep.total_cycles:10.0f} {base.total_cycles:10.0f} "
                  f"{exposed[topology]:8.0f}  {'PASS' if good else 'FAIL'}")
        if exposed["tree"] > exposed["linear"] or \
                exposed["fan"] > exposed["linear"]:
            print(f"FAIL: a log-depth topology exposed more reduction "
                  f"latency than the linear chain on {workload.name}")
            ok = False
    if not ok:
        print("FAIL: a cross-architecture pricing invariant is violated")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-cycle-delta", type=float, default=0.05,
                        help="relative |sim/analytical - 1| bound on the "
                             "gated conv cell")
    args = parser.parse_args(argv)

    from repro.api import SearchRequest, Session
    from repro.layoutloop import feather_arch

    failed = False

    def cross_validate(workloads: str, **config) -> dict:
        with Session(name="parity") as session:
            return session.run(SearchRequest(
                workloads=workloads, arch="FEATHER-4x4", model=workloads,
                backend="crossval", **config)).crossval

    def show(validation, gated_workloads=()):
        nonlocal failed
        print(f"{'cell':18s} {'analytical':>11s} {'simulated':>10s} "
              f"{'delta':>8s} {'read':>6s} {'write':>6s}  gate")
        for cell in validation["cells"]:
            gated = cell["workload"] in gated_workloads
            ok = (abs(cell["cycle_delta"]) <= args.max_cycle_delta
                  and cell["simulated_read_slowdown"] == 1.0
                  and cell["simulated_write_serialization"] == 1.0)
            verdict = ("PASS" if ok else "FAIL") if gated else "info"
            if gated and not ok:
                failed = True
            print(f"{cell['workload']:18s} {cell['analytical_cycles']:11.1f} "
                  f"{cell['simulated_cycles']:10.1f} "
                  f"{cell['cycle_delta']:+7.1%} "
                  f"{cell['simulated_read_slowdown']:6.2f} "
                  f"{cell['simulated_write_serialization']:6.2f}  {verdict}")

    print("backend parity — micro convs on FEATHER-4x4 "
          f"(gate: |delta| <= {args.max_cycle_delta:.0%}, no stalls)")
    conv_val = cross_validate("micro_convs", metric="edp", max_mappings=4)
    show(conv_val, gated_workloads=("micro_conv3x3",))
    if not conv_val["rir_claim_holds"]:
        print("FAIL: a co-searched conv cell stalled in simulation "
              "(RIR claim violated)")
        failed = True

    print("\nbackend parity — micro gemms (context, warmup-dominated)")
    gemm_val = cross_validate("micro_gemms", metric="latency",
                              max_mappings=6)
    show(gemm_val)
    if not gemm_val["rir_claim_holds"]:
        print("FAIL: a co-searched GEMM cell stalled in simulation "
              "(RIR claim violated)")
        failed = True

    if not cross_architecture_parity(feather_arch(4, 4)):
        failed = True

    if failed:
        return 1
    print("\nbackend parity OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
