#!/usr/bin/env python3
"""Layoutloop (dataflow, layout) co-search over ResNet-50 layers.

Reproduces the core of the paper's evaluation flow (§V/§VI-C) on a few
representative layers: for each layer, search the best (dataflow, layout) pair
by energy-delay product for FEATHER and for three baselines, then print the
per-layer and aggregate comparison.

Per-layer searches use `repro.layoutloop.Mapper`; the whole-model
comparison runs one `SearchRequest` per architecture on a `repro.api.Session`,
whose engine memoizes cost-model evaluations, prunes with admissible bounds,
and can fan the unique layer shapes out across worker processes
(`--workers N`, results are bit-identical to serial).

Run with:  python examples/resnet50_cosearch.py  [--full] [--workers N]
"""

import argparse

from repro.api import SearchRequest, Session
from repro.api.codec import arch_payload
from repro.baselines import eyeriss_like, nvdla_like, sigma_like
from repro.layoutloop import Mapper, SearchConfig, feather_arch
from repro.workloads import resnet50_layer


def per_layer_demo(layer_indices=(1, 14, 41)) -> None:
    print("Per-layer co-search (metric: EDP)")
    print(f"{'layer':22s} {'arch':14s} {'dataflow':28s} {'layout':12s} "
          f"{'util':>6s} {'slowdown':>9s} {'pJ/MAC':>7s}")
    mappers = [Mapper(arch, SearchConfig(max_mappings=80))
               for arch in (nvdla_like(), eyeriss_like(), feather_arch())]
    for idx in layer_indices:
        layer = resnet50_layer(idx)
        for mapper in mappers:
            result = mapper.search(layer)
            arch = mapper.arch
            report = result.best_report
            print(f"{layer.name:22s} {arch.name:14s} "
                  f"{result.best_mapping.name[:28]:28s} {result.best_layout.name:12s} "
                  f"{report.utilization:6.2f} {report.slowdown:9.2f} "
                  f"{report.energy_per_mac_pj:7.2f}")
        print()


def full_model_comparison(max_layers=None, workers=None) -> None:
    workloads = f"resnet50[:{max_layers}]" if max_layers else "resnet50"
    arches = [nvdla_like(), eyeriss_like(), sigma_like(layout="HWC_C32"),
              feather_arch()]
    with Session(workers=workers) as session:
        costs = {arch.name: session.run(SearchRequest(
                     workloads=workloads, arch=arch_payload(arch),
                     model="resnet50", max_mappings=60)).cost
                 for arch in arches}
    feather = costs["FEATHER"]
    print(f"Whole-model comparison over "
          f"{feather.search_stats.layers_total} ResNet-50 layers "
          f"(deduplicated by shape)")
    print(f"{'arch':22s} {'cycles':>14s} {'norm lat':>9s} {'pJ/MAC':>8s} "
          f"{'norm energy':>12s} {'avg util':>9s} {'stall %':>8s}")
    for name, cost in costs.items():
        print(f"{name:22s} {cost.total_cycles:14.0f} "
              f"{cost.total_cycles / feather.total_cycles:9.2f} "
              f"{cost.energy_per_mac_pj:8.2f} "
              f"{cost.energy_per_mac_pj / feather.energy_per_mac_pj:12.2f} "
              f"{cost.avg_utilization:9.2f} {cost.stall_fraction * 100:8.1f}")
    print(f"\nLayouts FEATHER switches between: {feather.layouts_used()}")
    print(f"Engine: {feather.search_stats}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the whole 53-layer model (slower)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the co-search fan-out "
                             "(default: REPRO_SEARCH_WORKERS or serial)")
    args = parser.parse_args()

    per_layer_demo()
    full_model_comparison(max_layers=None if args.full else 16,
                          workers=args.workers)


if __name__ == "__main__":
    main()
