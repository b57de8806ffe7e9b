"""``python -m repro.scenarios`` — list, run and diff scenario cells.

Subcommands:

* ``list [--filter PAT]`` — show the built-in matrix (name, workload set,
  architecture, objective, budget, tags).
* ``run [--filter PAT] [--backend NAME] [--runs-dir DIR] [--workers N]
  [--force]`` — execute the matching cells with
  content-addressed artifact caching; re-running a completed sweep reports
  every cell as a cache hit.  ``--backend`` overrides every cell's
  evaluation backend (``analytical``, ``simulator`` or ``crossval``); by
  default each cell runs on the backend its scenario declares.
* ``diff A [B]`` — compare the deterministic payloads of two record files;
  with a single argument, re-run the record's cell from its embedded
  seed/config and compare against the stored numbers (a reproducibility
  check).  Exit status 1 when the payloads differ.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.scenarios.builtin import builtin_matrix
from repro.scenarios.record import ScenarioRecord, diff_payloads
from repro.scenarios.spec import scenario_backend_names
from repro.scenarios.runner import (
    DEFAULT_RUNS_DIR,
    CellResult,
    rerun_record,
    run_matrix,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Declarative workload x architecture x search-config "
                    "sweeps over the co-search engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="show the built-in matrix")
    list_cmd.add_argument("--filter", default=None, metavar="PAT",
                          help="substring match on cell names and tags")

    run_cmd = sub.add_parser("run", help="execute matching cells")
    run_cmd.add_argument("--filter", default=None, metavar="PAT",
                         help="substring match on cell names and tags")
    run_cmd.add_argument("--backend", default=None,
                         choices=list(scenario_backend_names()),
                         help="override every cell's evaluation backend "
                              "(default: each cell's declared backend)")
    run_cmd.add_argument("--runs-dir", type=Path, default=DEFAULT_RUNS_DIR,
                         help=f"artifact directory (default: "
                              f"{DEFAULT_RUNS_DIR})")
    run_cmd.add_argument("--workers", type=int, default=None,
                         help="worker processes per cell (default: the "
                              "REPRO_SEARCH_WORKERS environment variable, "
                              "then serial; results are bit-identical for "
                              "any count)")
    run_cmd.add_argument("--force", action="store_true",
                         help="recompute cells even when a fresh artifact "
                              "exists")

    diff_cmd = sub.add_parser(
        "diff", help="compare two records (or re-run one and compare)")
    diff_cmd.add_argument("first", type=Path, help="record JSON file")
    diff_cmd.add_argument("second", type=Path, nargs="?", default=None,
                          help="second record; omitted = re-run the first "
                               "record's cell with its embedded seed")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    cells = builtin_matrix().filter(args.filter)
    if not len(cells):
        print(f"no scenarios match {args.filter!r}")
        return 1
    rows = [("name", "workload set", "arch", "backend", "metric", "budget",
             "tags")]
    for scenario in cells:
        rows.append((scenario.name, scenario.workload_set, scenario.arch,
                     scenario.backend, scenario.config.metric,
                     str(scenario.config.max_mappings),
                     ",".join(scenario.tags)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for index, row in enumerate(rows):
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            print("  ".join("-" * w for w in widths))
    print(f"{len(cells)} scenario(s)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    def progress(result: CellResult) -> None:
        record = result.record
        status = "cached" if result.cached else f"{record.elapsed_s:6.2f}s"
        line = (f"[{status:>7}] {record.scenario} ({record.backend}): "
                f"{record.totals['total_cycles']:.4g} cycles, "
                f"{record.totals['energy_per_mac_pj']:.3f} pJ/MAC, "
                f"util {record.totals['avg_utilization']:.2%}")
        if record.crossval is not None:
            line += (f", sim delta <= "
                     f"{record.crossval['max_abs_cycle_delta']:.1%}")
        print(line)

    matrix = builtin_matrix()
    if not len(matrix.filter(args.filter)):
        print(f"no scenarios match {args.filter!r}")
        return 1
    try:
        # With an explicit --backend override, cells that backend cannot
        # run (paper-scale cells vs the simulator's MAC bound, non-RIR
        # architectures) are skipped with their reason instead of
        # aborting the sweep.
        run = run_matrix(matrix, pattern=args.filter, workers=args.workers,
                         runs_dir=args.runs_dir, force=args.force,
                         progress=progress, backend=args.backend,
                         skip_incompatible=args.backend is not None)
    except ValueError as exc:
        # A declared-backend cell failing is a configuration error: fail
        # with the reason, not a traceback.
        print(f"error: {exc}")
        return 1
    for scenario, reason in run.skipped:
        print(f"[   skip] {scenario.name}: {reason}")
    line = (f"{len(run.results)} cell(s), {run.cached_count} from cache "
            f"-> {args.runs_dir} (summary.csv, summary.md)")
    if run.skipped:
        line += f"; {len(run.skipped)} skipped by --backend {args.backend}"
    print(line)
    return 1 if not run.results else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    first = ScenarioRecord.read(args.first)
    if args.second is not None:
        second = ScenarioRecord.read(args.second)
        second_label = str(args.second)
    else:
        print(f"re-running {first.scenario!r} with embedded seed "
              f"{first.seed}...")
        second = rerun_record(first)
        second_label = "re-run"
    diffs = diff_payloads(first.deterministic_payload(),
                          second.deterministic_payload())
    if not diffs:
        print(f"identical: {args.first} == {second_label} "
              f"({len(first.layers)} layer(s), "
              f"{first.totals['total_cycles']:.6g} cycles)")
        return 0
    print(f"{len(diffs)} difference(s) between {args.first} "
          f"and {second_label}:")
    for line in diffs:
        print(f"  {line}")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "diff": _cmd_diff}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
