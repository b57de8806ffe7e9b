#!/usr/bin/env python3
"""The repository benchmark: FEATHER co-search and serving, end to end.

Usage (from the repository root)::

    python3 bench/run.py [--workload W] [--seed S] [--seconds N]
                         [--trace 0|1] [--smoke] [--out DIR]
    python3 bench/run.py compare PARENT_DIR CHANGE_DIR

Without ``--workload`` all four workloads run, one after another, each in
fresh processes.  Before any timing, the 10 golden scenario cells are run
and diffed against ``tests/golden/``.  Every end-to-end metric is printed
by name with its unit, a results JSON per workload is written to ``--out``
(default ``bench/results/``), and the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` reruns
each workload untraced and traced and reports the per-layer metrics
instead.  ``--smoke`` runs everything at reduced counts with the same
checks.  The exit status is 0 only when every check passed.

``compare`` reads two directories of results JSON (one run per seed, the
same seeds on both sides) and prints each side's median and quartiles per
(workload, metric) with a verdict (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import hostref  # noqa: E402
import procs  # noqa: E402
import servemix  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Set-up samples per run; the median is reported.
SETUPS = 3
#: Rate-search step size and bisection count of serve-mix.
STEP_REQUESTS = 120
BISECTIONS = 4
#: Reduced counts of ``--smoke``.
SMOKE_SECONDS = 1.0
SMOKE_STEP_REQUESTS = 20
SMOKE_BISECTIONS = 1
#: A worker that has not finished by then is killed (a failed run).
WORKER_TIMEOUT_S = 150.0
#: Measured, printed and stored like the end-to-end metrics, but not in
#: BENCHMARK.json: its spread over ten runs is too wide to gate (README).
UNGATED = [{"name": "latency_tail_ms", "unit": "ms"}]


class BenchmarkError(RuntimeError):
    """A run that cannot produce metrics."""


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_SEARCH_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def latency_timing(latencies_ms: List[float]) -> Dict:
    """Median and tail of a latency sample, with ``n`` and the tail's
    percentile."""
    tail = summary.tail(latencies_ms)
    return {"n": tail["n"], "p50": statistics.median(latencies_ms),
            "tail": tail["value"], "tail_percentile": tail["percentile"]}


# -------------------------------------------------------------- fingerprint
def fingerprint(seed: int) -> Dict:
    load = os.getloadavg()[0]
    import numpy

    import repro

    nproc = len(os.sched_getaffinity(0))
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    if load > nproc:
        print(f"warning: load average {load:.2f} exceeds nproc {nproc}; "
              "timings will be noisy", file=sys.stderr)
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "repro": repro.__version__, "git_sha": sha,
            "loadavg_start": load, "seed": seed}


# ---------------------------------------------------------- correctness gate
def golden_gate() -> Tuple[int, List[str]]:
    """Run the golden cells and diff them against ``tests/golden/``;
    returns (cells run, failures)."""
    from repro.scenarios import diff_payloads, golden_matrix, run_cell, slugify

    cells = list(golden_matrix())
    failures = []
    for scenario in cells:
        path = ROOT / "tests" / "golden" / f"{slugify(scenario.name)}.json"
        payload = run_cell(scenario, workers=1).record.deterministic_payload()
        if not path.exists():
            failures.append(f"{scenario.name}: {path.name} missing")
            continue
        diffs = diff_payloads(json.loads(path.read_text()), payload)
        if diffs:
            failures.append(f"{scenario.name}: {diffs[0]}")
    return len(cells), failures


# ------------------------------------------------------- in-process workloads
def _worker(argv: List[str]) -> tuple:
    """Run ``worker.py``; returns (set-up s, first digest, summary or None,
    peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read().strip()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        rss = procs.reap(proc, 30.0)
        if rss is None:
            proc.kill()
            rss = procs.reap(proc, 30.0)
    if proc.returncode != 0 or not ready.startswith("READY "):
        raise BenchmarkError(f"worker {' '.join(argv)} exited with "
                             f"{proc.returncode}")
    result = json.loads(rest.splitlines()[-1]) if rest else None
    return setup, ready.split()[1], result, rss


def run_search(name: str, seed: int, seconds: float, smoke: bool,
               setups: int, spans: Optional[Path] = None) -> Dict:
    iterations = workloads.iterations_for(name, seconds)
    argv = ["--workload", name, "--seed", str(seed),
            "--iterations", str(iterations)]
    if smoke:
        argv.append("--no-warmup")
    setup_times, digests = [], []
    for _ in range(setups - 1):
        setup, digest, _, _ = _worker(argv + ["--probe"])
        setup_times.append(setup)
        digests.append(digest)
    setup, digest, raw, rss = _worker(
        argv + (["--spans", str(spans)] if spans else []))
    if raw is None:
        raise BenchmarkError(f"worker {name} printed no summary")
    setup_times.append(setup)
    digests.append(digest)

    failures = list(raw["failures"])
    if len(set(digests)) != 1:
        failures.append(f"first response differs across {setups} "
                        f"processes: {sorted(set(digests))}")
    if not raw["repeat_ok"]:
        failures.append("a replayed request gave a different digest")
    samples = raw["samples"]
    pairs, requests = defaultdict(int), defaultdict(int)
    for sample in samples:
        pairs[sample["iteration"]] += sample["pairs"]
        requests[sample["iteration"]] += 1
    walls = dict(enumerate(raw["iteration_walls_s"], 1))
    # Each iteration's host factor comes from the reference samples taken
    # just before and just after it.
    refs = raw["reference_s"]
    factors = {i: hostref.factor(refs[i - 1] + refs[i]) for i in walls}
    host = hostref.factor([t for batch in refs for t in batch])

    def figures(scale: Dict[int, float], host_scale: float) -> tuple:
        """Metrics with times divided (rates multiplied) by the host
        factors; factors of 1 give the figures as measured."""
        latency = latency_timing([s["latency_s"] * 1e3 / scale[s["iteration"]]
                                  for s in samples])
        return {
            "setup_s": statistics.median(setup_times) / host_scale,
            "pairs_per_s": statistics.median(
                pairs[i] * scale[i] / wall for i, wall in walls.items()),
            "latency_p50_ms": latency["p50"],
            "latency_tail_ms": latency["tail"],
            "max_rps": statistics.median(
                requests[i] * scale[i] / wall for i, wall in walls.items()),
            "peak_rss_mb": rss,
        }, latency

    metrics, latency = figures(factors, host)
    raw_metrics, raw_latency = figures(dict.fromkeys(walls, 1.0), 1.0)
    result = {
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        "host_factor": {"run": host, "iterations": list(factors.values())},
        "timings": {
            "latency_ms": latency,
            "raw_latency_ms": raw_latency,
            "setup_s": {"n": len(setup_times), "values": setup_times},
            "iteration_s": {"n": len(walls),
                            "values": raw["iteration_walls_s"]},
            "iteration_pairs": [pairs[i] for i in walls],
        },
        "normalized_wall_s": sum(w / factors[i] for i, w in walls.items()),
        "iterations": iterations,
        "attempted": raw["attempted"] + setups - 1,
        "failures": failures,
        "digest": workloads.combined_digest(raw["first_digests"]),
        "raw": raw,
    }
    if raw["fig13_mape"]:
        result["fig13_mape_pct"] = {
            kind: statistics.median(m[kind] for m in raw["fig13_mape"])
            for kind in ("latency", "energy")}
    return result


def trace_search(name: str, seed: int, seconds: float, smoke: bool,
                 out_dir: Path) -> Dict:
    untraced = run_search(name, seed, seconds, smoke, setups=1)
    spans_path = out_dir / "spans" / f"{name}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    traced = run_search(name, seed, seconds, smoke, setups=1,
                        spans=spans_path)
    spans, missing = tracer.load(spans_path)
    wall = traced["raw"]["wall_s"]
    traced["trace"] = tracer.summarize(spans, int(wall * 1e9))
    traced["trace"]["missing"] = missing
    # The two passes run minutes apart: compare host-normalized walls.
    traced["trace"]["overhead"] = (traced["normalized_wall_s"]
                                   / untraced["normalized_wall_s"] - 1.0)
    stats = traced["raw"]["session"]
    traced["counters"] = {
        "requests": stats["requests"], "executed": stats["executed"],
        "coalesced": stats["coalesced"], "store_hits": stats["store_hits"],
        "store_lookups": 0, "store_row_hits": 0, "store_errors": 0}
    traced["untraced_metrics"] = untraced["metrics"]
    traced["attempted"] += untraced["attempted"]
    traced["failures"] += untraced["failures"]
    return traced


# ---------------------------------------------------------------- serve-mix
def run_serve(seed: int, seconds: float, smoke: bool, out_dir: Path,
              setups: int, spans: Optional[Path] = None,
              rate_search: bool = True) -> Dict:
    raw = servemix.run(
        seed, seconds=seconds, out_dir=out_dir, env=child_env(), cwd=ROOT,
        setups=setups, spans=spans, rate_search=rate_search,
        step_requests=SMOKE_STEP_REQUESTS if smoke else STEP_REQUESTS,
        bisections=SMOKE_BISECTIONS if smoke else BISECTIONS)
    # Reported as measured, without a host factor: these millisecond
    # latencies follow scheduling and sockets more than CPU speed, and
    # scaling them by the reference loop widened their spread.
    fixed = raw["fixed"]
    latency = latency_timing([r["sample"].latency_ms for r in fixed])
    # Search throughput of the cold searches: the median over them of pairs
    # per second of their own service time (sent to response), so neither
    # queueing behind other requests nor a few disturbed ones move it.
    cold_rates = [r["pairs"] / (r["sample"].done - r["sample"].sent)
                  for r in fixed if r["cold"] and r["ok"]]
    before, after = raw["healthz"]
    store_before = before.get("store") or {}
    store_after = after.get("store") or {}

    def delta(payload_after, payload_before, key):
        return payload_after.get(key, 0) - payload_before.get(key, 0)

    return {
        "metrics": {
            "setup_s": statistics.median(raw["setup_times"]),
            "pairs_per_s": (statistics.median(cold_rates) if cold_rates
                            else 0.0),
            "latency_p50_ms": latency["p50"],
            "latency_tail_ms": latency["tail"],
            "max_rps": raw["max_rps"],
            "peak_rss_mb": raw["peak_rss_mb"],
        },
        "timings": {
            "latency_ms": latency,
            "lateness_ms_p50": statistics.median(
                (r["sample"].sent - r["sample"].due) * 1e3 for r in fixed),
            "setup_s": {"n": len(raw["setup_times"]),
                        "values": raw["setup_times"]},
            "cold_searches": len(cold_rates),
        },
        "rate_steps": raw["steps"],
        "attempted": raw["attempted"],
        "failures": raw["failures"],
        "digest": raw["digest"],
        "counters": {
            "requests": delta(after, before, "requests"),
            "executed": delta(after, before, "executed"),
            "coalesced": delta(after, before, "coalesced"),
            "store_hits": delta(after, before, "store_hits"),
            "store_lookups": (delta(store_after, store_before, "hits")
                              + delta(store_after, store_before, "misses")),
            "store_row_hits": delta(store_after, store_before, "hits"),
            "store_errors": delta(store_after, store_before, "errors"),
        },
        "raw": raw,
    }


def trace_serve(seed: int, seconds: float, smoke: bool,
                out_dir: Path) -> Dict:
    # Both passes skip the rate search: the per-layer figures come from
    # the fixed-rate phase.
    untraced = run_serve(seed, seconds, smoke, out_dir, setups=1,
                         rate_search=False)
    spans_path = out_dir / "spans" / f"serve-mix-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    traced = run_serve(seed, seconds, smoke, out_dir, setups=1,
                       spans=spans_path, rate_search=False)
    server_spans, missing = tracer.load(spans_path)
    fixed = traced["raw"]["fixed"]
    rids = {r["rid"] for r in fixed}
    spans = tracer.link_remote(servemix.span_records(fixed),
                               [s for s in server_spans if s.rid in rids])
    wall_ns = sum(int((r["sample"].done - r["sample"].due) * 1e9)
                  for r in fixed)
    traced["trace"] = tracer.summarize(spans, wall_ns)
    traced["trace"]["missing"] = missing

    def mean_latency(result):
        return statistics.fmean(r["sample"].latency_ms
                                for r in result["raw"]["fixed"])

    traced["trace"]["overhead"] = (mean_latency(traced)
                                   / mean_latency(untraced) - 1.0)
    traced["untraced_metrics"] = untraced["metrics"]
    traced["attempted"] += untraced["attempted"]
    traced["failures"] += untraced["failures"]
    return traced


# ------------------------------------------------------------------ metrics
def layer_metrics(spec: Dict, result: Dict) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from a traced run."""
    trace = result["trace"]
    counts, layers = trace["counts"], trace["layers"]
    counters = result["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    derived = {
        "mapper.universe_pairs": counts.get("mapper.universe_pairs", 0),
        "mapper.evaluated": counts.get("mapper.evaluated", 0),
        "mapper.pruned": counts.get("mapper.pruned", 0),
        "mapper.repaired": counts.get("mapper.repaired", 0),
        "mapper.eval_ratio": ratio(counts.get("mapper.evaluated", 0),
                                   counts.get("mapper.universe_pairs", 0)),
        "engine.dedup_ratio": ratio(counts.get("engine.layers_unique", 0),
                                    counts.get("engine.layers_total", 0)),
        "cache.hit_ratio": ratio(counts.get("cache.hits", 0),
                                 counts.get("cache.lookups", 0)),
        "kernel.concordance_calls": calls("kernel.concordance"),
        "constraints.merged": counts.get("constraints.merged", 0),
        "backend.systolic.calls": calls("backend.systolic"),
        "backend.noc.calls": calls("backend.noc"),
        "backend.simulator.calls": calls("backend.simulator"),
        "feather.macs": counts.get("feather.macs", 0),
        "api.exec_ratio": ratio(counters["executed"], counters["requests"]),
        "api.coalesced": counters["coalesced"],
        "api.store_hits": counters["store_hits"],
        "store.hit_ratio": ratio(counters["store_row_hits"],
                                 counters["store_lookups"]),
        "store.errors": counters["store_errors"],
        "trace.coverage": trace["coverage"],
        "trace.overhead": trace["overhead"],
    }
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.endswith(".self_pct"):
            layer = layers.get(name[:-len(".self_pct")], {})
            out[name] = layer.get("share_pct", 0.0)
        else:
            out[name] = derived[name]
    return out


def _with_units(values: Dict[str, float], metrics: List[Dict]) -> Dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics}


def _print_rows(workload: str, metrics: Dict, result: Dict) -> None:
    timings = result.get("timings", {})
    latency = timings.get("latency_ms", {})
    notes = {
        "latency_p50_ms": f"n={latency.get('n')}",
        "latency_tail_ms": (f"p{latency.get('tail_percentile', 0):.1f} "
                            f"of n={latency.get('n')}, not gated"),
        "setup_s": f"median of n={timings.get('setup_s', {}).get('n')}",
    }
    for name, entry in metrics.items():
        print(f"{workload:<20} {name:<40} {entry['value']:>16.6g} "
              f"{entry['unit']:<8} {notes.get(name, '')}")


# --------------------------------------------------------------------- main
def run_workload(spec: Dict, name: str, args) -> Tuple[Dict, Dict]:
    """Run one workload; returns (results JSON, metrics to print)."""
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    setups = 1 if args.smoke else SETUPS
    serve = name == "serve-mix"
    if args.trace:
        result = (trace_serve(args.seed, seconds, args.smoke, args.out)
                  if serve else
                  trace_search(name, args.seed, seconds, args.smoke,
                               args.out))
        result["layer_metrics"] = _with_units(layer_metrics(spec, result),
                                              spec["per_layer"])
        shown = result["layer_metrics"]
    else:
        result = (run_serve(args.seed, seconds, args.smoke, args.out, setups)
                  if serve else
                  run_search(name, args.seed, seconds, args.smoke, setups))
        result["metrics"] = _with_units(result["metrics"],
                                        spec["end_to_end"] + UNGATED)
        shown = result["metrics"]
    result.pop("raw")
    return result, shown


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced counts, same checks")
    parser.add_argument("--out", type=Path, default=BENCH / "results")
    args = parser.parse_args(argv)
    os.environ.pop("REPRO_SEARCH_WORKERS", None)

    try:
        host = fingerprint(args.seed)
    except ImportError as exc:
        print(f"bench: cannot import the package from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    cells, gate_failures = golden_gate()
    print(f"golden gate: {cells - len(gate_failures)}/{cells} cells "
          "identical to tests/golden/")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    attempted, failures, metrics = cells, list(gate_failures), {}
    for name in names:
        try:
            result, shown = run_workload(spec, name, args)
        except BenchmarkError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        result.update(workload=name, seed=args.seed, seconds=args.seconds,
                      smoke=args.smoke, fingerprint=host,
                      correct=not result["failures"] and not gate_failures)
        suffix = ("-smoke" if args.smoke else "") + (
            "-trace" if args.trace else "")
        path = args.out / f"{name}-seed{args.seed}{suffix}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        host_factor = result.get("host_factor", {}).get("run")
        print(f"{name}: results digest {result['digest'][:16]}"
              + (f", host factor {host_factor:.3f}" if host_factor else "")
              + (f", fig13 MAPE latency "
                 f"{result['fig13_mape_pct']['latency']:.2f}% energy "
                 f"{result['fig13_mape_pct']['energy']:.2f}%"
                 if "fig13_mape_pct" in result else ""))
        _print_rows(name, shown, result)
        for failure in result["failures"][:10]:
            print(f"FAIL {name}: {failure}", file=sys.stderr)
        attempted += result["attempted"]
        failures += result["failures"]
        gated = spec["per_layer" if args.trace else "end_to_end"]
        metrics[name] = {m["name"]: shown[m["name"]] for m in gated}
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics[names[0]] if len(names) == 1 else metrics}))
    return 0 if not failures else 1


# ------------------------------------------------------------------ compare
def _load_side(directory: Path) -> Dict:
    """``{(workload, metric): {seed: value}}`` of a results directory
    (smoke runs excluded)."""
    values: Dict[tuple, Dict[int, float]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if "workload" not in result or result.get("smoke"):
            continue
        for group in ("metrics", "layer_metrics"):
            for name, entry in (result.get(group) or {}).items():
                values.setdefault((result["workload"], name), {})[
                    result["seed"]] = entry["value"]
    return values


def compare(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare results directories of two commits.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = _load_side(args.parent), _load_side(args.change)
    print(f"{'workload':<20} {'metric':<40} {'side':<7} {'n':>3} "
          f"{'median':>14} {'q1':>14} {'q3':>14}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        better, bound = rules.get(name, ("lower", None))
        seeds = sorted(set(parent[key]) & set(change[key]))
        pairs = [(parent[key][s], change[key][s]) for s in seeds]
        ruling = summary.verdict(list(parent[key].values()),
                                 list(change[key].values()), better, bound,
                                 pairs)
        for side, values in (("parent", parent[key]),
                             ("change", change[key])):
            q1, median, q3 = summary.quartiles(list(values.values()))
            print(f"{workload:<20} {name:<40} {side:<7} {len(values):>3} "
                  f"{median:>14.6g} {q1:>14.6g} {q3:>14.6g}  "
                  + (ruling if side == "change" else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
