"""The benchmark's four workloads: seeded request plans and result checks.

Every input is generated here from the benchmark seed; the package only
ever sees the generated requests.  Three workloads run in-process in a
worker (``worker.py``); ``serve-mix`` drives ``python -m repro.serve``
over HTTP (``loadgen.py``).

* ``fig13`` — the paper's headline experiment: ResNet-50 and MobileNet-V3
  on the nine Table IV designs plus BERT on the four GEMM designs, EDP
  objective, ``max_mappings=50``; 22 requests per iteration, one seed per
  iteration.  Conflict-prone baselines send most of the work to the
  batched concordance kernel and cost model.
* ``exhaustive-feather`` — FEATHER uncapped: ResNet-50 (EDP and latency)
  and MobileNet-V3 (EDP).  Bulk bounds and the prune loop dominate;
  FEATHER has no bank conflicts, so the kernel does little.  The universe
  is the whole mapping space, so the work does not depend on the seed.
* ``constrained-sim`` — the scalar route with constraint repair
  (``systolic``, ``noc:tree``) and the functional NEST/BIRRD simulator on
  the micro cells; a fresh seed per iteration defeats the per-seed
  simulator memo.
* ``serve-mix`` — an open-loop traffic mix over HTTP (store-served evals,
  memo-served searches, cold offloaded searches, sweeps).

Iteration counts follow from ``--seconds`` through fixed nominal
iteration times measured on the reference host (2 cores), never from the
measured speed, so every commit does the same work for the same
``--seconds``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List

SEARCH_WORKLOADS = ("fig13", "exhaustive-feather", "constrained-sim")
WORKLOADS = SEARCH_WORKLOADS + ("serve-mix",)

#: Seconds one timed iteration took on the reference host; ``--seconds``
#: divided by this fixes the iteration count.
NOMINAL_ITERATION_S = {"fig13": 2.5, "exhaustive-feather": 1.25,
                       "constrained-sim": 1.6}

#: Run metadata excluded from response digests, plus the evaluation-cache
#: hit/miss counters, which depend on the serving path (fresh execution,
#: memo or store), not on the result.
_METADATA = ("elapsed_s", "key", "served_from", "workers", "vectorize",
             "repro_version")
_PATH_COUNTERS = ("cache_hits", "cache_misses")

TEMPLATES_PATH = Path(__file__).with_name("templates.json")


def iterations_for(workload: str, seconds: float) -> int:
    """Timed iterations of an in-process workload for ``--seconds``."""
    return max(1, round(seconds / NOMINAL_ITERATION_S[workload]))


def iteration_seed(seed: int, index: int) -> int:
    """Seed of iteration ``index`` (0 is the untimed warm-up)."""
    return 1000 * seed + index


# ------------------------------------------------------------ search plans
def _search(**fields):
    from repro.api import SearchRequest

    # Pinned for every request: serial execution and a private evaluation
    # cache, so each iteration repeats the same work and counters.
    return SearchRequest(workers=1, fresh_cache=True, **fields)


def search_iteration(workload: str, seed: int) -> List:
    """The requests of one iteration of an in-process workload."""
    if workload == "fig13":
        from repro.baselines.registry import fig13_arch_suite

        requests = [_search(workloads=model, arch=arch.name, model=model,
                            metric="edp", max_mappings=50, seed=seed)
                    for model in ("resnet50", "mobilenet_v3")
                    for arch in fig13_arch_suite()]
        requests += [_search(workloads="bert", arch=arch.name, model="bert",
                             metric="edp", max_mappings=50, seed=seed)
                     for arch in fig13_arch_suite(gemm=True)]
        return requests
    if workload == "exhaustive-feather":
        return [_search(workloads=model, arch="FEATHER", model=model,
                        metric=metric, max_mappings=10**9, seed=seed)
                for model, metric in (("resnet50", "edp"),
                                      ("resnet50", "latency"),
                                      ("mobilenet_v3", "edp"))]
    if workload == "constrained-sim":
        return [
            _search(workloads="resnet50", arch="FEATHER", model="resnet50",
                    backend="systolic", max_mappings=100, seed=seed),
            _search(workloads="resnet50", arch="FEATHER", model="resnet50",
                    backend="noc:tree", max_mappings=50, seed=seed),
            _search(workloads="micro_convs", arch="FEATHER-4x4",
                    model="micro-convs", backend="simulator",
                    max_mappings=4, seed=seed),
            _search(workloads="micro_gemms", arch="FEATHER-4x4",
                    model="micro-gemms", backend="simulator",
                    metric="latency", max_mappings=6, seed=seed),
        ]
    raise ValueError(f"unknown in-process workload {workload!r}")


# ----------------------------------------------------------- serve-mix plan
def load_templates() -> Dict:
    """The serve-mix request templates (``templates.json``)."""
    return json.loads(TEMPLATES_PATH.read_text())


def serve_templates(templates: Dict) -> List[tuple]:
    """Every repeatable template as ``(template id, kind, body)``."""
    out = []
    for kind, group in (("eval", "evals"), ("search", "searches"),
                        ("sweep", "sweeps")):
        for index, body in enumerate(templates[group]):
            if kind != "eval":
                body = dict(body, workers=1)
            out.append((f"{kind}{index}", kind, body))
    return out


#: Shares of the serve-mix: evals (store hits after the warm-up), repeat
#: searches (memo hits), cold searches (offloaded), sweeps.
SERVE_SHARES = (("eval", 0.45), ("search", 0.35), ("cold", 0.10),
                ("sweep", 0.10))


class ServeMix:
    """Seeded request stream of the serve-mix workload.

    Every batch has exactly the ``SERVE_SHARES`` composition (rounded), in
    a seeded order with seeded template picks, so the seed never changes
    how many slow requests a phase holds.  Cold ``resnet50[:4]`` searches
    carry never-repeated seeds.
    """

    def __init__(self, seed: int, templates: Dict):
        self.rng = random.Random(seed)
        self.templates = serve_templates(templates)
        self._by_kind = {kind: [t for t in self.templates if t[1] == kind]
                         for kind in ("eval", "search", "sweep")}
        self._cold = templates["cold"]
        self._cold_seed = 1_000_000 * (seed + 1)

    def cold(self) -> tuple:
        self._cold_seed += 1
        body = dict(self._cold, seed=self._cold_seed, workers=1)
        return (None, "search", body)

    def take(self, count: int) -> List[tuple]:
        """The next ``count`` requests as ``(template id or None, kind,
        body)``; ``None`` marks a cold search."""
        deck = []
        for kind, share in SERVE_SHARES[1:]:
            deck += [kind] * round(share * count)
        deck += [SERVE_SHARES[0][0]] * (count - len(deck))
        self.rng.shuffle(deck)
        return [self.cold() if kind == "cold"
                else self.rng.choice(self._by_kind[kind]) for kind in deck]


# ------------------------------------------------------------------ checks
def _strip(payload: Dict) -> Dict:
    content = {k: v for k, v in payload.items() if k not in _METADATA}
    if isinstance(content.get("search"), dict):
        content["search"] = {k: v for k, v in content["search"].items()
                             if k not in _PATH_COUNTERS}
    if isinstance(content.get("records"), list):
        content["records"] = [_strip(r) for r in content["records"]]
    return content


def digest(payload: Dict) -> str:
    """sha256 over a response's deterministic content: totals, per-layer
    winners and counters, without run metadata (see ``_METADATA``)."""
    text = json.dumps(_strip(payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def combined_digest(digests: List[str]) -> str:
    """One digest over an ordered list of response digests."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def pairs_resolved(payload: Dict) -> int:
    """Candidate (mapping, layout) pairs a search resolved:
    ``evaluations + pruned + repaired``."""
    stats = payload.get("search") or {}
    return (int(stats.get("evaluations", 0)) + int(stats.get("pruned", 0))
            + int(stats.get("repaired", 0)))


def fig13_mape(payloads: List[Dict]) -> Dict[str, float]:
    """Mean absolute percentage error of one Fig. 13 iteration against the
    paper's normalised latency and energy per MAC (FEATHER = 1)."""
    from repro.experiments.fig13 import PAPER_ENERGY, PAPER_LATENCY

    totals = {(p["model"], p["arch"]): p["totals"] for p in payloads}
    errors = {"latency": [], "energy": []}
    for kind, paper in (("latency", PAPER_LATENCY), ("energy", PAPER_ENERGY)):
        field = "total_cycles" if kind == "latency" else "energy_per_mac_pj"
        for model, rows in paper.items():
            reference = totals[(model, "FEATHER")][field]
            for arch, expected in rows.items():
                if arch == "FEATHER":
                    continue
                measured = totals[(model, arch)][field] / reference
                errors[kind].append(abs(measured - expected) / expected)
    return {kind: 100.0 * sum(v) / len(v) for kind, v in errors.items()}
