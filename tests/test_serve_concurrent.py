"""Load/stress contract of the concurrent service front.

Three layers, one claim: concurrency changes *scheduling*, never
*payloads*.

* **HTTP under concurrent load** — a threaded server hammered by 8+
  concurrent clients returns responses bit-identical to the pinned golden
  records (``tests/golden/``), with zero request errors.
* **In-flight dedup under load** — 8 clients firing the *same* cold
  search while it runs share one execution (the sha256 in-flight table),
  and every client reads the same payload.
* **Stateful backends under load** — concurrent simulator evals share the
  session's one simulator instance and must answer exactly what a serial
  session answers.
* **Session.submit thread safety, no HTTP** — concurrent ``submit()`` of
  the golden cells from many threads: results equal the golden
  records, and the session counters stay consistent
  (``requests == executed + coalesced``).

Plus the fleet acceptance path: a second serve replica pointed at the
same ``--store`` file serves a warm repeat of the golden ResNet-50
co-search from the shared store (``served_from == "store"``) without
re-running the search.

The test sessions pass ``offload=True`` explicitly so the request-level
process-offload path is exercised on any host (the serve CLI enables it
only on multi-core machines, where it is a speedup rather than overhead);
offloaded searches must be bit-identical to inline ones.
"""

import json
import os
import re
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api import EvalRequest, SearchRequest, Session
from repro.serve import create_server

GOLDEN_DIR = Path(__file__).parent / "golden"
CLIENTS = 8


def _golden_cells():
    """(name, request-body, golden-payload) for every pinned cell."""
    cells = []
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        golden = json.loads(path.read_text())
        body = {
            "workloads": golden["workload_set"],
            "arch": golden["arch"],
            "model": golden["scenario"],
            "metric": golden["config"]["metric"],
            "max_mappings": golden["config"]["max_mappings"],
            "seed": golden["config"]["seed"],
            "backend": golden["backend"],
            "frontier": golden["config"].get("frontier", False),
            "fused": golden["config"].get("fused", False),
            # The golden records embed per-call engine counters; request
            # the same isolated-cache semantics so `search` compares too.
            "fresh_cache": True,
        }
        cells.append((path.stem, body, golden))
    return cells


CELLS = _golden_cells()
assert len(CELLS) == 10, "expected the ten pinned golden cells"


@pytest.fixture(scope="module")
def service():
    """A 4-thread server (offload on) + the session behind it."""
    session = Session(name="test-serve-concurrent", threads=4, offload=True)
    server = create_server("127.0.0.1", 0, session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", session
    server.shutdown()
    server.server_close()
    session.close()
    thread.join(timeout=10)


def _post(base: str, body: dict) -> dict:
    request = urllib.request.Request(
        base + "/v1/search", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=300) as response:
        assert response.status == 200
        return json.loads(response.read())


def _assert_matches_golden(name: str, served: dict, golden: dict) -> None:
    for field in ("totals", "layers", "search"):
        assert served[field] == golden[field], (
            f"{name}: {field} drifted from the golden record under load")
    if golden.get("crossval") is not None:
        assert served["crossval"] == golden["crossval"]
    for payload in ("frontiers", "fused"):
        if golden.get(payload) is not None:
            assert served[payload] == golden[payload], (
                f"{name}: {payload} drifted from the golden record "
                f"under load")


# ------------------------------------------------------------ HTTP load
def test_concurrent_mixed_golden_cells_are_bit_identical(service):
    """8 clients, each running all ten golden cells in a different order:
    every response must equal its pinned record, no request may error."""
    base, _ = service
    barrier = threading.Barrier(CLIENTS)

    def client(offset: int):
        served = []
        barrier.wait(timeout=60)
        for i in range(len(CELLS)):
            name, body, golden = CELLS[(i + offset) % len(CELLS)]
            served.append((name, _post(base, body), golden))
        return served

    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        all_served = [f.result() for f in
                      [pool.submit(client, i) for i in range(CLIENTS)]]
    assert len(all_served) == CLIENTS
    for responses in all_served:
        for name, served, golden in responses:
            _assert_matches_golden(name, served, golden)


def test_identical_concurrent_searches_coalesce_to_few_executions(service):
    """8 clients firing the same cold search: the in-flight table must
    collapse them to ~one execution, all reading identical payloads."""
    base, session = service
    # A distinct cold cell (unique model label) wide enough (~60ms) that
    # every client's claim lands while the first execution is in flight.
    body = {"workloads": "resnet50", "arch": "FEATHER",
            "model": "dedup-under-load", "metric": "edp",
            "max_mappings": 24, "fresh_cache": True}
    before_executed = session.stats.executed
    before_coalesced = session.stats.coalesced
    barrier = threading.Barrier(CLIENTS)

    def client(_: int) -> dict:
        barrier.wait(timeout=60)
        return _post(base, body)

    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        responses = [f.result() for f in
                     [pool.submit(client, i) for i in range(CLIENTS)]]

    first = responses[0]
    for other in responses[1:]:
        stripped = ({k: v for k, v in r.items() if k != "elapsed_s"}
                    for r in (first, other))
        assert next(stripped) == next(stripped), \
            "coalesced clients read different payloads"
    executed = session.stats.executed - before_executed
    coalesced = session.stats.coalesced - before_coalesced
    assert executed + coalesced == CLIENTS
    # All 8 claims normally land inside the first execution's window; a
    # slow scheduler may let a straggler or two re-execute, never most.
    assert executed <= 2, f"{executed} executions for one identical burst"
    assert coalesced >= CLIENTS - 2


#: 15 distinct simulator cells on FEATHER-4x4, seeded apart from every
#: golden cell so the session's simulator instance starts with a cold memo.
SIMULATOR_EVALS = [
    {"workload": f"{wset}#{index}", "arch": "FEATHER-4x4", "layout": layout,
     "backend": "simulator", "seed": 3}
    for wset, layouts in (("micro_convs", ("HWC_C4", "HWC_W4", "CHW_W4")),
                          ("micro_gemms", ("MK_K4", "MK_M4")))
    for index in range(3) for layout in layouts]


def test_concurrent_simulator_evals_match_serial(service):
    """Concurrent simulator evals drive one shared accelerator instance:
    each must answer 200 with the report a fresh serial session gives."""
    base, _ = service
    barrier = threading.Barrier(len(SIMULATOR_EVALS))

    def client(body: dict):
        request = urllib.request.Request(
            base + "/v1/eval", data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST")
        barrier.wait(timeout=60)
        try:
            with urllib.request.urlopen(request, timeout=300) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the handler threads finely
    try:
        with ThreadPoolExecutor(max_workers=len(SIMULATOR_EVALS)) as pool:
            served = list(pool.map(client, SIMULATOR_EVALS))
    finally:
        sys.setswitchinterval(interval)
    failed = [(body["workload"], body["layout"], payload)
              for body, (status, payload) in zip(SIMULATOR_EVALS, served)
              if status != 200]
    assert not failed, f"{len(failed)} concurrent evals failed: {failed[:2]}"
    with Session(name="serial-evals") as serial:
        for body, (_, payload) in zip(SIMULATOR_EVALS, served):
            assert payload["report"] == serial.run(
                EvalRequest(**body)).report, body


def test_no_errors_and_consistent_counters_under_load(service):
    base, session = service
    health = json.loads(urllib.request.urlopen(
        base + "/v1/healthz", timeout=30).read())
    assert health["status"] == "ok"
    assert health["threads"] == 4
    assert health["requests"] == (health["executed"] + health["coalesced"]
                                  + health["store_hits"])
    assert health["inflight"] == 0


# ----------------------------------------------- Session.submit, no HTTP
def test_submit_stress_six_golden_cells_thread_safe():
    """Concurrent submit() across threads, straight into the session: the
    responses equal the golden records and the counters add up."""
    rounds = 3
    with Session(name="stress", threads=8, offload=True) as session:
        futures = []
        for r in range(rounds):
            for name, body, golden in CELLS:
                futures.append((name, golden,
                                session.submit(SearchRequest(**body))))
        for name, golden, future in futures:
            response = future.result(timeout=300)
            served = json.loads(response.to_json())
            _assert_matches_golden(name, served, golden)
        stats = session.stats
        assert stats.requests == rounds * len(CELLS)
        assert stats.requests == stats.executed + stats.coalesced
        # fresh_cache repeats that did not overlap re-execute; whatever
        # overlapped coalesced.  Either way every response matched golden.
        assert stats.executed >= len(CELLS)


# --------------------------------------------------- shared-store replica
def _spawn_replica(tmp_path: Path, store: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--threads", "4", "--store", str(store)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, cwd=tmp_path)
    line = server.stdout.readline()
    match = re.search(r"http://([^:]+):(\d+)", line)
    assert match, f"server did not announce a port (got {line!r})"
    return server, f"http://{match.group(1)}:{match.group(2)}"


def _children(pid: int):
    """PIDs of a live process's children, over all of its threads (a pool
    forked from a handler thread is listed under that thread's task); None
    where ``/proc`` is absent."""
    tasks = Path(f"/proc/{pid}/task")
    if not tasks.exists():
        return None
    return [int(child) for task in tasks.iterdir()
            for child in (task / "children").read_text().split()]


def _stop_replica(server: subprocess.Popen) -> None:
    """SIGTERM a replica and check it takes its offload-pool workers down
    with it (the check is skipped where ``/proc`` is absent)."""
    children = _children(server.pid)
    server.terminate()
    server.wait(timeout=10)
    orphans = [child for child in children or ()
               if Path(f"/proc/{child}").exists()]
    assert not orphans, f"pool workers outlived the replica: {orphans}"


def test_second_replica_serves_golden_resnet50_from_shared_store(tmp_path):
    """The ISSUE acceptance path: replica B, pointed at replica A's
    ``--store``, serves the golden ResNet-50 co-search from disk —
    ``served_from == "store"``, store hit in the health stats, payload
    identical to A's (and to the golden record) — without re-searching."""
    golden = json.loads(
        (GOLDEN_DIR / "golden-resnet50-head.json").read_text())
    body = {"workloads": golden["workload_set"], "arch": golden["arch"],
            "model": golden["scenario"],
            "metric": golden["config"]["metric"],
            "max_mappings": golden["config"]["max_mappings"],
            "seed": golden["config"]["seed"]}
    store = tmp_path / "fleet.sqlite"

    replica_a, base_a = _spawn_replica(tmp_path, store)
    try:
        first = _post(base_a, body)
        assert first["served_from"] is None
        # A cold shared-cache run reports the same engine counters as the
        # pinned fresh_cache record — compare everything.
        _assert_matches_golden("replica-a", first, golden)
    finally:
        _stop_replica(replica_a)

    replica_b, base_b = _spawn_replica(tmp_path, store)
    try:
        second = _post(base_b, body)
        assert second["served_from"] == "store"
        for field in ("totals", "layers", "search", "key"):
            assert second[field] == first[field]
        health = json.loads(urllib.request.urlopen(
            base_b + "/v1/healthz", timeout=30).read())
        assert health["store_hits"] == 1
        assert health["executed"] == 0
        assert health["store"]["hits"] == 1
        assert health["store"]["path"].endswith("fleet.sqlite")
    finally:
        _stop_replica(replica_b)
