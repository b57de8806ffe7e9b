#!/usr/bin/env python3
"""CI service smoke: launch ``repro.serve``, POST a micro-cell search,
assert parity with the analytical golden record.

The golden cell ``golden-fig10-gemms`` (``tests/golden/``) pins the
four-GEMM latency co-search on FEATHER-4x4 float for float.  This gate
proves the *wire* path — HTTP request parsing, the shared
:class:`~repro.api.Session`, JSON response encoding — reproduces exactly
the numbers the in-process engine is pinned to: totals and per-layer
winners must match the golden payload, and a second identical POST must
be served from the warm session (same totals, zero evaluation-cache
misses).  A POST declaring ``Content-Length: -1`` must get a 400 within
the socket timeout instead of holding the handler on an unbounded read.

Those checks run against the default front, which on a multi-core host
offloads each cold search to a worker process and adopts its result.  A
second server with one handler thread runs the search in its own session
instead; the cell's FEATHER-4x4 searches are columnar scans, which price
without the evaluation cache, so its ``/v1/healthz`` must then report
``evaluation_cache_entries`` 0.

Usage::

    PYTHONPATH=src python tools/service_smoke.py

Exit status 0 on parity, 1 on any mismatch.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import subprocess
import sys
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden" / "golden-fig10-gemms.json"

sys.path.insert(0, str(REPO_ROOT / "src"))


def post(base: str, path: str, payload: dict) -> dict:
    req = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=120) as response:
        return json.loads(response.read().decode("utf-8"))


def negative_length_status(host: str, port: int) -> int:
    """Status of a search POST declaring ``Content-Length: -1`` (raises
    ``TimeoutError`` when the server blocks on the body instead)."""
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(f"POST /v1/search HTTP/1.1\r\nHost: {host}\r\n"
                     "Content-Length: -1\r\n\r\n{}".encode())
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status


@contextmanager
def served(*options: str):
    """Run ``python -m repro.serve --port 0 *options``; yield its base URL,
    or ``None`` when it announces no port."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *options],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env={"PYTHONPATH": str(REPO_ROOT / "src"),
                        "PATH": "/usr/bin:/bin"})
    try:
        line = server.stdout.readline()
        match = re.search(r"http://[^:]+:\d+", line)
        if not match:
            print(f"FAIL: server did not announce a port (got {line!r})")
        yield match and match.group(0)
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()


def healthz(base: str) -> dict:
    return json.loads(urllib.request.urlopen(
        base + "/v1/healthz", timeout=30).read())


def main() -> int:
    golden = json.loads(GOLDEN.read_text())
    request = {
        "workloads": golden["workload_set"],
        "arch": golden["arch"],
        "model": golden["scenario"],
        "metric": golden["config"]["metric"],
        "max_mappings": golden["config"]["max_mappings"],
        "seed": golden["config"]["seed"],
        # The golden record embeds per-call engine counters; ask for the
        # same isolated-cache semantics so `search` compares exactly too.
        "fresh_cache": True,
    }

    # Warm pass: drop the fresh-cache pin and hit the session cache.
    warm_request = dict(request)
    warm_request.pop("fresh_cache")

    with served() as base:
        if not base:
            return 1
        health = healthz(base)
        if health.get("status") != "ok":
            print(f"FAIL: healthz {health}")
            return 1

        host, port = base.removeprefix("http://").split(":")
        try:
            status = negative_length_status(host, port)
        except TimeoutError:
            status = "no answer within 10 s"
        if status != 400:
            print(f"FAIL: Content-Length -1 got {status}, expected 400")
            return 1
        print("malformed length OK: Content-Length -1 is a 400")

        first = post(base, "/v1/search", request)
        failures = 0
        for field in ("totals", "layers", "search"):
            if first[field] != golden[field]:
                print(f"FAIL: /v1/search {field} differs from "
                      f"{GOLDEN.name}:\n  served: {first[field]}\n  "
                      f"golden: {golden[field]}")
                failures += 1
        if not failures:
            print(f"parity OK: /v1/search == {GOLDEN.name} "
                  f"({len(first['layers'])} layers, "
                  f"{first['totals']['total_cycles']:.6g} cycles)")

        post(base, "/v1/search", warm_request)  # populates the shared cache
        warm = post(base, "/v1/search", warm_request)
        if warm["totals"] != golden["totals"]:
            print("FAIL: warm-session totals drifted from the golden record")
            failures += 1
        elif warm["search"]["cache_misses"] > 0:
            print(f"FAIL: warm-session pass recomputed "
                  f"{warm['search']['cache_misses']} evaluation(s) instead "
                  "of serving them from session state")
            failures += 1
        else:
            print("warm session OK: zero evaluation-cache misses, "
                  "identical totals")

    # One handler thread turns the process offload off on every host, so
    # the search runs in the served session and its cache is the one
    # /v1/healthz reports.
    with served("--threads", "1") as base:
        if not base:
            return 1
        post(base, "/v1/search", warm_request)
        entries = healthz(base)["evaluation_cache_entries"]
        if entries != 0:
            print(f"FAIL: the columnar scans stored {entries} "
                  "evaluation-cache entries; they price without the memo")
            failures += 1
        else:
            print("healthz OK: a one-thread session stored no "
                  "evaluation-cache entries")
    return 1 if failures else 0


if __name__ == "__main__":
    start = time.time()
    status = main()
    print(f"service smoke {'OK' if status == 0 else 'FAILED'} "
          f"in {time.time() - start:.1f}s")
    raise SystemExit(status)
