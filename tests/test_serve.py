"""End-to-end ``repro.serve``: real HTTP on an ephemeral port.

The server thread shares one :class:`~repro.api.Session` with the test,
so the core assertion is direct: ``POST /v1/search`` must return exactly
``session.run(SearchRequest(...)).to_dict()`` — the wire adds encoding,
never numbers.  Plus health, every error path with its stable code, eval
and sweep round trips.

The whole module runs twice: once over a single-threaded session
(``threads=1`` — requests serialize through one dispatch slot) and once
over the concurrent front (``threads=4``).  Every assertion must hold on
both, which is what pins "the threaded server changes scheduling, never
payloads".  Dedicated concurrency behavior (coalescing under parallel
load, the shared store) lives in ``test_serve_concurrent.py``.
"""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from reference import reference_evaluate
from repro.api import EvalRequest, SearchRequest, Session, SweepRequest
from repro.api.codec import (
    arch_payload,
    mapping_payload,
    resolve_arch,
    resolve_mapping,
    resolve_workload,
)
from repro.baselines.registry import eyeriss_like
from repro.layout.library import conv_layout_library
from repro.layoutloop.cost_model import CostModel
from repro.serve import create_server

SEARCH = {"workloads": "fig10_gemms", "arch": "FEATHER-4x4",
          "model": "e2e", "metric": "latency", "max_mappings": 6}


@pytest.fixture(scope="module", params=[1, 4],
                ids=["threads1", "threads4"])
def service(request):
    """A live server on an ephemeral port + the session behind it."""
    threads = request.param
    session = Session(name=f"test-serve-{threads}", threads=threads)
    server = create_server("127.0.0.1", 0, session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", session
    server.shutdown()
    server.server_close()
    session.close()
    thread.join(timeout=10)


def _post(base: str, path: str, payload: dict):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_healthz(service):
    base, session = service
    with urllib.request.urlopen(base + "/v1/healthz", timeout=30) as resp:
        payload = json.loads(resp.read())
    assert payload["status"] == "ok"
    assert payload["version"] == __import__("repro").__version__
    assert payload["name"] == session.name
    assert "analytical" in payload["backends"]


def _deterministic(payload: dict) -> dict:
    """Drop run metadata (wall clock, warm-vs-cold cache counters): the
    comparable part must be bit-identical between wire and direct runs."""
    data = {k: v for k, v in payload.items()
            if k not in ("elapsed_s", "workers")}
    data["search"] = {k: v for k, v in payload["search"].items()
                      if k not in ("cache_hits", "cache_misses")}
    return data


def test_search_over_http_equals_direct_session_run(service):
    base, session = service
    status, served = _post(base, "/v1/search", SEARCH)
    assert status == 200
    direct = session.run(SearchRequest(**SEARCH))
    assert _deterministic(served) == _deterministic(direct.to_dict())
    # Floats survive the wire exactly (shortest-round-trip repr).
    assert served["totals"]["total_cycles"] == direct.totals["total_cycles"]
    assert served["layers"] == direct.layers
    assert served["key"] == direct.key


def test_eval_over_http_equals_direct_session_run(service):
    base, session = service
    body = {"workload": "fig10_gemms#1", "arch": "FEATHER-4x4",
            "layout": "MK_M32"}
    status, served = _post(base, "/v1/eval", body)
    assert status == 200
    direct = session.run(EvalRequest(**body))
    assert served["report"] == direct.report
    assert served["backend"] == direct.backend
    assert served["key"] == direct.key


def test_sweep_over_http_equals_direct_session_run(service):
    base, session = service
    body = {"filter": "golden-fig10"}
    status, served = _post(base, "/v1/sweep", body)
    assert status == 200
    direct = session.run(SweepRequest(**body))

    def _records(payloads):
        # Wall clock is run metadata; everything else (totals, layers,
        # engine counters, keys) must be bit-identical.
        return [{k: v for k, v in record.items()
                 if k not in ("elapsed_s", "workers")}
                for record in payloads]

    assert _records(served["records"]) == _records(direct.records)
    assert [r["scenario"] for r in served["records"]] == ["golden-fig10-gemms"]


def test_error_codes_are_stable(service):
    base, _ = service
    cases = [
        ("/v1/search", {"workloads": "no-such-set", "arch": "FEATHER"},
         400, "invalid_request"),
        ("/v1/search", {"workloads": "micro_gemms", "arch": "FEATHER-4x4",
                        "backend": "bogus"}, 400, "unknown_backend"),
        ("/v1/search", {"workloads": "resnet50", "arch": "FEATHER",
                        "backend": "simulator"}, 422, "incompatible_cell"),
        ("/v1/search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                        "schema_version": 99}, 400, "invalid_request"),
        ("/v1/sweep", {"filter": "golden-fig10", "backend": "nope"},
         400, "unknown_backend"),
        ("/v1/sweep", {"scenarios": [{**_CELL, "backend": "nope"}]},
         400, "unknown_backend"),
        ("/v1/nope", {}, 404, "not_found"),
    ]
    for path, body, expected_status, expected_code in cases:
        status, payload = _post(base, path, body)
        assert status == expected_status, (path, body, payload)
        assert payload["error"]["code"] == expected_code
        assert payload["error"]["message"]


_EVAL = {"workload": "fig10_gemms#0", "arch": "FEATHER-4x4",
         "layout": "MK_K32"}
_ARCH = arch_payload(resolve_arch(_EVAL["arch"]))
_MAPPING = mapping_payload(resolve_mapping(
    "output_stationary", resolve_workload(_EVAL["workload"]),
    resolve_arch(_EVAL["arch"])))
_CELL = {"name": "inline", "workload_set": "fig10_gemms[:1]",
         "arch": "FEATHER-4x4",
         "config": {"name": "c", "metric": "latency", "max_mappings": 2,
                    "seed": 0}}


def _cell(**config) -> dict:
    """The inline sweep cell with its config fields overridden."""
    return {**_CELL, "config": {**_CELL["config"], **config}}



@pytest.mark.parametrize("path,body", [
    pytest.param("/v1/search", {**SEARCH, "seed": "x"}, id="search-seed-str"),
    pytest.param("/v1/search", {**SEARCH, "max_mappings": None},
                 id="max-mappings-null"),
    pytest.param("/v1/search", {**SEARCH, "max_mappings": 2.5},
                 id="max-mappings-fraction"),
    pytest.param("/v1/search", {**SEARCH, "max_mappings": True},
                 id="max-mappings-bool"),
    pytest.param("/v1/search", {**SEARCH, "workers": 1.5},
                 id="workers-fraction"),
    pytest.param("/v1/search", {**SEARCH, "policy": "halving",
                                "budget": True}, id="budget-bool"),
    pytest.param("/v1/search", {**SEARCH, "layouts": ["HWC_C32"]},
                 id="search-conv-layout-on-gemms"),
    pytest.param("/v1/eval", {**_EVAL, "seed": "x"}, id="eval-seed-str"),
    pytest.param("/v1/eval", {**_EVAL, "layout": "nope"},
                 id="eval-layout-nope"),
    pytest.param("/v1/eval", {**_EVAL, "layout": "HWC_C32"},
                 id="eval-conv-layout-on-gemm"),
    pytest.param("/v1/sweep", {"filter": "smoke", "workers": "2"},
                 id="sweep-workers-str"),
    pytest.param("/v1/search", {**SEARCH, "fused": "false"},
                 id="search-fused-str"),
    pytest.param("/v1/search", {**SEARCH, "prune": True},
                 id="search-prune-removed"),
    pytest.param("/v1/search", {**SEARCH, "fresh_cache": "false"},
                 id="search-fresh-cache-str"),
    pytest.param("/v1/sweep", {"filter": "golden-fig10",
                               "skip_incompatible": "false"},
                 id="sweep-skip-incompatible-str"),
    pytest.param("/v1/sweep", {"filter": "golden-fig10", "force": "false"},
                 id="sweep-force-str"),
    pytest.param("/v1/sweep", {"scenarios": [_cell(max_mappings=2.7)]},
                 id="sweep-cell-max-mappings-fraction"),
    pytest.param("/v1/sweep", {"scenarios": [_cell(seed="5")]},
                 id="sweep-cell-seed-str"),
    pytest.param("/v1/sweep", {"scenarios": [_cell(frontier="false")]},
                 id="sweep-cell-frontier-str"),
    pytest.param("/v1/eval", {**_EVAL, "arch": {
        **_ARCH, "runtime_layout_flexible": "false"}},
                 id="eval-arch-bool-str"),
    pytest.param("/v1/eval", {**_EVAL, "arch": {**_ARCH, "pe_rows": 4.9}},
                 id="eval-arch-pe-rows-fraction"),
    pytest.param("/v1/eval", {**_EVAL, "arch": {
        **_ARCH, "buffer": {**_ARCH["buffer"], "banks": 0}}},
                 id="eval-arch-banks-zero"),
    pytest.param("/v1/eval", {**_EVAL, "arch": {
        **_ARCH, "buffer": {**_ARCH["buffer"], "ports_per_bank": 0}}},
                 id="eval-arch-ports-zero"),
    pytest.param("/v1/eval", {**_EVAL, "workload": {
        "type": "gemm", "name": "g", "m": "8", "k": 2.5, "n": True}},
                 id="eval-gemm-dims-coerced"),
    pytest.param("/v1/eval", {**_EVAL, "mapping": {
        **_MAPPING, "array_rows": 4.5}},
                 id="eval-mapping-rows-fraction"),
    pytest.param("/v1/sweep", {"filter": 5}, id="sweep-filter-int"),
    pytest.param("/v1/sweep", {"filter": "golden-fig10", "backend": 5},
                 id="sweep-backend-int"),
    pytest.param("/v1/sweep", {"scenarios": [_CELL, _cell(seed=1)]},
                 id="sweep-cell-name-reused"),
    pytest.param("/v1/eval", {**_EVAL, "layout": "HWC_C32", "workload": {
        "type": "conv", "name": "c", "m": 4, "c": 4, "h": 4, "w": 4,
        "r": 5, "s": 5, "padding": 0}}, id="eval-conv-kernel-overflows"),
    pytest.param("/v1/search", {**SEARCH, "model": 5}, id="search-model-int"),
    pytest.param("/v1/sweep", {"scenarios": [{**_CELL, "name": 5}]},
                 id="sweep-cell-name-int"),
    pytest.param("/v1/sweep", {"scenarios": [{**_CELL, "tags": [1]}]},
                 id="sweep-cell-tags-int"),
    pytest.param("/v1/sweep", {"scenarios": [{**_CELL, "tags": "smoke"}]},
                 id="sweep-cell-tags-str"),
    pytest.param("/v1/eval", {**_EVAL, "workload": {
        "type": "gemm", "name": 7, "m": 8, "k": 8, "n": 8}},
                 id="eval-workload-name-int"),
])
def test_bad_field_values_are_invalid_request(service, path, body):
    """Wrong-typed integers, booleans, strings and inline payload fields,
    layouts over foreign dimensions, reused inline cell names and kernels
    that overflow their input are a structured 400, never a 500 or a
    silently coerced run."""
    base, _ = service
    status, payload = _post(base, path, body)
    assert status == 400, (body, payload)
    assert payload["error"]["code"] == "invalid_request"


def test_huge_bank_count_is_priced_like_the_scalar_oracle(service):
    """An inline arch may declare far more banks than a cycle has lanes.
    The concordance kernel's count matrix stays ``lanes`` wide, so a
    billion banks price in bounded memory and equal the scalar oracle
    (here with a conflict depth of ~1,100 lines, so banks do conflict)."""
    base, _ = service
    arch = arch_payload(eyeriss_like())
    arch["buffer"] = {**arch["buffer"], "banks": 10**9, "num_lines": 2**40}
    body = {"workload": "resnet50#1", "arch": arch, "layout": "HWC_C32"}
    status, served = _post(base, "/v1/eval", body)
    assert status == 200, served
    spec = resolve_arch(arch)
    workload = resolve_workload(body["workload"])
    layout, = [l for l in conv_layout_library() if l.name == "HWC_C32"]
    expected = reference_evaluate(
        CostModel(spec), workload,
        resolve_mapping("output_stationary", workload, spec), layout)
    assert expected.slowdown > 1.0
    assert served["report"]["slowdown"] == expected.slowdown
    assert served["report"]["total_cycles"] == expected.total_cycles
    assert served["report"]["total_energy_pj"] == expected.total_energy_pj


def test_malformed_json_is_a_structured_400(service):
    base, _ = service
    request = urllib.request.Request(
        base + "/v1/search", data=b"{not json",
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["error"]["code"] == \
        "invalid_request"


@pytest.mark.parametrize("declared", ["-1", "abc"],
                         ids=["negative", "non-numeric"])
def test_malformed_content_length_is_a_structured_400(service, declared):
    """A body length that is not a non-negative decimal integer is a 400
    that closes the connection: the framing is unknown, so the server
    never reads (or blocks on) a guessed length.  The client timeout turns
    a blocked read into a failure instead of a hang."""
    base, _ = service
    url = urllib.parse.urlsplit(base)
    with socket.create_connection((url.hostname, url.port),
                                  timeout=10) as sock:
        sock.sendall(f"POST /v1/search HTTP/1.1\r\nHost: {url.netloc}\r\n"
                     "Content-Type: application/json\r\n"
                     f"Content-Length: {declared}\r\n\r\n{{}}".encode())
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert response.getheader("Connection") == "close"
        assert sock.recv(1) == b""  # the server hung up


def _exchange(base: str, raw: bytes, half_close: bool = False):
    """Send ``raw`` on a fresh connection and read until the server hangs
    up; return ``(status, headers, payload)`` of the one response it wrote.

    Reading to EOF makes "exactly one response" checkable: any byte after
    the first response's body (a second response, a bare HTML error page)
    fails, and the client timeout turns a server that keeps the connection
    open into a failure instead of a hang."""
    url = urllib.parse.urlsplit(base)
    with socket.create_connection((url.hostname, url.port),
                                  timeout=10) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        data = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, rest = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {name.lower(): value for name, _, value in
               (line.partition(": ") for line in lines)}
    length = int(headers["content-length"])
    assert rest[length:] == b"", f"more followed the response: {data!r}"
    return int(status_line.split()[1]), headers, json.loads(rest[:length])


def test_chunked_body_is_one_structured_411(service):
    """Only ``Content-Length`` frames a body.  A ``Transfer-Encoding``
    request, with or without a length, gets one 411 and a closed
    connection: the body is neither run as an empty request nor parsed as
    the next one, so the pipelined healthz after it goes unanswered."""
    base, _ = service
    host = urllib.parse.urlsplit(base).netloc
    body = json.dumps(SEARCH).encode()
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    for length in ("", f"Content-Length: {len(chunked)}\r\n"):
        raw = (f"POST /v1/search HTTP/1.1\r\nHost: {host}\r\n"
               "Content-Type: application/json\r\n"
               f"Transfer-Encoding: chunked\r\n{length}\r\n").encode()
        raw += chunked + (f"GET /v1/healthz HTTP/1.1\r\nHost: {host}"
                          "\r\n\r\n").encode()
        status, headers, payload = _exchange(base, raw)
        assert status == 411, payload
        assert payload["error"]["code"] == "invalid_request"
        assert headers["connection"] == "close"


def test_short_body_is_a_structured_400(service):
    """A body that ends (the client half-closes) before its declared
    ``Content-Length`` is a 400 that closes the connection; the truncated
    request is never run, even when what arrived is valid JSON."""
    base, _ = service
    host = urllib.parse.urlsplit(base).netloc
    body = json.dumps(SEARCH).encode()
    raw = (f"POST /v1/search HTTP/1.1\r\nHost: {host}\r\n"
           "Content-Type: application/json\r\n"
           f"Content-Length: {len(body) + 50}\r\n\r\n").encode() + body
    status, headers, payload = _exchange(base, raw, half_close=True)
    assert status == 400, payload
    assert payload["error"]["code"] == "invalid_request"
    assert f"after {len(body)} of {len(body) + 50} bytes" in \
        payload["error"]["message"]
    assert headers["connection"] == "close"


def test_unknown_post_path_with_a_body_is_one_404(service):
    """A POST to an unknown path is a 404 answered before its body is
    read, so the server hangs up: the unread body is never parsed as the
    next request, and the pipelined healthz after it goes unanswered."""
    base, _ = service
    host = urllib.parse.urlsplit(base).netloc
    raw = (f"POST /v1/nope HTTP/1.1\r\nHost: {host}\r\n"
           "Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
           f"GET /v1/healthz HTTP/1.1\r\nHost: {host}\r\n\r\n").encode()
    status, headers, payload = _exchange(base, raw)
    assert status == 404, payload
    assert payload["error"]["code"] == "not_found"
    assert headers["connection"] == "close"


def test_get_with_a_body_is_answered_once(service):
    """A GET's body is never read: the server answers the GET and hangs
    up instead of parsing the body (and what follows) as the next
    request."""
    base, _ = service
    host = urllib.parse.urlsplit(base).netloc
    raw = (f"GET /v1/healthz HTTP/1.1\r\nHost: {host}\r\n"
           "Content-Length: 2\r\n\r\n{}"
           f"GET /v1/healthz HTTP/1.1\r\nHost: {host}\r\n\r\n").encode()
    status, headers, payload = _exchange(base, raw)
    assert status == 200, payload
    assert payload["status"] == "ok"
    assert headers["connection"] == "close"


def _healthz(conn: http.client.HTTPConnection) -> None:
    conn.request("GET", "/v1/healthz")
    response = conn.getresponse()
    response.read()
    assert response.status == 200


def test_keep_alive_requests_are_not_held_by_nagle(service):
    """Back-to-back requests on one keep-alive connection answer in well
    under the 40 ms delayed-ACK timer.  The handler writes headers and
    body separately; without ``TCP_NODELAY`` Nagle holds the body until
    the client ACKs the headers, about 44 ms per request."""
    base, _ = service
    url = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    latencies = []
    try:
        for _ in range(20):
            start = time.perf_counter()
            _healthz(conn)
            latencies.append(time.perf_counter() - start)
    finally:
        conn.close()
    assert statistics.median(latencies) < 0.010, latencies


def test_connect_burst_is_answered_without_syn_retransmits(service):
    """16 clients connecting at once are all answered within 0.5 s.  A
    listen backlog of 5 drops the burst's extra SYNs, and each dropped one
    waits for the client's 1 s retransmit."""
    base, _ = service
    url = urllib.parse.urlsplit(base)
    clients = 16
    barrier = threading.Barrier(clients)
    elapsed = [None] * clients

    def client(index: int) -> None:
        barrier.wait(timeout=10)
        start = time.perf_counter()
        conn = http.client.HTTPConnection(url.hostname, url.port,
                                          timeout=10)
        try:
            _healthz(conn)
        finally:
            conn.close()
        elapsed[index] = time.perf_counter() - start

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert None not in elapsed, elapsed  # a client raised
    assert max(elapsed) < 0.5, sorted(elapsed)


def test_repeat_traffic_is_served_warm(service):
    base, session = service
    before = session.describe()["evaluation_cache_entries"]
    _post(base, "/v1/search", SEARCH)  # may or may not be first overall
    status, warm = _post(base, "/v1/search", dict(SEARCH, model="warm"))
    assert status == 200
    assert warm["search"]["cache_misses"] == 0
    assert session.describe()["evaluation_cache_entries"] >= before
