"""The serve-mix workload: ``python -m repro.serve`` under open-loop load.

One server process (``--threads 2``, a fresh ``--store`` inside the
output directory) and one load-generator process (this one) with two
sender threads, each holding one keep-alive connection.  Phases:

1. warm-up: every template once (the digest references), then cold
   searches in concurrent pairs, which start and warm every worker of the
   server's offload pool;
2. fixed rate: ``PHASE_RATE`` req/s for ``--seconds`` (the latency
   metrics);
3. rate search: steps of ``step_requests`` doubling from ``PHASE_RATE``
   (phase 2 is the first step), then geometric bisection; a step passes
   when its tail latency is at most ``LIMIT_MS`` and nothing errored.

Every response is checked after its phase: status 200, ``key`` equal to
the locally computed ``content_key``, and for repeated templates a digest
equal to the warm-up response's.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import loadgen
import procs
import tracer
import workloads

PHASE_RATE = 20.0
LIMIT_MS = 100.0
SENDERS = 2
SERVER_THREADS = 2
BENCH = Path(__file__).resolve().parent


def _spawn(env, cwd, store: Path, log, spans: Optional[Path]):
    serve_args = ["--port", "0", "--threads", str(SERVER_THREADS),
                  "--store", str(store)]
    argv = ([sys.executable, str(BENCH / "serve_launcher.py"), str(spans)]
            if spans is not None else [sys.executable, "-m", "repro.serve"])
    proc = subprocess.Popen(argv + serve_args, stdout=subprocess.PIPE,
                            stderr=log, text=True, env=env, cwd=cwd,
                            start_new_session=True)
    line = proc.stdout.readline()
    match = re.search(r"http://([^:/\s]+):(\d+)", line)
    if match is None:
        procs.stop(proc)
        raise RuntimeError(f"server did not announce a port: {line!r}")
    return proc, match.group(1), int(match.group(2))


class ServeMixRun:
    """State of one serve-mix run: the plan, the checks, the samples."""

    def __init__(self, seed: int, out_dir: Path, env, cwd):
        from repro.api import content_key, request_from_dict

        self._key = lambda kind, body: content_key(
            request_from_dict(kind, body))
        self.mix = workloads.ServeMix(seed, workloads.load_templates())
        self.expected = {tid: self._key(kind, body)
                         for tid, kind, body in self.mix.templates}
        self.reference: Dict[str, str] = {}
        self.env, self.cwd = env, cwd
        self.store_dir = out_dir / f"serve-store-{seed}"
        self.log_path = out_dir / f"serve-{seed}.log"
        self.attempted = 0
        self.failures: List[str] = []

    # ----------------------------------------------------------- lifecycle
    def start(self, setups: int, spans: Optional[Path]) -> List[float]:
        """Spawn the server ``setups`` times (keeping the last); each
        set-up time runs from spawn to the first successful response."""
        times = []
        _, first_kind, first_body = self.mix.templates[0]
        body = json.dumps(first_body).encode()
        with open(self.log_path, "w") as log:
            for attempt in range(setups):
                shutil.rmtree(self.store_dir, ignore_errors=True)
                self.store_dir.mkdir(parents=True)
                start = time.perf_counter()
                proc, host, port = _spawn(
                    self.env, self.cwd, self.store_dir / "store.sqlite", log,
                    spans if attempt == setups - 1 else None)
                client = loadgen.Client(host, port)
                try:
                    status, _ = client.post(first_kind, body, "setup")
                except BaseException:
                    client.close()
                    procs.stop(proc)
                    raise
                times.append(time.perf_counter() - start)
                self.attempted += 1
                if status != 200:
                    self.failures.append(f"setup: HTTP {status}")
                if attempt < setups - 1:
                    client.close()
                    procs.stop(proc)
        self.proc = proc
        self.clients = [client] + [loadgen.Client(host, port)
                                   for _ in range(SENDERS - 1)]
        return times

    def stop(self) -> Optional[float]:
        """Stop the server; returns its peak RSS (MB)."""
        for client in self.clients:
            client.close()
        rss = procs.stop(self.proc)
        shutil.rmtree(self.store_dir, ignore_errors=True)
        return rss

    def healthz(self) -> Dict:
        status, data = self.clients[0].get("/v1/healthz")
        return json.loads(data) if status == 200 else {}

    # --------------------------------------------------------------- phases
    def warmup(self) -> str:
        """Every template once, then cold searches in concurrent pairs so
        that every offload worker has run one; returns the digest over the
        template responses (the run's results digest)."""
        for index, (tid, kind, body) in enumerate(self.mix.templates):
            status, data = self.clients[index % SENDERS].post(
                kind, json.dumps(body).encode(), f"w{index}")
            sample = loadgen.Sample(0.0, 0.0, 0.0, status, data, None)
            payload = self._check(tid, kind, body, sample, f"w{index}")
            if payload is not None:
                self.reference[tid] = workloads.digest(payload)
        self.attempted += len(self.mix.templates)
        self.phase("wcold", [self.mix.cold() for _ in range(2 * SENDERS)],
                   rate=1000.0)
        return workloads.combined_digest(
            [self.reference.get(tid, "") for tid, _, _ in self.mix.templates])

    def phase(self, label: str, plan: List[tuple],
              rate: float) -> List[dict]:
        """Send ``plan`` open-loop at ``rate``; returns one checked record
        per request."""
        requests = [(kind, json.dumps(body).encode(), f"{label}-{i}")
                    for i, (_, kind, body) in enumerate(plan)]
        samples = loadgen.run_open_loop(self.clients, requests, rate)
        self.attempted += len(plan)
        records = []
        for (tid, kind, body), (_, _, rid), sample in zip(plan, requests,
                                                          samples):
            payload = self._check(tid, kind, body, sample, rid)
            records.append({
                "rid": rid, "cold": tid is None, "ok": payload is not None,
                "sample": sample,
                "pairs": (workloads.pairs_resolved(payload)
                          if payload is not None and tid is None else 0)})
        return records

    def _check(self, tid, kind, body, sample, rid) -> Optional[Dict]:
        if sample.error is not None or sample.status != 200:
            self.failures.append(
                f"{rid}: {sample.error or f'HTTP {sample.status}'}")
            return None
        payload = json.loads(sample.data)
        expected = self.expected[tid] if tid is not None else self._key(
            kind, body)
        if payload.get("key") != expected:
            self.failures.append(f"{rid}: key {payload.get('key')!r} != "
                                 f"content_key {expected!r}")
            return None
        if tid in self.reference and \
                workloads.digest(payload) != self.reference[tid]:
            self.failures.append(f"{rid}: {tid} digest differs from its "
                                 "warm-up response")
            return None
        return payload


def span_records(records: List[dict]) -> List[tracer.Span]:
    """Client spans (due time to response) of a phase's requests, named
    ``serve.transport``: after the server's spans are linked under them,
    their self time is what neither the handler nor anything below it
    covers — waiting for a free keep-alive connection, the network, HTTP
    framing outside the handler, and delayed segments on the socket."""
    return [tracer.Span("serve.transport", int(r["sample"].due * 1e9),
                        int(r["sample"].done * 1e9), index + 1, None,
                        r["rid"], None)
            for index, r in enumerate(records)]


def run(seed: int, seconds: float, out_dir: Path, env, cwd, setups: int,
        step_requests: int, bisections: int,
        spans: Optional[Path] = None, rate_search: bool = True) -> Dict:
    """One serve-mix run; returns raw results for ``run.py``."""
    state = ServeMixRun(seed, out_dir, env, cwd)
    setup_times = state.start(setups, spans)
    try:
        digest = state.warmup()
        before = state.healthz()
        fixed = state.phase(
            "fixed", state.mix.take(max(1, round(PHASE_RATE * seconds))),
            PHASE_RATE)
        after = state.healthz()
        max_rps, steps = None, []
        if rate_search:
            labels = (f"step{i}" for i in itertools.count())

            def run_step(rate):
                step = state.phase(next(labels),
                                   state.mix.take(step_requests), rate)
                return ([r["sample"].latency_ms for r in step],
                        sum(not r["ok"] for r in step))

            _, steps = loadgen.rate_search(
                run_step, PHASE_RATE, LIMIT_MS, bisections,
                first=([r["sample"].latency_ms for r in fixed],
                       sum(not r["ok"] for r in fixed)))
            max_rps = loadgen.knee(steps, LIMIT_MS)
    finally:
        peak_rss = state.stop()
    return {"setup_times": setup_times, "digest": digest, "fixed": fixed,
            "healthz": (before, after), "max_rps": max_rps, "steps": steps,
            "peak_rss_mb": peak_rss, "attempted": state.attempted,
            "failures": state.failures}
