"""Span tracing for the benchmark's traced runs, installed from outside.

The package is not changed to be traced: :func:`install` wraps its
functions at each layer boundary (monkeypatching at import time, before
any request runs).  Each call becomes a span ``(name, start, end, id,
parent, request id, attrs)`` kept in memory and written out at the end of
the run.  ``attrs`` carries work counts measured at the same boundary.

Context travels with the call: a context variable holds the innermost
open span and the request id; a wrapped ``ThreadPoolExecutor.submit``
carries it to the session's dispatch threads and records the time the
work waited in the queue.  Forked children (the session's offload pool)
record nothing; the parent's ``api.offload`` span covers them.  Across
processes, ``serve.handler`` takes the request id from the
``X-Request-Id`` header and :func:`link_remote` attaches the server's
spans under the client's.

A layer's self time is its span's duration minus the union of its
children's intervals.  Targets that no longer exist are skipped and
listed in ``Recorder.missing``, so a refactor of the package degrades the
trace instead of breaking the benchmark.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

import summary

#: (innermost open span id, request id) of the running context.
_CURRENT = contextvars.ContextVar("bench_span", default=(None, None))

REQUEST_ID_HEADER = "X-Request-Id"


class Span(NamedTuple):
    name: str
    start: int
    """perf_counter_ns (CLOCK_MONOTONIC: comparable across processes)."""
    end: int
    id: int
    parent: Optional[int]
    rid: Optional[str]
    attrs: Optional[Dict[str, float]]


class Recorder:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.enabled = True
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    @contextlib.contextmanager
    def request(self, rid: Optional[str]):
        """Run the enclosed calls as request ``rid`` (root spans)."""
        token = _CURRENT.set((None, rid))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def dump(self, path, spans: Optional[List[Span]] = None) -> None:
        """Write spans (default: all) and the missing targets to ``path``."""
        payload = {"spans": [list(s) for s in (self.spans if spans is None
                                               else spans)],
                   "missing": self.missing}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def load(path) -> tuple:
    """``(spans, missing)`` from a :meth:`Recorder.dump` file."""
    with open(path) as handle:
        payload = json.load(handle)
    return [Span(*s) for s in payload["spans"]], payload["missing"]


# ------------------------------------------------------------------ wrapping
def wrap(recorder: Recorder, name: str, func: Callable,
         attrs: Optional[Callable] = None,
         before: Optional[Callable] = None) -> Callable:
    """``func`` recording one span per call.

    ``before(args, kwargs)`` runs ahead of the call; ``attrs(args, kwargs,
    result, state)`` turns its result (and ``before``'s state) into the
    span's work counts.
    """
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return func(*args, **kwargs)
        parent, rid = _CURRENT.get()
        span_id = next(recorder._ids)
        state = before(args, kwargs) if before is not None else None
        token = _CURRENT.set((span_id, rid))
        start = time.perf_counter_ns()
        try:
            result = func(*args, **kwargs)
        except BaseException:
            recorder.spans.append(Span(name, start, time.perf_counter_ns(),
                                       span_id, parent, rid, None))
            raise
        finally:
            _CURRENT.reset(token)
        end = time.perf_counter_ns()
        counts = (attrs(args, kwargs, result, state) if attrs is not None
                  else None)
        recorder.spans.append(Span(name, start, end, span_id, parent, rid,
                                   counts))
        return result
    return traced


def _patch(recorder: Recorder, module_name: str, qualname: str, name: str,
           attrs=None, before=None) -> None:
    try:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        recorder.missing.append(f"{module_name}:{qualname}")
        return
    setattr(owner, attr, wrap(recorder, name, original, attrs, before))


def _carry_context(recorder: Recorder) -> None:
    """Carry the span context into ``ThreadPoolExecutor`` workers and
    record each task's queue wait as ``api.queue_wait`` (the only thread
    pool on the request path is the session's dispatch pool)."""
    original = ThreadPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        parent, rid = _CURRENT.get()
        if not recorder.enabled or parent is None:
            return original(self, fn, *args, **kwargs)
        context = contextvars.copy_context()
        queued = time.perf_counter_ns()

        def run():
            recorder.spans.append(Span("api.queue_wait", queued,
                                       time.perf_counter_ns(),
                                       next(recorder._ids), parent, rid,
                                       None))
            return context.run(fn, *args, **kwargs)

        return original(self, run)

    ThreadPoolExecutor.submit = submit


# Work counts taken at the boundaries --------------------------------------
def _mapper_fresh(args, kwargs):
    mapper, workload = args[0], args[1]
    layouts = kwargs.get("layouts", args[2] if len(args) > 2 else None)
    return not mapper.has_result(workload, layouts)


def _mapper_counts(args, kwargs, result, fresh):
    if not fresh:
        return None
    universe = result.evaluated + result.pruned + result.repaired
    return {"mapper.searches": 1, "mapper.universe_pairs": universe,
            "mapper.evaluated": result.evaluated,
            "mapper.pruned": result.pruned,
            "mapper.repaired": result.repaired}


def _engine_counts(args, kwargs, cost, _):
    stats = cost.search_stats
    return {"engine.layers_total": stats.layers_total,
            "engine.layers_unique": stats.layers_unique}


def _cache_counts(args, kwargs, scored, _):
    return {"cache.lookups": len(scored),
            "cache.hits": sum(1 for _, hit in scored if hit)}


def _repair_counts(args, kwargs, result, _):
    return {"constraints.merged": result[1].merged}


def _gemm_counts(args, kwargs, result, _):
    return {"feather.macs": result[1].macs}


def _store_get_counts(args, kwargs, payload, _):
    return {"store.gets": 1, "store.hits": int(payload is not None)}


#: (module, qualified attribute, span name, counts, before) per boundary.
TARGETS = [
    ("repro.api.session", "Session.run", "api.run", None, None),
    ("repro.api.session", "_resolve_request", "api.resolve", None, None),
    ("repro.api.session", "Session._execute", "api.execute", None, None),
    ("repro.api.session", "Session._offload", "api.offload", None, None),
    ("repro.api.responses", "_ResponseBase.to_dict", "api.assemble", None,
     None),
    ("repro.store", "ResultStore.get", "store.get", _store_get_counts, None),
    ("repro.store", "ResultStore.put", "store.put", None, None),
    ("repro.store", "ResultStore.put_many", "store.put", None, None),
    ("repro.scenarios.runner", "run_matrix", "scenarios.run_matrix", None,
     None),
    ("repro.search.engine", "_search_model_impl", "engine.search_model",
     _engine_counts, None),
    ("repro.layoutloop.mapper", "Mapper.search", "mapper.search",
     _mapper_counts, _mapper_fresh),
    ("repro.search.bulk", "candidate_universe", "bulk.universe", None, None),
    ("repro.search.bulk", "BulkUniverse.bounds", "bulk.bounds", None, None),
    ("repro.search.cache", "EvaluationCache.evaluate_batch",
     "cache.evaluate_batch", _cache_counts, None),
    ("repro.layoutloop.cost_model", "CostModel.evaluate_mapping_batch",
     "cost_model.evaluate_mapping_batch", None, None),
    ("repro.layoutloop.cost_model", "analyze_concordance_batch",
     "kernel.concordance", None, None),
    ("repro.layoutloop.cost_model", "streaming_access_coords",
     "kernel.footprint", None, None),
    ("repro.constraints.rules", "ConstraintSet.repair_candidates",
     "constraints.repair", _repair_counts, None),
    ("repro.backends.systolic", "SystolicBackend.evaluate",
     "backend.systolic", None, None),
    ("repro.backends.noc", "NocBackend.evaluate", "backend.noc", None, None),
    ("repro.backends.simulator", "SimulatorBackend.evaluate",
     "backend.simulator", None, None),
    ("repro.feather.accelerator", "FeatherAccelerator.run_gemm",
     "feather.run", _gemm_counts, None),
    ("repro.feather.accelerator", "FeatherAccelerator.run_conv",
     "feather.run", None, None),
    ("repro.noc.reference_networks", "LinearReductionChain.reduce",
     "noc.reduce", None, None),
    ("repro.noc.reference_networks", "AdderTree.reduce", "noc.reduce", None,
     None),
    ("repro.noc.reference_networks", "ForwardingAdderNetwork.reduce_groups",
     "noc.reduce", None, None),
    ("repro.noc.routing", "BirrdRouter.route", "noc.route", None, None),
]


def install(recorder: Recorder, serve: bool = False) -> None:
    """Wrap every layer boundary; ``serve`` adds the HTTP front."""
    _carry_context(recorder)
    for module_name, qualname, name, attrs, before in TARGETS:
        _patch(recorder, module_name, qualname, name, attrs, before)
    if not serve:
        return
    _patch(recorder, "repro.serve", "ReproRequestHandler._send_json",
           "serve.encode")
    try:
        from repro.serve import ReproRequestHandler
    except ImportError:
        recorder.missing.append("repro.serve:ReproRequestHandler.do_POST")
        return
    handler = wrap(recorder, "serve.handler", ReproRequestHandler.do_POST)

    @functools.wraps(handler)
    def do_post(self):
        with recorder.request(self.headers.get(REQUEST_ID_HEADER)):
            return handler(self)

    ReproRequestHandler.do_POST = do_post


# ------------------------------------------------------------------ analysis
def link_remote(client: Iterable[Span], server: Iterable[Span]
                ) -> List[Span]:
    """Merge a client's spans with a server's: server root spans become
    children of the client span carrying the same request id.  Client
    span ids are negated so the two id spaces cannot collide."""
    client = [s._replace(id=-s.id) for s in client]
    by_rid = {s.rid: s.id for s in client}
    merged = list(client)
    for span in server:
        if span.parent is None and span.rid in by_rid:
            span = span._replace(parent=by_rid[span.rid])
        merged.append(span)
    return merged


def _union_ns(intervals: List[tuple]) -> int:
    total, cursor = 0, None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time (ns) per span id: its duration minus the union of its
    children's intervals, clipped to its own."""
    spans = list(spans)
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(span.id, ())
                   if min(e, span.end) > max(s, span.start)]
        out[span.id] = (span.end - span.start) - _union_ns(covered)
    return out


def summarize(spans: List[Span], wall_ns: int) -> Dict:
    """Per-layer self time, share of ``wall_ns``, per-request p50/tail of
    self time, call counts and summed work counts; plus ``coverage``, the
    sum of all self times over the wall time."""
    own = self_times(spans)
    total = defaultdict(int)
    calls = defaultdict(int)
    per_request = defaultdict(lambda: defaultdict(int))
    counts = defaultdict(float)
    for span in spans:
        total[span.name] += own[span.id]
        calls[span.name] += 1
        per_request[span.name][span.rid] += own[span.id]
        for key, value in (span.attrs or {}).items():
            counts[key] += value
    layers = {}
    for name in sorted(total):
        samples = [ns / 1e6 for ns in per_request[name].values()]
        layers[name] = {
            "self_s": total[name] / 1e9,
            "share_pct": 100.0 * total[name] / wall_ns,
            "calls": calls[name],
            "ms_p50": statistics.median(samples),
            "ms_tail": summary.tail(samples),
        }
    return {"wall_s": wall_ns / 1e9,
            "coverage": sum(total.values()) / wall_ns,
            "layers": layers, "counts": dict(counts)}
