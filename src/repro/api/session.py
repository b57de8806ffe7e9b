"""The long-lived :class:`Session`: one object behind every façade request.

A ``Session`` is the amortization layer the per-call entry points never
had.  It owns, for its whole lifetime:

* the **evaluation cache** (:class:`~repro.search.cache.EvaluationCache`)
  shared by every analytical search it runs — a second search touching
  the same (shape, arch, mapping, layout) cells is served from memory
  (eval requests price their one cell afresh and are not memoized);
* the **backend instances** (one per (backend, architecture, seed)), so a
  simulator backend keeps its simulation memos warm across requests;
* a **persistent** ``ProcessPoolExecutor`` reused by every parallel search
  instead of paying pool startup per call;
* the **in-flight request table**: two identical requests submitted while
  the first is still running coalesce to one evaluation and share the same
  response object.

Worker-count resolution lives here and only here (explicit request value
over the session default over the ``REPRO_SEARCH_WORKERS`` environment
variable over serial) — the engine below executes a concrete count, and
the scenarios CLI and the experiments inherit the same precedence by
routing through a session.

``run`` executes synchronously in the calling thread; ``submit`` returns a
``concurrent.futures.Future`` from a session-owned thread pool of
``threads`` workers.  Responses of coalesced requests are shared objects —
treat them (and the ``ModelCost`` handles they carry) as immutable.

Two optional layers turn a session into a service node:

* ``store_path`` mounts a disk-backed :class:`repro.store.ResultStore`
  under the in-memory tiers.  Eval and (non-``fresh_cache``) search
  requests consult it before executing and publish their responses after;
  because it is keyed by the same content keys and safely shared across
  processes, N serve replicas pointed at one store file serve each other's
  warm results (``response.served_from == "store"``).
* ``offload=True`` (the threaded service front enables it on multi-core
  hosts) makes cold analytical serial searches run as whole units in the
  session's persistent process pool, so concurrent submitters scale past
  the GIL: the submitting thread blocks on a pickled-result future instead
  of holding the interpreter.  Results are adopted back into the mapper
  memo, so repeat traffic still short-circuits in memory.  Offloaded
  searches are bit-identical to inline ones (same engine, same seed, fresh
  per-call evaluation cache in the worker).

The module-default session (:func:`default_session`) is what the scenario
runner and ``python -m repro.serve`` use; construct your own ``Session``
for isolated caches or an artifact directory.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.api import codec
from repro.api.requests import (
    API_SCHEMA_VERSION,
    EvalRequest,
    Request,
    SearchRequest,
    SweepRequest,
)
from repro.api.responses import EvalResponse, SearchResponse, SweepResponse
from repro.errors import InvalidRequestError
from repro.search.cache import EvaluationCache
from repro.search.parallel import resolve_workers as _env_workers
from repro.search.signatures import (
    arch_signature,
    layout_signature,
    mapping_signature,
    workload_signature,
)


@dataclass
class SessionStats:
    """Request counters of one session (monotonic, thread-safe enough)."""

    requests: int = 0
    """Requests accepted (run + submit, coalesced ones included)."""
    executed: int = 0
    """Requests that actually ran an evaluation."""
    coalesced: int = 0
    """Requests served by joining an identical in-flight request."""
    store_hits: int = 0
    """Requests served from the shared :class:`~repro.store.ResultStore`
    without executing (store-enabled sessions only)."""


def _digest(payload: Tuple) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _offloaded_search(payload: Dict):
    """Worker entry point of the request-level process offload.

    Must stay a module-level function (pickled by ``ProcessPoolExecutor``).
    Runs one whole search on the exact fresh serial path a cold inline
    request would take (``cache=None`` builds a per-call evaluation cache),
    so the returned :class:`~repro.layoutloop.cosearch.ModelCost` — engine
    counters included — is bit-identical to inline execution.
    """
    from repro.search.engine import _search_model_impl

    return _search_model_impl(**payload)


@dataclass
class _Resolved:
    """Domain objects a request resolved to — computed once per request
    (key derivation and execution share them, never re-resolve)."""

    workload: object = None
    workloads: Optional[list] = None
    arch: object = None
    mapping: object = None
    layout: object = None
    cells: Optional[list] = None


def _check_layout_dims(layout, workload) -> None:
    """Reject a layout naming a dimension the workload's streamed tensor
    lacks (C/H/W for convs, M/K for GEMMs); omitting a dimension is legal.
    """
    from repro.layoutloop.cost_model import streaming_tensor_dims

    dims = streaming_tensor_dims(workload)
    foreign = sorted((set(layout.inter_order) | set(layout.intra_dims))
                     - set(dims))
    if foreign:
        raise InvalidRequestError(
            f"layout {layout.name!r} names dimension(s) {foreign} "
            f"outside the streamed tensor of workload "
            f"{getattr(workload, 'name', '')!r} (dims {''.join(dims)})")


def _resolve_request(request: Request) -> Tuple[str, _Resolved]:
    """Resolve a request's references and derive its content key.

    Raises :class:`InvalidRequestError` when the request does not resolve.
    """
    if isinstance(request, EvalRequest):
        resolved = _Resolved(
            workload=codec.resolve_workload(request.workload),
            arch=codec.resolve_arch(request.arch))
        resolved.mapping = codec.resolve_mapping(request.mapping,
                                                 resolved.workload,
                                                 resolved.arch)
        resolved.layout = codec.resolve_layout(request.layout)
        _check_layout_dims(resolved.layout, resolved.workload)
        return _digest((
            "eval", API_SCHEMA_VERSION, repro.__version__,
            workload_signature(resolved.workload),
            getattr(resolved.workload, "name", ""),
            arch_signature(resolved.arch),
            mapping_signature(resolved.mapping), resolved.mapping.name,
            layout_signature(resolved.layout), request.backend,
            request.seed)), resolved
    if isinstance(request, SearchRequest):
        resolved = _Resolved(
            workloads=codec.resolve_workloads(request.workloads),
            arch=codec.resolve_arch(request.arch))
        return _digest((
            "search", API_SCHEMA_VERSION, repro.__version__, request.model,
            tuple(workload_signature(w) for w in resolved.workloads),
            tuple(getattr(w, "name", "") for w in resolved.workloads),
            arch_signature(resolved.arch),
            request.config.key(), request.backend)), resolved
    if isinstance(request, SweepRequest):
        from repro.scenarios.runner import cell_key

        resolved = _Resolved(cells=_sweep_cells(request))
        return _digest((
            "sweep", API_SCHEMA_VERSION, repro.__version__,
            tuple(cell_key(c) for c in resolved.cells), request.backend,
            request.force, request.skip_incompatible)), resolved
    raise InvalidRequestError(
        f"unsupported request type {type(request).__name__!r}")


def content_key(request: Request) -> str:
    """sha256 content address of a resolved request.

    Keys cover resolved *structure* — workload shape signatures, the full
    architecture signature, :meth:`SearchConfig.key`, the package version
    — plus the labels that appear in the response; the guaranteed
    result-neutral execution knobs (``workers``, ``fresh_cache``) stay
    out.  A scenario cell's key (:func:`repro.scenarios.runner.cell_key`)
    is this key of its request.  Raises :class:`InvalidRequestError` when
    the request does not resolve.
    """
    return _resolve_request(request)[0]


def _sweep_cells(request: SweepRequest):
    """The deduplicated plan-order cells a sweep request selects."""
    from repro.scenarios.builtin import builtin_matrix
    from repro.scenarios.spec import ScenarioMatrix

    if request.scenarios is not None:
        matrix = ScenarioMatrix(name="request", scenarios=[
            codec.scenario_from_payload(p) for p in request.scenarios])
        return list(matrix.dedup())
    return list(builtin_matrix().filter(request.filter).dedup())


class Session:
    """A configured, long-lived façade context (see module docstring).

    Parameters:

    * ``workers`` — session-default worker count; ``None`` falls through
      to the ``REPRO_SEARCH_WORKERS`` environment variable, then serial.
    * ``runs_dir`` — artifact directory for sweep requests
      (content-addressed per-cell records + summaries); ``None`` keeps
      sweeps in memory.
    * ``name`` — label in ``describe()`` output (service health checks).
    * ``threads`` — size of the thread pool behind :meth:`submit` (also
      the concurrency the service front can push into one session);
      default 4.
    * ``store_path`` — optional disk-backed :class:`~repro.store.ResultStore`
      shared across replicas (see the module docstring);
      ``store_max_bytes`` bounds it.
    * ``offload`` — run cold analytical serial searches as whole units in
      the process pool so concurrent submitters scale past the GIL.  Off
      by default (in-process callers keep per-request counter/cache
      semantics); the service front enables it when ``--threads > 1`` on
      a multi-core host.

    Sessions are usable from several threads (the JSON service shares one
    across its handler threads); close with :meth:`close` or use as a
    context manager.
    """

    def __init__(self, workers: Optional[int] = None,
                 runs_dir: Optional[Path] = None, name: str = "session",
                 threads: Optional[int] = None,
                 store_path: Optional[Path] = None,
                 store_max_bytes: Optional[int] = None,
                 offload: bool = False):
        from repro.store import ResultStore

        self.name = name
        self.workers = workers
        self.runs_dir = Path(runs_dir) if runs_dir is not None else None
        self.threads = 4 if threads is None else max(1, int(threads))
        self.store = None
        if store_path is not None:
            self.store = (ResultStore(store_path)
                          if store_max_bytes is None
                          else ResultStore(store_path,
                                           max_bytes=store_max_bytes))
        self._offload_enabled = bool(offload) and self.threads > 1
        self.cache = EvaluationCache()
        self.stats = SessionStats()
        self.created_at = time.time()
        self._backends: Dict[Tuple, object] = {}
        self._mappers: Dict[Tuple, object] = {}
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0
        self._pool_busy = 0
        self._pool_unavailable = False
        self._threads: Optional[ThreadPoolExecutor] = None
        self._store_pending: List[Tuple[str, dict, str]] = []
        self._store_flush_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut down the worker pools (idempotent; caches are kept until
        the session is garbage collected)."""
        with self._lock:
            pool, self._pool = self._pool, None
            threads, self._threads = self._threads, None
            self._pool_size = 0
            self._closed = True
        if pool is not None:
            pool.shutdown()
        if threads is not None:
            threads.shutdown()
        if self.store is not None:
            self._flush_store()
            self.store.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- workers
    def resolve_workers(self, explicit: Optional[int] = None) -> int:
        """The one place worker counts are resolved.

        Precedence: explicit argument > session default >
        ``REPRO_SEARCH_WORKERS`` environment variable > 1 (serial).
        Results are bit-identical for any resolved count.
        """
        if explicit is not None:
            return max(1, int(explicit))
        if self.workers is not None:
            return max(1, int(self.workers))
        return _env_workers(None)

    def _executor_for(self, workers: int) -> Optional[ProcessPoolExecutor]:
        """The persistent process pool (None = serial, or pools unavailable
        in this environment).

        Grown to ``workers`` only while no other request is using it — a
        concurrent user keeps the existing (possibly smaller) pool, which
        is safe because the engine caps effective workers at the pool
        size.  A pool broken by a dead worker process is replaced rather
        than cached forever; if replacement also fails, parallel requests
        degrade to serial (bit-identical either way).
        """
        if workers <= 1:
            return None
        with self._lock:
            if self._closed or self._pool_unavailable:
                return None
            pool = self._pool
            broken = pool is not None and getattr(pool, "_broken", False)
            if pool is not None and not broken:
                if self._pool_size >= workers or self._pool_busy > 0:
                    self._pool_busy += 1
                    return pool
            stale = pool
            try:
                self._pool = ProcessPoolExecutor(max_workers=workers)
            except (OSError, NotImplementedError):
                self._pool = None
                self._pool_size = 0
                self._pool_unavailable = True
                return None
            self._pool_size = workers
            self._pool_busy = 1
        if stale is not None:
            stale.shutdown(wait=False)
        return self._pool

    def _release_executor(self, pool: Optional[ProcessPoolExecutor]) -> None:
        if pool is None:
            return
        with self._lock:
            if pool is self._pool and self._pool_busy > 0:
                self._pool_busy -= 1

    def _thread_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError(f"Session {self.name!r} is closed")
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=self.threads,
                    thread_name_prefix=f"repro-{self.name}")
            return self._threads

    # ------------------------------------------------------------- backends
    def backend_for(self, name: str, arch, seed: int = 0):
        """The session's memoized backend instance for (name, arch, seed).

        Stateful backends (the simulator) keep their memos warm across
        requests; the analytical backend is stateless (the session's
        evaluation cache is the searches' memo, held by their mappers)
        and ignores its seed, so it keeps one instance per arch.
        Unknown names raise :class:`~repro.errors.UnknownBackendError`.
        """
        from repro.backends import create_backend

        if name == "analytical":
            seed = 0
        key = (name, arch_signature(arch), seed)
        with self._lock:
            instance = self._backends.get(key)
        if instance is not None:
            return instance
        instance = create_backend(name, arch, seed=seed)
        if name != "analytical":
            # Stateful backends mutate internal state (simulation buffers,
            # memos) while evaluating; concurrent searches and evals on the
            # shared instance serialize on this lock.
            instance._session_serialize = threading.Lock()
        with self._lock:
            return self._backends.setdefault(key, instance)

    def _mapper_for(self, arch, request: SearchRequest, backend):
        """A persistent per-configuration mapper (shared-cache serial path).

        Its whole-result memo is what makes repeat search requests near
        instant: determinism guarantees the memoized
        :class:`~repro.layoutloop.mapper.SearchResult` objects equal a
        fresh search's — counters included, so a full memo hit reports
        the original search's evaluations and prunes — and only the
        evaluation-cache counters differ (a full hit makes no cache
        lookups, so it reports no hits or misses).  ``fresh_cache`` requests bypass this layer so their
        cache counters stay per-call deterministic.
        """
        from repro.layoutloop.mapper import Mapper

        key = (arch_signature(arch), request.backend, request.config.key())
        with self._lock:
            mapper = self._mappers.get(key)
        if mapper is not None:
            return mapper
        mapper = Mapper(arch, request.config, evaluation_cache=self.cache,
                        backend=backend)
        with self._lock:
            return self._mappers.setdefault(key, mapper)

    # ------------------------------------------------------------ run/submit
    def run(self, request: Request):
        """Execute a request synchronously and return its typed response.

        An identical in-flight request (same content key and cache policy)
        is joined rather than re-executed — both callers receive the same
        response object.
        """
        key, resolved, future, owner = self._claim(request)
        if not owner:
            return future.result()
        try:
            response = self._execute(request, resolved, key)
        except BaseException as exc:
            future.set_exception(exc)
            self._release(request, key)
            raise
        future.set_result(response)
        self._release(request, key)
        return response

    def submit(self, request: Request) -> "Future":
        """Enqueue a request on the session's thread pool; returns a future.

        Two identical in-flight submissions return the *same* future (one
        engine evaluation, shared response object).
        """
        key, resolved, future, owner = self._claim(request)
        if not owner:
            return future

        def _work() -> None:
            try:
                future.set_result(self._execute(request, resolved, key))
            except BaseException as exc:  # delivered via future.result()
                future.set_exception(exc)
            finally:
                self._release(request, key)

        self._thread_pool().submit(_work)
        return future

    @staticmethod
    def _dedup_key(request: Request, key: str) -> str:
        # fresh_cache requests promise per-call-deterministic engine
        # counters; joining them onto a warm shared-cache execution (or
        # vice versa) would leak the other policy's counters into records,
        # so the two policies never coalesce with each other.
        if isinstance(request, SearchRequest) and request.fresh_cache:
            return key + ":fresh"
        return key

    def _claim(self, request: Request
               ) -> Tuple[str, _Resolved, Future, bool]:
        if self._closed:
            raise RuntimeError(f"Session {self.name!r} is closed")
        key, resolved = _resolve_request(request)
        dedup = self._dedup_key(request, key)
        with self._lock:
            self.stats.requests += 1
            existing = self._inflight.get(dedup)
            if existing is not None:
                self.stats.coalesced += 1
                return key, resolved, existing, False
            future: Future = Future()
            self._inflight[dedup] = future
            return key, resolved, future, True

    def _release(self, request: Request, key: str) -> None:
        with self._lock:
            self._inflight.pop(self._dedup_key(request, key), None)

    # ------------------------------------------------------------- execution
    def _execute(self, request: Request, resolved: _Resolved, key: str):
        stored = self._serve_from_store(request, resolved, key)
        if stored is not None:
            return stored
        with self._lock:
            self.stats.executed += 1
        if isinstance(request, EvalRequest):
            response = self._execute_eval(request, resolved, key)
        elif isinstance(request, SearchRequest):
            response = self._execute_search(request, resolved, key)
        elif isinstance(request, SweepRequest):
            return self._execute_sweep(request, resolved, key)
        else:
            raise InvalidRequestError(
                f"unsupported request type {type(request).__name__!r}")
        self._offer_to_store(request, key, response)
        return response

    # ----------------------------------------------------------- store tier
    @staticmethod
    def _store_kind(request: Request) -> Optional[str]:
        """The store record kind of a request, or None when it must not be
        store-served: sweeps have their own content-addressed artifact tier
        (``runs_dir``), and ``fresh_cache`` searches promise per-call engine
        counters and a live ``cost`` handle (the scenario runner and the
        golden records depend on both)."""
        if isinstance(request, EvalRequest):
            return "eval"
        if isinstance(request, SearchRequest) and not request.fresh_cache:
            return "search"
        return None

    def _serve_from_store(self, request: Request, resolved: _Resolved,
                          key: str):
        """A finished response from the shared disk store, or None.

        A search whose every shape is already in this session's whole-result
        memo is *not* store-served — the in-memory path is faster and keeps
        the live ``cost`` handle.  Payloads that fail to reconstruct (a
        foreign or corrupt record) are treated as misses.
        """
        if self.store is None:
            return None
        kind = self._store_kind(request)
        if kind is None:
            return None
        if kind == "search" and self._memo_has(request, resolved):
            return None
        start = time.perf_counter()
        payload = self.store.get(key)
        if payload is None:
            return None
        cls = EvalResponse if kind == "eval" else SearchResponse
        try:
            response = cls.from_dict(payload)
        except (InvalidRequestError, KeyError, TypeError, ValueError,
                AttributeError):
            # A foreign or hand-edited row (wrong fields, wrong types,
            # wrong nesting) can raise any of these out of from_dict; it
            # can never serve a hit, so delete it and treat it as a miss
            # instead of crashing the serving thread.
            self.store.delete(key)
            return None
        if response.key != key:
            self.store.delete(key)
            return None
        response.served_from = "store"
        response.elapsed_s = time.perf_counter() - start
        with self._lock:
            self.stats.store_hits += 1
        return response

    def _offer_to_store(self, request: Request, key: str, response) -> None:
        kind = self._store_kind(request)
        if self.store is None or kind is None:
            return
        with self._lock:
            self._store_pending.append((key, response.to_dict(), kind))
        self._flush_store()

    def _flush_store(self) -> None:
        """Drain pending publishes into the store as batched transactions.

        Publishes are coalesced: whichever thread holds the flush lock
        drains the whole buffer with a single :meth:`ResultStore.put_many`
        call per batch, so concurrent handler threads pay one WAL commit
        for many results instead of one each.  The outer ``while`` re-checks
        the buffer after releasing the lock so an entry appended between the
        holder's final drain and the release is never stranded.
        """
        while self._store_pending:
            if not self._store_flush_lock.acquire(blocking=False):
                return
            try:
                with self._lock:
                    batch = self._store_pending
                    self._store_pending = []
                if batch:
                    self.store.put_many(batch)
            finally:
                self._store_flush_lock.release()

    def _memo_has(self, request: SearchRequest, resolved: _Resolved) -> bool:
        """Whether the serial in-memory path would serve this search from
        the per-configuration mapper's whole-result memo."""
        from repro.layoutloop.cosearch import unique_workloads

        if request.backend == "crossval":
            return False
        if request.frontier or request.fused:
            # Frontier/fused payloads live on the ModelCost, not in the
            # mapper's whole-result memo — never claim a memo hit for them.
            return False
        if self.resolve_workers(request.workers) > 1:
            return False
        backend = ("analytical" if request.backend == "analytical"
                   else self.backend_for(request.backend, resolved.arch,
                                         request.config.seed))
        mapper = self._mapper_for(resolved.arch, request, backend)
        return all(mapper.has_result(wl)
                   for wl, _ in unique_workloads(resolved.workloads))

    # -------------------------------------------------------------- offload
    def _offload(self, request: SearchRequest, resolved: _Resolved):
        """Run one analytical search whole in the process pool; returns the
        :class:`ModelCost`, or None when no pool is available (caller runs
        inline — bit-identical either way)."""
        from concurrent.futures.process import BrokenProcessPool

        pool = self._executor_for(max(2, self.threads))
        if pool is None:
            return None
        payload = dict(
            arch=resolved.arch, workloads=list(resolved.workloads),
            config=request.config, model_name=request.model, workers=1)
        try:
            return pool.submit(_offloaded_search, payload).result()
        except (BrokenProcessPool, OSError):
            # Pool infrastructure died (a killed worker, fork limits):
            # degrade to inline execution.  Real search errors propagate.
            return None
        finally:
            self._release_executor(pool)

    def _execute_eval(self, request: EvalRequest, resolved: _Resolved,
                      key: str) -> EvalResponse:
        workload, arch = resolved.workload, resolved.arch
        mapping, layout = resolved.mapping, resolved.layout
        backend = self.backend_for(request.backend, arch, request.seed)
        start = time.perf_counter()
        with getattr(backend, "_session_serialize", nullcontext()):
            report, = backend.evaluate(workload, mapping, [layout])
        elapsed = time.perf_counter() - start
        payload = asdict(report)
        payload["total_energy_pj"] = report.total_energy_pj
        payload["energy_per_mac_pj"] = report.energy_per_mac_pj
        payload["edp"] = report.edp
        return EvalResponse(report=payload, backend=request.backend, key=key,
                            elapsed_s=elapsed, backend_report=report)

    def _execute_search(self, request: SearchRequest, resolved: _Resolved,
                        key: str) -> SearchResponse:
        from repro.layoutloop.cosearch import unique_workloads

        workloads, arch = resolved.workloads, resolved.arch
        workers = self.resolve_workers(request.workers)
        crossval = request.backend == "crossval"
        start = time.perf_counter()
        search_backend = request.backend
        if crossval or request.backend == "analytical":
            search_backend = "analytical"
        else:
            search_backend = self.backend_for(request.backend, arch,
                                              request.config.seed)
        mapper = (self._mapper_for(arch, request, search_backend)
                  if not request.fresh_cache and workers <= 1 and not crossval
                  else None)
        # Stateful backend instances (the simulator) are memoized per
        # session and mutate internal state while evaluating — concurrent
        # searches on the same instance must serialize.  Analytical
        # requests stay fully concurrent (the evaluation cache is locked).
        serialize = nullcontext()
        if crossval:
            # Fail fast on incompatible cells before burning a co-search.
            simulator = self.backend_for("simulator", arch,
                                         request.config.seed)
            serialize = getattr(simulator, "_session_serialize", serialize)
            for workload, _ in unique_workloads(workloads):
                simulator.check_cell(workload)
        elif not isinstance(search_backend, str):
            serialize = getattr(search_backend, "_session_serialize",
                                serialize)
        with serialize:
            return self._execute_search_body(
                request, resolved, key, workers, crossval, search_backend,
                mapper, simulator if crossval else None, start)

    def _execute_search_body(self, request, resolved, key, workers, crossval,
                             search_backend, mapper, simulator, start):
        """The execution leg of :meth:`_execute_search`, run while holding
        the stateful backend's serialization lock (a no-op context for
        analytical requests)."""
        from repro.scenarios.record import (
            model_cost_layers,
            model_cost_totals,
            search_stats_payload,
        )
        from repro.search.engine import _search_model_impl

        from repro.layoutloop.cosearch import unique_workloads

        workloads, arch = resolved.workloads, resolved.arch
        crossval_payload = None
        cost = None
        if (self._offload_enabled and mapper is not None
                and search_backend == "analytical"
                and not request.frontier and not request.fused
                and not all(mapper.has_result(wl)
                            for wl, _ in unique_workloads(workloads))):
            # Cold search on a threaded session: run it whole in a worker
            # process so this submitting thread blocks GIL-free and the
            # other handler threads keep the cores busy.  The worker runs
            # the exact fresh serial path (same engine, same seed), so the
            # result — counters included — is bit-identical to inline
            # execution on a cold session.
            cost = self._offload(request, resolved)
            if cost is not None:
                for (workload, _), choice in zip(unique_workloads(workloads),
                                                 cost.layer_choices):
                    mapper.adopt_result(workload, choice.result)
        if cost is None:
            pool = self._executor_for(workers)
            try:
                cost = _search_model_impl(
                    arch, workloads, request.config, model_name=request.model,
                    workers=workers,
                    cache=None if request.fresh_cache else self.cache,
                    backend=search_backend, executor=pool, mapper=mapper)
            finally:
                self._release_executor(pool)
        arch_label = (request.arch if isinstance(request.arch, str)
                      else cost.arch)
        if crossval:
            from repro.backends.crossval import cross_validate_model

            # The analytical co-search above ran with this session's
            # caches/pool; the simulator leg reuses the session's memoized
            # backend instance, seeded with the search's seed.
            crossval_payload = cross_validate_model(
                cost, workloads, simulator, arch_label).as_dict()
        elapsed = time.perf_counter() - start
        stats = cost.search_stats
        frontiers_payload = (
            [frontier.to_dict() for frontier in cost.frontiers]
            if request.frontier and cost.frontiers is not None else None)
        fused_payload = (
            [pair.to_dict() for pair in cost.fused_pairs]
            if request.fused and cost.fused_pairs is not None else None)
        return SearchResponse(
            model=request.model, arch=arch_label, backend=request.backend,
            key=key, totals=model_cost_totals(cost),
            layers=[asdict(layer) for layer in model_cost_layers(cost)],
            search=search_stats_payload(stats), crossval=crossval_payload,
            frontiers=frontiers_payload, fused=fused_payload,
            workers=stats.workers, elapsed_s=elapsed, cost=cost)

    def _execute_sweep(self, request: SweepRequest, resolved: _Resolved,
                       key: str) -> SweepResponse:
        from repro.scenarios.runner import run_matrix
        from repro.scenarios.spec import ScenarioMatrix

        matrix = ScenarioMatrix(name="request", scenarios=resolved.cells)
        start = time.perf_counter()
        run = run_matrix(matrix, workers=request.workers,
                         runs_dir=self.runs_dir,
                         force=request.force, backend=request.backend,
                         skip_incompatible=request.skip_incompatible,
                         session=self)
        elapsed = time.perf_counter() - start
        return SweepResponse(
            records=[r.record.to_dict() for r in run.results],
            cached=[r.cached for r in run.results],
            skipped=[{"scenario": s.name, "reason": reason}
                     for s, reason in run.skipped],
            key=key, elapsed_s=elapsed, results=run)

    # ------------------------------------------------------------ inspection
    def describe(self) -> Dict[str, object]:
        """Health/inspection payload (what ``/v1/healthz`` reports)."""
        from repro.backends import backend_names
        from repro.kernel.compiled import _compile

        compiled = _compile.cache_info()
        return {
            "name": self.name,
            "version": repro.__version__,
            "schema_version": API_SCHEMA_VERSION,
            "uptime_s": time.time() - self.created_at,
            "requests": self.stats.requests,
            "executed": self.stats.executed,
            "coalesced": self.stats.coalesced,
            "store_hits": self.stats.store_hits,
            "inflight": len(self._inflight),
            "threads": self.threads,
            "offload": self._offload_enabled,
            "store": (self.store.describe()
                      if self.store is not None else None),
            "evaluation_cache_entries": len(self.cache),
            "evaluation_cache_hits": self.cache.stats.hits,
            "evaluation_cache_misses": self.cache.stats.misses,
            "compiled_layout_cache_entries": compiled.currsize,
            "backend_instances": len(self._backends),
            "backends": backend_names(),
            "workers_default": self.resolve_workers(),
            "pool_size": self._pool_size,
        }


# ------------------------------------------------------------ default session
_DEFAULT_LOCK = threading.Lock()
_DEFAULT: Optional[Session] = None


def default_session() -> Session:
    """The lazily-created module-default session.

    This is the scenario runner's default session and the one behind
    ``python -m repro.serve``; sharing it is what turns N independent call
    sites into one warm cache and one pool.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = Session(name="default")
        return _DEFAULT


def reset_default_session() -> Session:
    """Replace the module-default session with a fresh one (tests)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        old, _DEFAULT = _DEFAULT, Session(name="default")
    if old is not None:
        old.close()
    return _DEFAULT
