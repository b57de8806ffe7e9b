"""The ``repro.api`` façade: requests, responses, Session, dedup.

Three pillars:

* **JSON round trips** — hypothesis property tests build randomized
  requests (registry and inline forms) and assert
  ``from_json(to_json(r)) == r``; ditto responses.
* **In-flight dedup** — two identical ``submit()`` calls while the first
  is still running share one future, one execution, one response object.
* **Session semantics** — worker resolution precedence, cross-request
  cache reuse, error mapping, content-key invariance across request
  spelling.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    API_SCHEMA_VERSION,
    EvalRequest,
    EvalResponse,
    InvalidRequestError,
    SearchRequest,
    SearchResponse,
    Session,
    SweepRequest,
    SweepResponse,
    UnknownBackendError,
    content_key,
    request_from_dict,
)
from repro.api.codec import (
    arch_from_payload,
    arch_payload,
    mapping_from_payload,
    mapping_payload,
    workload_from_payload,
    workload_payload,
)
from repro.dataflow.mapping import output_stationary_mapping
from repro.layout.layout import parse_layout
from repro.scenarios import golden_matrix, resolve_arch, resolve_workload_set
from repro.search.signatures import (
    arch_signature,
    mapping_signature,
    workload_signature,
)
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec


# --------------------------------------------------------------- strategies
_names = st.text(st.characters(min_codepoint=97, max_codepoint=122),
                 min_size=1, max_size=12)

_conv_payloads = st.builds(
    lambda name, m, c, h, w, r: workload_payload(
        ConvLayerSpec(name=name, m=m, c=c, h=h, w=w, r=r, s=r)),
    _names, st.integers(1, 64), st.integers(1, 64), st.integers(3, 32),
    st.integers(3, 32), st.integers(1, 3))

_gemm_payloads = st.builds(
    lambda name, m, k, n: workload_payload(GemmSpec(name, m, k, n)),
    _names, st.integers(1, 128), st.integers(1, 128), st.integers(1, 128))

_workload_payloads = st.one_of(_conv_payloads, _gemm_payloads)

_search_requests = st.builds(
    SearchRequest,
    workloads=st.one_of(
        st.sampled_from(["resnet50[:2]", "fig10_gemms", "micro_gemms"]),
        st.lists(_workload_payloads, min_size=1, max_size=3).map(tuple)),
    arch=st.sampled_from(["FEATHER", "FEATHER-4x4", "Eyeriss-like"]),
    model=_names,
    metric=st.sampled_from(["edp", "latency", "energy"]),
    max_mappings=st.integers(1, 200),
    seed=st.integers(0, 2**31),
    backend=st.sampled_from(["analytical", "simulator", "crossval"]),
    workers=st.one_of(st.none(), st.integers(1, 8)),
    fresh_cache=st.booleans())

_eval_requests = st.builds(
    EvalRequest,
    workload=st.one_of(st.sampled_from(["fig10_gemms#0", "resnet50[:4]#2"]),
                       _workload_payloads),
    arch=st.sampled_from(["FEATHER", "FEATHER-4x4"]),
    layout=st.sampled_from(["HWC_C32", "MK_K32", "HWC_C4W8"]),
    mapping=st.just("output_stationary"),
    backend=st.sampled_from(["analytical", "simulator"]),
    seed=st.integers(0, 2**31))

_sweep_requests = st.builds(
    SweepRequest,
    filter=st.one_of(st.none(), st.sampled_from(["smoke", "golden", "sim"])),
    backend=st.one_of(st.none(), st.just("analytical")),
    skip_incompatible=st.booleans(),
    force=st.booleans(),
    workers=st.one_of(st.none(), st.integers(1, 4)))


class TestRequestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(request=_search_requests)
    def test_search_request_json_round_trip(self, request):
        assert SearchRequest.from_json(request.to_json()) == request

    @settings(max_examples=50, deadline=None)
    @given(request=_eval_requests)
    def test_eval_request_json_round_trip(self, request):
        assert EvalRequest.from_json(request.to_json()) == request

    @settings(max_examples=50, deadline=None)
    @given(request=_sweep_requests)
    def test_sweep_request_json_round_trip(self, request):
        assert SweepRequest.from_json(request.to_json()) == request

    @settings(max_examples=30, deadline=None)
    @given(payload=_workload_payloads)
    def test_workload_payload_round_trip_preserves_signature(self, payload):
        workload = workload_from_payload(payload)
        again = workload_from_payload(workload_payload(workload))
        assert workload_signature(again) == workload_signature(workload)
        assert again == workload

    def test_arch_payload_round_trip_preserves_signature(self):
        for name in ("FEATHER", "Eyeriss-like", "SIGMA-like (HWC_C32)",
                     "TPU-like", "FEATHER-4x4"):
            arch = resolve_arch(name)
            again = arch_from_payload(arch_payload(arch))
            assert again == arch
            assert arch_signature(again) == arch_signature(arch)

    def test_mapping_payload_round_trip_preserves_signature(self):
        layer = resolve_workload_set("resnet50[:1]")[0]
        mapping = output_stationary_mapping(layer, 16, 16)
        again = mapping_from_payload(mapping_payload(mapping))
        assert mapping_signature(again) == mapping_signature(mapping)
        assert again.name == mapping.name

    def test_request_from_dict_dispatch_and_unknown_kind(self):
        data = {"workloads": "resnet50[:2]", "arch": "FEATHER"}
        assert isinstance(request_from_dict("search", data), SearchRequest)
        with pytest.raises(InvalidRequestError, match="unknown request kind"):
            request_from_dict("explode", data)

    def test_unknown_field_and_bad_schema_version_rejected(self):
        with pytest.raises(InvalidRequestError, match="does not accept"):
            SearchRequest.from_dict({"workloads": "resnet50[:2]",
                                     "arch": "FEATHER", "turbo": True})
        with pytest.raises(InvalidRequestError, match="schema_version"):
            SearchRequest(workloads="resnet50[:2]", arch="FEATHER",
                          schema_version=99)

    @pytest.mark.parametrize("field", ["vectorize", "bulk", "compile",
                                       "prune"])
    def test_v6_rejects_removed_switches(self, field):
        with pytest.raises(InvalidRequestError, match=field) as excinfo:
            request_from_dict("search", {"workloads": "resnet50[:2]",
                                         "arch": "FEATHER", field: True,
                                         "schema_version": API_SCHEMA_VERSION})
        assert excinfo.value.payload()["code"] == "invalid_request"

    def test_response_round_trips(self):
        with Session(name="t") as session:
            search = session.run(SearchRequest(
                workloads="fig10_gemms", arch="FEATHER-4x4",
                metric="latency", max_mappings=4))
            assert (SearchResponse.from_json(search.to_json()) == search)
            evald = session.run(EvalRequest(
                workload="fig10_gemms#0", arch="FEATHER-4x4",
                layout="MK_K32"))
            assert EvalResponse.from_json(evald.to_json()) == evald
            sweep = session.run(SweepRequest(filter="smoke-fig10"))
            assert SweepResponse.from_json(sweep.to_json()) == sweep


class TestContentKeys:
    def test_key_invariant_across_request_spelling(self):
        """Registry form and inline form of the same cell share a key."""
        by_name = SearchRequest(workloads="fig10_gemms", arch="FEATHER-4x4",
                                model="m", metric="latency", max_mappings=6)
        inline = SearchRequest(
            workloads=tuple(workload_payload(w)
                            for w in resolve_workload_set("fig10_gemms")),
            arch=arch_payload(resolve_arch("FEATHER-4x4")),
            model="m", metric="latency", max_mappings=6)
        assert content_key(by_name) == content_key(inline)

    def test_key_ignores_result_neutral_knobs(self):
        base = SearchRequest(workloads="resnet50[:2]", arch="FEATHER")
        variants = [
            SearchRequest(workloads="resnet50[:2]", arch="FEATHER",
                          workers=4),
            SearchRequest(workloads="resnet50[:2]", arch="FEATHER",
                          fresh_cache=True),
        ]
        for variant in variants:
            assert content_key(variant) == content_key(base)

    def test_key_changes_with_config(self):
        base = SearchRequest(workloads="resnet50[:2]", arch="FEATHER")
        changed = [
            SearchRequest(workloads="resnet50[:2]", arch="FEATHER", seed=1),
            SearchRequest(workloads="resnet50[:2]", arch="FEATHER",
                          metric="latency"),
            SearchRequest(workloads="resnet50[:3]", arch="FEATHER"),
            SearchRequest(workloads="resnet50[:2]", arch="Eyeriss-like"),
        ]
        for variant in changed:
            assert content_key(variant) != content_key(base)

    def test_unresolvable_request_raises_invalid_request(self):
        with pytest.raises(InvalidRequestError, match="unknown workload set"):
            content_key(SearchRequest(workloads="not-a-set", arch="FEATHER"))


# The pinned golden cells: every cell as (workload_set, arch, config,
# backend).
GOLDEN_CELLS = list(golden_matrix())


class TestSessionSemantics:
    def test_cross_request_cache_reuse(self):
        with Session(name="reuse") as session:
            # Eyeriss-like scores through the memo; FEATHER's exhaustive
            # scan prices without it and stores nothing.
            first = session.run(SearchRequest(workloads="resnet50[:2]",
                                              arch="Eyeriss-like",
                                              max_mappings=8))
            assert first.search["cache_misses"] > 0
            entries = session.describe()["evaluation_cache_entries"]
            assert entries > 0
            # A *different* request touching the same shapes reuses the
            # session cache (different model label -> different content
            # key -> real re-execution, served from cache).
            second = session.run(SearchRequest(workloads="resnet50[:2]",
                                               arch="Eyeriss-like",
                                               model="other",
                                               max_mappings=8))
            assert second.search["cache_misses"] == 0
            assert second.totals == first.totals

    def test_fresh_cache_requests_keep_counters_deterministic(self):
        with Session(name="fresh") as session:
            runs = [session.run(SearchRequest(
                        workloads="resnet50[:2]", arch="FEATHER",
                        model=f"m{i}", max_mappings=8, fresh_cache=True))
                    for i in range(2)]
        assert runs[0].search == runs[1].search
        assert runs[0].search["cache_misses"] > 0
        assert runs[0].totals == runs[1].totals

    def test_worker_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEARCH_WORKERS", raising=False)
        session = Session(name="w")
        assert session.resolve_workers() == 1
        assert session.resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_SEARCH_WORKERS", "5")
        assert session.resolve_workers() == 5
        assert session.resolve_workers(2) == 2
        configured = Session(name="w2", workers=7)
        assert configured.resolve_workers() == 7
        assert configured.resolve_workers(2) == 2
        session.close()
        configured.close()

    def test_unknown_backend_raises_stable_code(self):
        with Session(name="err") as session:
            with pytest.raises(UnknownBackendError) as excinfo:
                session.run(SearchRequest(workloads="micro_gemms",
                                          arch="FEATHER-4x4",
                                          backend="bogus"))
        assert excinfo.value.code == "unknown_backend"
        assert excinfo.value.payload()["code"] == "unknown_backend"

    def test_eval_request_matches_backend_directly(self):
        from repro.backends import create_backend

        workload = resolve_workload_set("fig10_gemms")[0]
        arch = resolve_arch("FEATHER-4x4")
        mapping = output_stationary_mapping(workload, arch.pe_rows,
                                            arch.pe_cols)
        direct, = create_backend("analytical", arch).evaluate(
            workload, mapping, [parse_layout("MK_K32")])
        with Session(name="eval") as session:
            response = session.run(EvalRequest(
                workload="fig10_gemms#0", arch="FEATHER-4x4",
                layout="MK_K32"))
        assert response.backend_report == direct
        assert response.report["total_cycles"] == direct.total_cycles
        assert response.report["edp"] == direct.edp

    def test_analytical_backend_is_one_instance_per_arch(self):
        """The analytical backend ignores its seed, so evals under fifty
        seeds share one instance; the simulator's seed generates its
        tensors, so two seeds keep two instances."""
        with Session(name="instances") as session:
            for seed in range(50):
                session.run(EvalRequest(
                    workload="fig10_gemms#0", arch="FEATHER-4x4",
                    layout="MK_K32", seed=seed))
            assert session.describe()["backend_instances"] == 1
            for seed in range(2):
                session.run(EvalRequest(
                    workload="micro_gemms#0", arch="FEATHER-4x4",
                    layout="MK_K4", backend="simulator", seed=seed))
            assert session.describe()["backend_instances"] == 3

    def test_sweep_request_matches_run_cell(self, tmp_path):
        from repro.scenarios import run_cell

        cell = next(s for s in GOLDEN_CELLS
                    if s.name == "golden-crossval-micro-gemms")
        direct = run_cell(cell).record
        with Session(name="sweep", runs_dir=tmp_path) as session:
            response = session.run(SweepRequest(filter=cell.name))
        assert len(response.records) == 1
        assert response.cached == [False]
        assert (response.records[0]["totals"] == direct.totals)
        assert (response.records[0]["crossval"] == direct.crossval)
        # The artifact landed in the session's runs_dir and a re-run is a
        # cache hit.
        with Session(name="sweep2", runs_dir=tmp_path) as session:
            again = session.run(SweepRequest(filter=cell.name))
        assert again.cached == [True]


class TestInFlightDedup:
    def test_identical_submits_coalesce_to_one_execution(self):
        session = Session(name="dedup")
        try:
            release = threading.Event()
            started = threading.Event()

            # Saturate the session's (single claimed) worker thread so the
            # two real submissions below are both enqueued while the
            # blocker holds the pool: their in-flight window is guaranteed
            # open when the second submit lands.
            def _blocker():
                started.set()
                release.wait(timeout=30)

            pool = session._thread_pool()
            blockers = [pool.submit(_blocker)
                        for _ in range(pool._max_workers)]
            started.wait(timeout=30)

            request = SearchRequest(workloads="resnet50[:2]", arch="FEATHER",
                                    max_mappings=6)
            first = session.submit(request)
            second = session.submit(request)
            assert second is first, "identical in-flight submits must share"
            assert session.stats.coalesced == 1
            release.set()
            for blocker in blockers:
                blocker.result(timeout=30)
            response = first.result(timeout=120)
            assert second.result(timeout=1) is response
            assert session.stats.executed == 1
        finally:
            session.close()

    def test_run_joins_inflight_submit(self):
        session = Session(name="dedup2")
        try:
            request = SearchRequest(workloads="fig10_gemms",
                                    arch="FEATHER-4x4", metric="latency",
                                    max_mappings=4)
            future = session.submit(request)
            joined = session.run(request)  # joins or re-executes post-release
            assert joined.totals == future.result(timeout=120).totals
        finally:
            session.close()

    def test_fresh_and_shared_cache_requests_never_coalesce(self):
        """A fresh_cache request must not be served by a warm in-flight
        execution (its per-call counters would leak into records)."""
        session = Session(name="dedup4")
        try:
            release = threading.Event()
            started = threading.Event()
            pool = session._thread_pool()
            blockers = [pool.submit(lambda: (started.set(),
                                             release.wait(timeout=30)))
                        for _ in range(pool._max_workers)]
            started.wait(timeout=30)
            warm = session.submit(SearchRequest(workloads="resnet50[:2]",
                                                arch="FEATHER",
                                                max_mappings=6))
            fresh = session.submit(SearchRequest(workloads="resnet50[:2]",
                                                 arch="FEATHER",
                                                 max_mappings=6,
                                                 fresh_cache=True))
            assert fresh is not warm
            release.set()
            for blocker in blockers:
                blocker.result(timeout=30)
            assert (fresh.result(timeout=120).totals
                    == warm.result(timeout=120).totals)
            assert session.stats.executed == 2
        finally:
            session.close()

    def test_closed_session_rejects_new_requests(self):
        session = Session(name="closed")
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run(SearchRequest(workloads="resnet50[:2]",
                                      arch="FEATHER"))
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(SearchRequest(workloads="resnet50[:2]",
                                         arch="FEATHER"))

    def test_submit_delivers_errors_through_future(self):
        with Session(name="dedup3") as session:
            future = session.submit(SearchRequest(workloads="micro_gemms",
                                                  arch="FEATHER-4x4",
                                                  backend="bogus"))
            with pytest.raises(UnknownBackendError):
                future.result(timeout=60)
