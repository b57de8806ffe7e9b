"""Tests of the benchmark's own machinery.

Run with ``python -m pytest bench -q`` from the repository root.  None of
them needs the package: they pin the order statistics, the self-time
arithmetic, the rate search and the open-loop timing the metrics rest on.
"""

import random
import time

import pytest

import loadgen
import summary
import tracer
from tracer import Span


# --------------------------------------------------------------------- tail
def test_tail_is_largest_value_with_ten_samples_beyond_it():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    tail = summary.tail(values)
    assert tail["value"] == 90
    assert sum(v > tail["value"] for v in values) == 10
    assert tail == {"value": 90, "percentile": 90.0, "n": 100}


def test_tail_with_exactly_eleven_samples_is_the_minimum():
    values = [7.0, 1.0, 9.0, 3.0, 5.0, 11.0, 2.0, 8.0, 4.0, 10.0, 6.0]
    assert summary.tail(values)["value"] == 1.0


def test_tail_of_ten_or_fewer_samples_falls_back_to_the_maximum():
    assert summary.tail([3.0, 1.0, 2.0]) == {"value": 3.0,
                                             "percentile": 100.0, "n": 3}


# ---------------------------------------------------------------- self time
def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span("parent", 0, 100, 1, None, "r", None),
        Span("a", 10, 40, 2, 1, "r", None),
        Span("b", 30, 60, 3, 1, "r", None),     # overlaps a
        Span("c", 90, 130, 4, 1, "r", None),    # outlives the parent
        Span("d", 15, 20, 5, 2, "r", None),     # grandchild, inside a
        Span("e", 50, 55, 6, 1, "r", None),     # inside b's interval
    ]
    own = tracer.self_times(spans)
    # Children cover [10, 60] and [90, 100] of the parent: 60 ns.
    assert own[1] == 100 - 60
    assert own[2] == 30 - 5
    assert own[3] == 30
    assert own[4] == 40
    assert own[5] == 5
    assert own[6] == 5


def test_summary_shares_add_up_to_coverage():
    spans = [Span("api.run", 0, 80, 1, None, "r0", None),
             Span("mapper.search", 10, 50, 2, 1, "r0",
                  {"mapper.evaluated": 3}),
             Span("api.run", 90, 100, 3, None, "r1", None)]
    result = tracer.summarize(spans, wall_ns=100)
    assert result["coverage"] == pytest.approx(0.9)
    assert sum(layer["share_pct"] for layer in result["layers"].values()) \
        == pytest.approx(90.0)
    assert result["layers"]["api.run"]["calls"] == 2
    assert result["counts"] == {"mapper.evaluated": 3}


def test_link_remote_attaches_server_roots_to_the_client_span():
    client = [Span("serve.transport", 0, 100, 1, None, "f-0", None)]
    server = [Span("serve.handler", 10, 90, 1, None, "f-0", None),
              Span("api.execute", 20, 80, 2, 1, "f-0", None)]
    merged = tracer.link_remote(client, server)
    own = tracer.self_times(merged)
    assert own[-1] == 20          # transport: outside the handler only
    assert own[1] == 20           # handler: outside api.execute
    assert sum(own.values()) == 100


# -------------------------------------------------------------- rate search
def queue_latencies_ms(rate, n, service_s, servers):
    """A fake server of known capacity ``servers / service_s``: request i
    arrives at ``i / rate`` and takes ``service_s`` on the first free one
    of ``servers`` identical servers."""
    free = [0.0] * servers
    out = []
    for i in range(n):
        due = i / rate
        k = min(range(servers), key=free.__getitem__)
        free[k] = max(due, free[k]) + service_s
        out.append((free[k] - due) * 1e3)
    return out


@pytest.mark.parametrize("capacity", [37.0, 200.0, 900.0])
def test_rate_search_converges_within_five_percent_of_capacity(capacity):
    servers = 2
    service_s = servers / capacity
    found, steps = loadgen.rate_search(
        lambda rate: (queue_latencies_ms(rate, 120, service_s, servers), 0),
        start=20.0, limit_ms=2 * service_s * 1e3, bisections=4)
    assert abs(found - capacity) / capacity <= 0.05
    assert all(step["passed"] == (step["rate"] <= found)
               for step in steps)


def test_knee_interpolates_inside_the_measured_bracket():
    steps = [{"rate": 20.0, "passed": True, "errors": 0, "tail_ms": 10.0},
             {"rate": 40.0, "passed": True, "errors": 0, "tail_ms": 60.0},
             {"rate": 80.0, "passed": False, "errors": 0, "tail_ms": 900.0},
             {"rate": 56.6, "passed": False, "errors": 0, "tail_ms": 140.0},
             {"rate": 35.0, "passed": False, "errors": 2, "tail_ms": 5.0}]
    rate = loadgen.knee(steps, limit_ms=100.0)
    assert 40.0 < rate < 56.6
    assert rate == pytest.approx(40.0 * (56.6 / 40.0) ** 0.5)
    assert loadgen.knee(steps[:2], 100.0) == 40.0
    assert loadgen.knee(steps[4:], 100.0) == 0.0


def test_rate_search_fails_a_step_with_errors():
    found, steps = loadgen.rate_search(lambda rate: ([1.0] * 120, 1),
                                       start=20.0, limit_ms=100.0,
                                       bisections=4, max_doublings=3)
    assert found == 0.0
    assert not any(step["passed"] for step in steps)


# -------------------------------------------------------------- open loop
class StallingClient:
    """Answers in 1 ms, except request ``r0``, which stalls 200 ms."""

    def post(self, kind, body, rid):
        time.sleep(0.2 if rid == "r0" else 0.001)
        return 200, b"{}"


def test_open_loop_latency_counts_from_the_due_time():
    requests = [("eval", b"{}", f"r{i}") for i in range(10)]
    samples = loadgen.run_open_loop([StallingClient()], requests, rate=100.0)
    t0 = samples[0].due
    for i, sample in enumerate(samples):
        assert sample.due == pytest.approx(t0 + i / 100.0)
        assert sample.sent >= sample.due
    for sample in samples[1:]:
        # Each request was due while r0 stalled the only sender: its
        # latency includes the wait, not just its own 1 ms of service.
        assert sample.sent - sample.due > 0.2 - (sample.due - t0) - 0.005
        assert sample.latency_ms >= (sample.sent - sample.due) * 1e3
        assert sample.done - sample.sent < 0.05


def test_open_loop_keeps_the_schedule_with_a_free_sender():
    requests = [("eval", b"{}", f"r{i}") for i in range(10)]
    samples = loadgen.run_open_loop([StallingClient(), StallingClient()],
                                    requests, rate=100.0)
    late = [s.sent - s.due for s in samples[1:]]
    assert max(late) < 0.05


# ----------------------------------------------------------------- verdicts
def test_verdict_needs_nine_of_ten_wins_and_a_gap_over_the_iqr():
    parent = [100.0 + i for i in range(10)]
    assert summary.verdict(parent, [v - 20 for v in parent], "lower",
                           0.1) == "gain"
    assert summary.verdict(parent, [v + 1 for v in parent], "lower",
                           0.1) == "within bound"
    assert summary.verdict(parent, [v + 30 for v in parent], "lower",
                           0.1) == "worse"
    noisy = [50.0, 150.0] * 5
    assert summary.verdict(noisy, noisy, "higher", 0.1) == "unresolved"
