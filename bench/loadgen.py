"""Open-loop HTTP load and the rate search of the serve-mix workload.

Open loop: request ``i`` of a step is due at ``t0 + i / rate`` whether or
not earlier ones have finished.  A fixed set of sender threads, each with
one persistent keep-alive connection, takes requests in order and sends
each at its due time, or at once when it is already late.  Latency is
measured from the due time, so a stall that holds up a sender also counts
against every request queued behind it, and ``sent - due`` records how
late the generator ran.
"""

from __future__ import annotations

import http.client
import itertools
import math
import threading
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import summary
from tracer import REQUEST_ID_HEADER


class Client:
    """One persistent HTTP/1.1 keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.connection = http.client.HTTPConnection(host, port,
                                                     timeout=timeout)

    def post(self, kind: str, body: bytes, rid: str) -> Tuple[int, bytes]:
        self.connection.request(
            "POST", f"/v1/{kind}", body=body,
            headers={"Content-Type": "application/json",
                     REQUEST_ID_HEADER: rid})
        response = self.connection.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> Tuple[int, bytes]:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


class Sample(NamedTuple):
    due: float
    sent: float
    done: float
    status: Optional[int]
    data: bytes
    error: Optional[str]

    @property
    def latency_ms(self) -> float:
        """Due time to response, in ms."""
        return (self.done - self.due) * 1e3


def run_open_loop(clients: Sequence, requests: Sequence[tuple],
                  rate: float) -> List[Sample]:
    """Send ``requests`` (``(kind, body, rid)``) at ``rate`` per second
    from one thread per client; returns one sample per request, in order.
    """
    samples: List[Optional[Sample]] = [None] * len(requests)
    cursor = itertools.count()
    t0 = time.perf_counter()

    def sender(client) -> None:
        while True:
            index = next(cursor)
            if index >= len(requests):
                return
            kind, body, rid = requests[index]
            due = t0 + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, data, error = None, b"", None
            try:
                status, data = client.post(kind, body, rid)
            except (OSError, http.client.HTTPException) as exc:
                error = f"{type(exc).__name__}: {exc}"
            samples[index] = Sample(due, sent, time.perf_counter(), status,
                                    data, error)

    threads = [threading.Thread(target=sender, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def rate_search(run_step: Callable[[float], Tuple[List[float], int]],
                start: float, limit_ms: float, bisections: int,
                first: Optional[Tuple[List[float], int]] = None,
                max_doublings: int = 10) -> Tuple[float, List[dict]]:
    """Highest rate whose step passes: tail latency ``<= limit_ms`` and no
    errored request.

    ``run_step(rate)`` runs one step and returns ``(latencies_ms,
    errors)``; ``first`` is an already measured step at ``start``.  The
    rate doubles while steps pass (halves while they fail), then
    ``bisections`` geometric bisection steps narrow the bracket.  Returns
    the highest passing rate (0.0 if none passed) and every step.
    """
    steps: List[dict] = []

    def passes(rate: float, measured=None) -> bool:
        latencies, errors = measured if measured is not None \
            else run_step(rate)
        step_tail = summary.tail(latencies)
        ok = errors == 0 and step_tail["value"] <= limit_ms
        steps.append({"rate": rate, "passed": ok, "errors": errors,
                      "tail_ms": step_tail["value"],
                      "tail_percentile": step_tail["percentile"],
                      "n": step_tail["n"]})
        return ok

    low, high = 0.0, None
    if passes(start, first):
        low = start
        for _ in range(max_doublings):
            if not passes(low * 2):
                high = low * 2
                break
            low *= 2
    else:
        high = start
        for _ in range(max_doublings):
            if passes(high / 2):
                low = high / 2
                break
            high /= 2
    if low == 0.0 or high is None:
        return low, steps
    for _ in range(bisections):
        middle = math.sqrt(low * high)
        if passes(middle):
            low = middle
        else:
            high = middle
    return low, steps


def knee(steps: List[dict], limit_ms: float) -> float:
    """The rate at which the tail latency crosses ``limit_ms``.

    Interpolated in log rate between the highest passing step and the
    lowest step above it that failed on latency alone, so the estimate
    lies inside the bracket the search measured instead of on its grid.
    The highest passing rate when there is no such step; 0.0 when no step
    passed.
    """
    passed = [s for s in steps if s["passed"]]
    if not passed:
        return 0.0
    low = max(passed, key=lambda s: s["rate"])
    above = [s for s in steps if not s["passed"] and not s["errors"]
             and s["rate"] > low["rate"]]
    if not above:
        return low["rate"]
    high = min(above, key=lambda s: s["rate"])
    fraction = (limit_ms - low["tail_ms"]) / (high["tail_ms"]
                                              - low["tail_ms"])
    return low["rate"] * (high["rate"] / low["rate"]) ** fraction
