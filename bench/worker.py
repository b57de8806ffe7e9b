"""Worker process of the in-process workloads (fig13, exhaustive-feather,
constrained-sim).

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package.  It
runs iteration 0 untimed as the warm-up, printing ``READY <digest>`` as
soon as the first response arrives (the parent times set-up up to that
line; ``--probe`` exits there), then timed iterations 1..N with host
reference samples (``hostref.py``) before each and after the last, then
replays the first timed request to check that an identical request gives
an identical digest.  The last stdout line is a JSON summary of the raw
samples; ``run.py`` turns it into metrics.

``--spans PATH`` installs the tracer first and writes the timed window's
spans to ``PATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import hostref
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.SEARCH_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, required=True)
    parser.add_argument("--no-warmup", action="store_true",
                        help="skip iteration 0 (smoke runs)")
    parser.add_argument("--probe", action="store_true",
                        help="exit after the first response")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    from repro.api import Session
    from repro.errors import ReproError

    session = Session(workers=1, name="bench")
    failures = []

    def call(request, rid):
        scope = (recorder.request(rid) if recorder is not None
                 else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with scope:
                payload = session.run(request).to_dict()
        except ReproError as exc:
            failures.append(f"{rid}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, payload

    def digest(payload):
        return workloads.digest(payload) if payload is not None else None

    first = 1 if args.no_warmup else 0
    plans = {i: workloads.search_iteration(
        args.workload, workloads.iteration_seed(args.seed, i))
        for i in range(first, args.iterations + 1)}
    iteration_digests = {}
    samples = []
    iteration_walls = []
    references = []
    mape = []
    for index, requests in plans.items():
        if index == 1:
            stats_before = dict(vars(session.stats))
            if recorder is not None:
                recorder.spans.clear()
        if index > 0:
            references.append(hostref.sample())
        start = time.perf_counter()
        payloads = []
        for j, request in enumerate(requests):
            latency, payload = call(request, f"{index}.{j}")
            payloads.append(payload)
            if index == first and j == 0:
                print(f"READY {digest(payload)}", flush=True)
                if args.probe:
                    return 0
            if index > 0:
                samples.append({"iteration": index, "latency_s": latency,
                                "digest": digest(payload),
                                "pairs": (workloads.pairs_resolved(payload)
                                          if payload is not None else 0)})
        if index > 0:
            iteration_walls.append(time.perf_counter() - start)
            if args.workload == "fig13" and all(payloads):
                mape.append(workloads.fig13_mape(payloads))
        iteration_digests[index] = [digest(p) for p in payloads]
    references.append(hostref.sample())
    stats = {key: value - stats_before[key]
             for key, value in vars(session.stats).items()}
    timed_spans = list(recorder.spans) if recorder is not None else None

    # Repeat check: the first timed request again, in the same session.
    _, replay = call(plans[1][0], "replay")
    repeat_ok = replay is not None and digest(replay) == samples[0]["digest"]

    if recorder is not None:
        recorder.dump(args.spans, timed_spans)
    print(json.dumps({
        "samples": samples,
        "wall_s": sum(iteration_walls),
        "iteration_walls_s": iteration_walls,
        "reference_s": references,
        "first_digests": iteration_digests[first],
        "repeat_ok": repeat_ok,
        "attempted": sum(len(r) for r in plans.values()) + 1,
        "failures": failures,
        "session": stats,
        "fig13_mape": mape,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
