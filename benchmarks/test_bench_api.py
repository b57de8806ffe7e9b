"""Benchmark: a warm :class:`Session` reuses its evaluation cache across
distinct requests over the same shapes.

A long-lived session keeps the evaluation cache and the per-configuration
mappers warm, so a *different* request touching the same (shape, arch,
mapping, layout) cells costs no new evaluations — with bit-identical
totals.
"""

from __future__ import annotations

import pytest

from repro.api import SearchRequest, Session

MAX_MAPPINGS = 24


@pytest.mark.benchmark(group="api")
def test_session_cache_reuse_across_distinct_requests(best_of):
    """A *different* request over the same shapes also gets the warm cache
    (the reuse is keyed on structure, not on request identity)."""
    with Session(name="bench-reuse") as session:
        first = session.run(SearchRequest(workloads="resnet50",
                                          arch="FEATHER",
                                          max_mappings=MAX_MAPPINGS))
        assert first.search["cache_misses"] > 0
        relabeled = session.run(SearchRequest(workloads="resnet50",
                                              arch="FEATHER",
                                              model="same-shapes-new-name",
                                              max_mappings=MAX_MAPPINGS))
    assert relabeled.search["cache_misses"] == 0
    assert relabeled.totals == first.totals
    print(f"\ncache reuse across distinct requests: zero evaluation-cache "
          f"misses on the relabeled request "
          f"({first.search['cache_misses']} misses on first contact)")
