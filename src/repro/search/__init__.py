"""Parallel, cached (dataflow, layout) co-search engine.

This package is the performance substrate under every figure reproduction:

* :mod:`repro.search.config` — the one search configuration
  (:class:`SearchConfig`) and its metric/policy vocabulary,
* :mod:`repro.search.signatures` — canonical cache keys,
* :mod:`repro.search.cache` — memoized cost-model evaluations,
* :mod:`repro.search.bounds` — admissible pruning bounds,
* :mod:`repro.search.budget` — budgeted search policies (successive
  halving on the bounds, seeded evolutionary refinement),
* :mod:`repro.search.parallel` — process fan-out with serial fallback,
* :mod:`repro.search.engine` — the whole-model batch engine under
  :meth:`repro.api.Session.run` (its :class:`SearchStats` bookkeeping).

See ``docs/architecture.md`` for the full design (cache keying, pruning
soundness argument, worker model and the determinism guarantee).
"""

from repro.search.bounds import BoundStatics, bound_statics
from repro.search.cache import CacheStats, EvaluationCache
from repro.search.config import POLICIES
from repro.search.parallel import WORKERS_ENV_VAR, resolve_workers
from repro.search.signatures import (
    arch_signature,
    layout_signature,
    mapping_signature,
    workload_signature,
)

__all__ = [
    "BoundStatics",
    "bound_statics",
    "CacheStats",
    "EvaluationCache",
    "POLICIES",
    "WORKERS_ENV_VAR",
    "resolve_workers",
    "arch_signature",
    "layout_signature",
    "mapping_signature",
    "workload_signature",
    # Lazily imported (see __getattr__): the engine and the budget policies
    # import the layoutloop mapper, which itself imports the submodules
    # above.
    "SearchStats",
    "halving_search",
    "evolutionary_search",
]

_ENGINE_NAMES = ("SearchStats",)
_BUDGET_NAMES = ("halving_search", "evolutionary_search")


def __getattr__(name):
    # ``repro.layoutloop.mapper`` imports ``repro.search.bounds``/``cache``;
    # importing the engine (or the budget policies, which build on the
    # mapper) eagerly here would close an import cycle, so those surfaces
    # resolve lazily (PEP 562).
    if name in _ENGINE_NAMES:
        from repro.search import engine

        return getattr(engine, name)
    if name in _BUDGET_NAMES:
        from repro.search import budget

        return getattr(budget, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
