"""Shared helpers for the experiment modules: the co-search front, plain-text
tables and geomeans.

All experiment co-searches run on the :mod:`repro.search` engine —
multi-architecture sweeps (fig13, tables) through :func:`model_costs`, the
batch front over :func:`repro.search.engine.search_models`; per-layer
experiments (fig2, fig10) through a
:class:`~repro.search.engine.SearchEngine` they construct directly.
``workers=None`` (the default here) honours the ``REPRO_SEARCH_WORKERS``
environment variable, letting a user parallelise the batch sweeps without
touching call sites.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence


def model_costs(arches: Sequence, workloads: Sequence, model_name: str = "model",
                metric: str = "edp", max_mappings: int = 50,
                workers: Optional[int] = None, seed: int = 0,
                backend: str = "analytical") -> Dict[str, object]:
    """Co-search ``workloads`` on every architecture via the shared façade.

    .. deprecated:: 1.1
        A thin shim over :mod:`repro.api`: one
        :class:`~repro.api.SearchRequest` per architecture, run on the
        module-default :class:`~repro.api.Session` (bit-identical to the
        legacy engine path, pinned by the experiment-equality tests).

    Returns ``{arch name: ModelCost}`` like
    :func:`repro.layoutloop.cosearch.compare_architectures`; each
    ``ModelCost`` carries its engine statistics in ``search_stats``.

    ``workers=None`` (the default) follows the session's resolution —
    explicit argument > ``REPRO_SEARCH_WORKERS`` > serial — and
    ``max_mappings=50`` matches the figure reproductions.  ``seed`` feeds
    the pruned-random mapping sampler and is forwarded unchanged so a
    recorded run can be reproduced exactly.  ``backend`` selects the
    :mod:`repro.backends` evaluation backend (the figures run the default
    analytical model; the simulator is for micro-scale cells only).
    """
    from repro.api import SearchRequest, default_session
    from repro.api.codec import arch_payload, workload_payload

    session = default_session()
    payloads = tuple(workload_payload(wl) for wl in workloads)
    costs = {}
    for arch in arches:
        response = session.run(SearchRequest(
            workloads=payloads, arch=arch_payload(arch), model=model_name,
            metric=metric, max_mappings=max_mappings, seed=seed,
            backend=backend, workers=workers, fresh_cache=True))
        costs[arch.name] = response.cost
    return costs


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of the positive entries of ``values``."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = None,
                 float_fmt: str = "{:.3f}") -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return "(empty)"
    columns = list(columns or rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        line = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                line.append(float_fmt.format(value))
            else:
                line.append(str(value))
        rendered.append(line)
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    lines = []
    for idx, r in enumerate(rendered):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    return "\n".join(lines)


def normalize(values: Dict[str, float], reference_key: str) -> Dict[str, float]:
    """Normalize every entry by the reference entry (reference becomes 1.0)."""
    ref = values.get(reference_key)
    if not ref:
        return dict(values)
    return {k: v / ref for k, v in values.items()}
