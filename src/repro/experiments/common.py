"""Shared helpers for the experiment modules: plain-text tables and
geomeans.

Every experiment co-search is a :class:`~repro.api.SearchRequest` on a
:class:`~repro.api.Session`: Fig. 13 and Fig. 10 run their scenario cells
(:mod:`repro.scenarios.ports`) through :mod:`repro.scenarios`, Fig. 2
submits per-layer requests to a session of its own.
``workers=None`` honours the ``REPRO_SEARCH_WORKERS`` environment variable.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


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
