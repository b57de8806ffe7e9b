"""Order statistics and the parent-vs-change verdict rule.

Timings are reported as a median and a *tail*: the largest value with at
least ten samples beyond it, with its percentile and the sample count, so
a tail never rests on fewer than ten observations.  ``verdict`` applies
the comparison rule of ``README.md`` ("Comparing two commits").
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: Samples a tail value must have beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The largest value with at least ``TAIL_BEYOND`` samples above it.

    Returns ``{"value", "percentile", "n"}``.  With ``TAIL_BEYOND`` or
    fewer samples no value qualifies; the maximum is returned with
    percentile 100 (only reduced smoke runs get there).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= TAIL_BEYOND:
        return {"value": ordered[-1], "percentile": 100.0, "n": n}
    index = n - 1 - TAIL_BEYOND
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / n,
            "n": n}


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float],
            pairs: Optional[Sequence[tuple]] = None) -> str:
    """Classify a change against its parent on one (workload, metric).

    * ``gain``: the change wins at least 9/10 of the (parent, change)
      pairs (ties count for neither) and the medians differ by more than
      the parent's interquartile range;
    * ``unresolved``: the run-to-run spread (IQR over median, either side)
      is wider than the bound, unless every change run beats every parent
      run (``better``);
    * ``worse``: the change's median is worse by more than the bound;
    * ``within bound`` otherwise.  Metrics without a bound only get
      ``gain`` or ``no claim``.
    """
    pairs = list(pairs) if pairs is not None else list(zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(_better(c, p, better) for p, c in pairs)
    gain = (p_med - c_med) if better == "lower" else (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "gain"
    if bound is None:
        return "no claim"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if spread > bound:
        if all(_better(c, p, better) for p in parent for c in change):
            return "better"
        return "unresolved"
    worse_by = -gain / abs(p_med) if p_med else 0.0
    return "worse" if worse_by > bound else "within bound"
