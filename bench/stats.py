"""Window arithmetic: a timing metric is the median over windows of a
per-window statistic, with the spread between windows stored beside it."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (0.0 for
    fewer than two values or a zero median)."""
    if len(values) < 2:
        return 0.0
    low, _middle, high = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return (high - low) / center if center else 0.0


def over_windows(per_window: Iterable[float]) -> Dict[str, object]:
    """``{"value": median, "spread": ..., "per_window": [...]}`` of one
    per-window statistic."""
    values: List[float] = list(per_window)
    return {"value": statistics.median(values), "spread": spread(values),
            "per_window": values}
