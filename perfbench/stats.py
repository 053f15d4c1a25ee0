"""Order statistics used by the benchmark's metrics."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

TAIL_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """(value, percentile) at the highest percentile with at least `beyond`
    samples above its rank, or None when that percentile would be below
    the median (fewer than 2 * beyond samples).

    With n samples that percentile is 100 * (n - beyond) / n, whose nearest
    rank is n - beyond; the rank is computed exactly, not from the float.
    """
    n = len(values)
    if n < 2 * beyond:
        return None
    return sorted(values)[n - beyond - 1], 100.0 * (n - beyond) / n


def pass_median(latencies: Sequence[float], passes: int) -> float:
    """Median over passes of each pass's nearest-rank median latency.

    Every pass runs the same op list, so a pass's median falls on the same
    op each time; taking the median across passes keeps one noisy sample of
    that op from setting the figure, as the pooled median can when it falls
    between two ops of different cost.
    """
    per_pass = len(latencies) // passes
    return median([
        nearest_rank(latencies[i * per_pass:(i + 1) * per_pass], 50) for i in range(passes)
    ])


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
