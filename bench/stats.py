"""Order statistics used by the benchmark report."""
from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99, 95, 90)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list, p: float):
    """(value, samples beyond it) of the p-th percentile by nearest rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100 * n))
    return sorted_values[rank - 1], n - rank


def tail(values: list):
    """(percentile, value, samples beyond) for the highest of p99, p95 and
    p90 that has at least MIN_BEYOND samples beyond it, or None when none
    qualifies."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    return None


def spread(values: list):
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf
