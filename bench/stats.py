"""Order statistics used by the benchmark.

Percentiles use the nearest-rank rule: the p-th percentile of n sorted
values is the value at rank ceil(p * n / 100), counting from 1.
"""

from __future__ import annotations

import math
import statistics

# a tail percentile is only reported when at least this many samples lie
# beyond it, so that it does not read the time of one or two samples
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(values, p):
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(n, beyond=TAIL_BEYOND):
    """The highest whole percentile p of n samples with >= beyond samples
    ranked above it, or None when no percentile of at least 50 has."""
    for p in range(99, 49, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= beyond:
            return p
    return None
