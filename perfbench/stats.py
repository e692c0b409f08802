"""Order statistics used by every workload: medians, percentiles, spread."""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Sequence

#: Percentiles the summary may report, highest first.
CANDIDATE_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is only reported when at least this many samples lie
#: beyond it, so a single outlier cannot be the tail value.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank percentile."""
    return n - max(1, math.ceil(percentile / 100.0 * n))


@dataclasses.dataclass(frozen=True)
class PercentileSummary:
    """Median, the highest supported tail percentile, and the sample count."""

    median: float
    percentile: float
    value: float
    count: int


def summarize(samples: Sequence[float]) -> PercentileSummary:
    """Median plus the highest percentile with enough samples beyond it.

    The tail percentile is the highest of :data:`CANDIDATE_PERCENTILES`
    with at least :data:`MIN_SAMPLES_BEYOND` samples ranked above it;
    with too few samples for any of them it falls back to the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    chosen = 50.0
    for percentile in CANDIDATE_PERCENTILES:
        if samples_beyond(n, percentile) >= MIN_SAMPLES_BEYOND:
            chosen = percentile
            break
    return PercentileSummary(median=statistics.median(ordered),
                             percentile=chosen,
                             value=nearest_rank(ordered, chosen), count=n)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (``statistics.quantiles``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
