"""Summary statistics shared by the benchmark runner and its tests."""

from __future__ import annotations

import statistics

# A percentile is reported only when at least this many samples lie above it.
MIN_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) of a non-empty sample, as statistics.quantiles gives them."""

    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct: int):
    """The pct-th percentile and the number of samples above it, or None.

    None means fewer than MIN_BEYOND samples lie above the percentile, so
    the sample cannot support it.
    """

    values = list(values)
    if len(values) < 2:
        return None
    value = statistics.quantiles(values, n=100)[pct - 1]
    beyond = sum(1 for v in values if v > value)
    if beyond < MIN_BEYOND:
        return None
    return value, beyond


def spread(values) -> float:
    """Interquartile distance as a share of the median."""

    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
