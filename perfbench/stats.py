"""Exact order statistics for the benchmark's per-op timings.

Every latency the benchmark reports is computed here from the raw
per-op samples -- never from a bucketed histogram, whose linear
interpolation inside a bucket moves a percentile by the bucket's
width when the samples sit near an edge.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile", "median", "quartiles", "spread"]


def percentile(values, p: float) -> float:
    """The nearest-rank ``p``-th percentile (0 < p <= 100).

    The sample at 1-based rank ``ceil(p / 100 * n)`` of the sorted
    values: always one of the observed values, never an interpolation.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile p={p} not in (0, 100]")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def median(values) -> float:
    """The middle sample (mean of the two middle ones for even n)."""
    xs = list(values)
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (the exclusive method)."""
    xs = list(values)
    if len(xs) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread of samples whose median is 0")
    return (q3 - q1) / abs(q2)
