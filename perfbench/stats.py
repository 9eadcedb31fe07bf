"""Summary statistics used by the benchmark.

Latencies are summarized as the median and one tail percentile.  The tail
percentile is the highest one that still has at least ``TAIL_SAMPLES``
samples beyond it, so a run must collect enough samples before it may
report p90.
"""
from __future__ import annotations

import statistics

TAIL_SAMPLES = 10
TAIL_PERCENTILE = 90


def highest_supported_percentile(n: int) -> float:
    """Highest percentile p with at least TAIL_SAMPLES of n samples above it.

    n * (1 - p/100) >= TAIL_SAMPLES  <=>  p <= 100 * (1 - TAIL_SAMPLES / n).
    Returns 0.0 when n is too small to support any tail percentile.
    """
    if n <= TAIL_SAMPLES:
        return 0.0
    return 100.0 * (1.0 - TAIL_SAMPLES / n)


def min_samples_for(percentile: float) -> int:
    """Smallest sample count that supports the given percentile."""
    n = TAIL_SAMPLES + 1
    while highest_supported_percentile(n) < percentile:
        n += 1
    return n


def percentile(values, p: float) -> float:
    """The p-th percentile by linear interpolation between order statistics
    (the 'inclusive' method of statistics.quantiles)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def latency_summary(latencies_s) -> dict:
    """Median and p90 in milliseconds, with the sample count.

    Raises ValueError when there are too few samples for p90, instead of
    reporting a tail percentile the sample cannot support.
    """
    n = len(latencies_s)
    if highest_supported_percentile(n) < TAIL_PERCENTILE:
        raise ValueError(
            f"{n} samples cannot support p{TAIL_PERCENTILE}; "
            f"need at least {min_samples_for(TAIL_PERCENTILE)}"
        )
    return {
        "samples": n,
        "p50_ms": 1e3 * percentile(latencies_s, 50),
        "p90_ms": 1e3 * percentile(latencies_s, TAIL_PERCENTILE),
    }


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
