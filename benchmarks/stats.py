"""Summary arithmetic shared by the benchmark worker and its self-test."""

from __future__ import annotations

import math
import statistics

# The tail percentile is reported only when at least this many samples lie
# beyond it, so it is not set by one or two stragglers.
MIN_TAIL_SAMPLES = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank rank of p."""
    return n - math.ceil(p / 100.0 * n)


def min_samples_for(p: float) -> int:
    """Smallest sample count that leaves MIN_TAIL_SAMPLES beyond percentile p."""
    n = 1
    while samples_beyond(n, p) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def median(values: list[float]) -> float:
    return statistics.median(values)


def at_reference_speed(latencies: list[float], references: list[float],
                       nominal: float, window: int) -> list[float]:
    """Scale each latency to a machine on which the reference loop takes
    ``nominal`` seconds.  ``references[i]`` is the loop's time just before
    job i; job i is scaled by the median of the ``window`` references
    around it (centred, or shifted to fit at the ends), so one noisy
    reference moves nothing."""
    if len(latencies) != len(references):
        raise ValueError("one reference time per latency is needed")
    n = len(references)
    out = []
    for i, latency in enumerate(latencies):
        lo = min(max(0, i - window // 2), max(0, n - window))
        local = references[lo: lo + window]
        out.append(latency * nominal / statistics.median(local))
    return out
