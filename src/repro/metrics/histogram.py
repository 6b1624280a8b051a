"""Latency histogram with exact percentiles.

Runs are bounded (minutes of simulated time), so we keep raw samples and
compute exact statistics rather than approximating with buckets.
"""

from __future__ import annotations

import math
from typing import List


def percentile(ordered: List[float], p: float) -> float:
    """Exact ``p``-th percentile (0-100) of ascending ``ordered``, 0.0 if empty.

    Linear interpolation between the two nearest ranks."""
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not ordered:
        return 0.0
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def summarize(samples: List[float]) -> dict:
    """``{count, mean, p50, p95, p99, max}`` of ``samples`` (seconds).

    The mean is summed in the list's order; the list is then sorted in
    place for the percentiles.
    """
    mean = sum(samples) / len(samples) if samples else 0.0
    samples.sort()
    return {
        "count": len(samples),
        "mean": mean,
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
        "max": samples[-1] if samples else 0.0,
    }


class LatencyHistogram:
    """Collects samples; answers mean/percentile/max queries."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        """Add one sample (seconds)."""
        self._samples.append(value)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return sum(self._samples) / len(self._samples) if self._samples else 0.0

    @property
    def maximum(self) -> float:
        """Largest sample (0.0 when empty)."""
        return max(self._samples, default=0.0)

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation; ``p`` in [0, 100]."""
        self._samples.sort()
        return percentile(self._samples, p)

    def summary(self) -> dict:
        """All headline statistics in one dict (times in seconds)."""
        return summarize(self._samples)
