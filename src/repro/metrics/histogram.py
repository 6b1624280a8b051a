"""Latency histogram with exact percentiles.

Runs are bounded (minutes of simulated time), so we keep raw samples and
compute exact statistics rather than approximating with buckets.
"""

from __future__ import annotations

import math
from typing import List


class LatencyHistogram:
    """Collects samples; answers mean/percentile/max queries."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted = True

    def record(self, value: float) -> None:
        """Add one sample (seconds)."""
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    @property
    def maximum(self) -> float:
        """Largest sample (0.0 when empty)."""
        return max(self._samples) if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation; ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        self._ensure_sorted()
        if len(self._samples) == 1:
            return self._samples[0]
        rank = (p / 100.0) * (len(self._samples) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return self._samples[low]
        frac = rank - low
        return self._samples[low] * (1 - frac) + self._samples[high] * frac

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def summary(self) -> dict:
        """All headline statistics in one dict (times in seconds)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.maximum,
        }
