"""Bucketed time series for throughput/latency-over-time plots (Figure 3)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class TimeSeries:
    """Accumulates (time, value) observations into fixed-width buckets.

    Each bucket keeps a count and a value sum, which yields both rates
    (count / width -- e.g. transactions per second) and per-bucket means
    (sum / count -- e.g. average response time in that second).
    """

    def __init__(self, bucket_width: float = 1.0, name: str = "series") -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket width must be positive, got {bucket_width}")
        self.bucket_width = bucket_width
        self.name = name
        self._counts: Dict[int, int] = {}
        self._sums: Dict[int, float] = {}

    def record(self, t: float, value: float = 0.0) -> None:
        """Record one observation at simulated time ``t``."""
        bucket = int(t // self.bucket_width)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._sums[bucket] = self._sums.get(bucket, 0.0) + value

    @property
    def empty(self) -> bool:
        """True before any observation was recorded."""
        return not self._counts

    def bucket_range(self) -> Tuple[int, int]:
        """(first, last) bucket indices seen; (0, -1) when empty."""
        if not self._counts:
            return (0, -1)
        return (min(self._counts), max(self._counts))

    def rate_series(self) -> List[Tuple[float, float]]:
        """(bucket start time, observations per second), gaps filled with 0."""
        first, last = self.bucket_range()
        out = []
        for bucket in range(first, last + 1):
            count = self._counts.get(bucket, 0)
            out.append((bucket * self.bucket_width, count / self.bucket_width))
        return out

    def mean_series(self) -> List[Tuple[float, Optional[float]]]:
        """(bucket start time, mean value), None for empty buckets."""
        first, last = self.bucket_range()
        out: List[Tuple[float, Optional[float]]] = []
        for bucket in range(first, last + 1):
            count = self._counts.get(bucket, 0)
            mean = self._sums[bucket] / count if count else None
            out.append((bucket * self.bucket_width, mean))
        return out
