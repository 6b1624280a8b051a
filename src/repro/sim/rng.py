"""Deterministic randomness helpers.

All stochastic behaviour in the simulation (network jitter, disk-latency
variation, workload key choice, ...) draws from :class:`SeededRng` streams.
Named sub-streams let independent components vary their parameters without
perturbing each other's draws, which keeps experiments comparable: changing
the workload seed does not change the network jitter sequence.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Optional


class SeededRng(random.Random):
    """A :class:`random.Random` with named, independently-seeded substreams."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._seed_value = seed

    def substream(self, name: str) -> "SeededRng":
        """Derive an independent stream keyed by ``name``.

        The derivation is stable across runs and Python versions: it hashes
        the name with CRC32 rather than the salted built-in ``hash``.
        """
        derived = (self._seed_value * 1_000_003 + zlib.crc32(name.encode())) & 0x7FFFFFFF
        return SeededRng(derived)

    def jittered(self, mean: float, jitter_fraction: float = 0.1) -> float:
        """A positive sample around ``mean`` with bounded uniform jitter."""
        if mean <= 0:
            return 0.0
        low = mean * (1.0 - jitter_fraction)
        high = mean * (1.0 + jitter_fraction)
        # uniform(low, high) inlined (hot: once per message) with the exact
        # same arithmetic, so samples stay bit-identical.
        return low + (high - low) * self.random()

    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival sample with the given mean."""
        if mean <= 0:
            return 0.0
        return -mean * math.log(1.0 - self.random())


def zipfian_sampler(n: int, theta: float, rng: SeededRng):
    """Return a callable sampling 0..n-1 with Zipfian skew ``theta``.

    This is the standard YCSB generator (Gray et al.'s algorithm): item 0 is
    the hottest.  ``theta`` of about 0.99 matches YCSB's default.  A
    ``theta`` of 0 degenerates to uniform.
    """
    if n <= 0:
        raise ValueError(f"zipfian domain must be positive, got {n}")
    if theta <= 0:
        return lambda: rng.randrange(n)
    if theta >= 1.0:
        # The closed-form constants below require theta != 1; nudge.
        theta = min(theta, 0.9999)
    if n <= 2:
        # Tiny domains degenerate (the eta denominator vanishes at n=2);
        # sample the two-point distribution directly.
        zetan = _zeta(n, theta)
        p0 = 1.0 / zetan
        return lambda: 0 if (n == 1 or rng.random() < p0) else 1
    zetan = _zeta(n, theta)
    zeta2 = _zeta(2, theta)
    alpha = 1.0 / (1.0 - theta)
    eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / zetan)

    def sample() -> int:
        """One zipfian draw in [0, n)."""
        u = rng.random()
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**theta:
            return 1
        return int(n * (eta * u - eta + 1.0) ** alpha)

    return sample


def _zeta(n: int, theta: float, cap: Optional[int] = 10_000_000) -> float:
    """Generalised harmonic number H_{n,theta} (capped for huge n)."""
    limit = n if cap is None else min(n, cap)
    total = 0.0
    for i in range(1, limit + 1):
        total += 1.0 / (i**theta)
    if limit < n:
        # Integral approximation of the tail.
        total += ((n ** (1.0 - theta)) - (limit ** (1.0 - theta))) / (1.0 - theta)
    return total
