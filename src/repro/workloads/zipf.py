"""Zipfian key sampling for skewed workloads (mixgraph's hot keys)."""

from __future__ import annotations

import numpy as np

__all__ = ["ZipfGenerator"]


class ZipfGenerator:
    """Samples ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^alpha.

    The inverse-CDF table is precomputed once (O(n)); each sample is a
    binary search, so sampling is cheap even for large key spaces.
    ``alpha = 0`` degenerates to uniform.
    """

    def __init__(self, n: int, alpha: float, rng: np.random.Generator):
        if n < 1:
            raise ValueError("n must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.n = n
        self.alpha = alpha
        self._rng = rng
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self) -> int:
        """One rank (0 = most popular)."""
        return int(np.searchsorted(self._cdf, self._rng.random(), side="right"))

    def probability(self, rank: int) -> float:
        """Exact sampling probability of ``rank``."""
        if not 0 <= rank < self.n:
            raise IndexError(rank)
        low = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - low)
