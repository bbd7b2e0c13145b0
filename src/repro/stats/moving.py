"""Streaming statistics: cumulative moving average and standard deviation.

KML "offers several data normalization and statistical functions:
moving average, standard deviation, and Z-score calculation" (section
3.2).  :class:`CumulativeMovingStd` keeps both; the Z-score normaliser
folds each feature through one.

The cumulative standard deviation uses Welford's online algorithm,
which is numerically stable for the enormous page-offset magnitudes a
kernel stream produces -- the naive sum-of-squares form catastrophically
cancels there.
"""

from __future__ import annotations

from ..kml.mathops import kml_sqrt

__all__ = ["CumulativeMovingStd"]


class CumulativeMovingStd:
    """Welford online mean/variance/standard deviation."""

    __slots__ = ("_count", "_mean", "_m2")

    def __init__(self):
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / self._count

    @property
    def std(self) -> float:
        return float(kml_sqrt(self.variance))
