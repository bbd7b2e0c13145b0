"""Z-score normalization for model inputs.

The readahead pipeline computes "the Z-score for each feature to
normalize the input data" (section 4).  Two forms:

- :class:`ZScoreNormalizer` -- fit once on a training matrix, apply at
  inference (the deploy-to-kernel path: the fitted means/stds travel
  with the model);
- :class:`OnlineZScore` -- streaming normalization for in-kernel
  training, where no offline dataset exists.
"""

from __future__ import annotations

import numpy as np

from .moving import CumulativeMovingStd

__all__ = ["ZScoreNormalizer", "OnlineZScore"]


class ZScoreNormalizer:
    """Per-column (x - mean) / std with zero-variance columns passed through."""

    def __init__(self):
        self.means: np.ndarray = np.empty(0)
        self.stds: np.ndarray = np.empty(0)
        self._fitted = False

    def fit(self, x) -> "ZScoreNormalizer":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D data, got shape {x.shape}")
        if len(x) == 0:
            raise ValueError("cannot fit on empty data")
        self.means = x.mean(axis=0)
        stds = x.std(axis=0)
        # A constant column carries no signal; dividing by ~0 would blow
        # up, so normalize it to zero by using std=1.
        self.stds = np.where(stds > 1e-12, stds, 1.0)
        self._fitted = True
        return self

    def transform(self, x) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("transform() before fit()")
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x.reshape(1, -1)
        if x.shape[1] != len(self.means):
            raise ValueError(
                f"expected {len(self.means)} features, got {x.shape[1]}"
            )
        out = (x - self.means) / self.stds
        return out[0] if single else out

    # Serialization hook so fitted statistics deploy with the model.
    def to_arrays(self):
        if not self._fitted:
            raise RuntimeError("normalizer not fitted")
        return self.means.copy(), self.stds.copy()


class OnlineZScore:
    """Streaming per-feature Z-score using Welford statistics."""

    def __init__(self, num_features: int):
        if num_features < 1:
            raise ValueError("num_features must be >= 1")
        self.num_features = num_features
        self._stats = [CumulativeMovingStd() for _ in range(num_features)]

    def update(self, row) -> None:
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        if len(row) != self.num_features:
            raise ValueError(f"expected {self.num_features} features, got {len(row)}")
        for stat, value in zip(self._stats, row):
            stat.update(value)

    def normalize(self, row) -> np.ndarray:
        """Z-score ``row`` against the statistics accumulated so far."""
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        if len(row) != self.num_features:
            raise ValueError(f"expected {self.num_features} features, got {len(row)}")
        out = np.empty(self.num_features)
        for i, (stat, value) in enumerate(zip(self._stats, row)):
            std = stat.std
            out[i] = (value - stat.mean) / std if std > 1e-12 else 0.0
        return out

    @property
    def count(self) -> int:
        return self._stats[0].count
