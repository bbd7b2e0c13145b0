"""Pearson correlation, used for the paper's feature selection.

The eight candidate readahead features were "narrowed ... down to just
five features that had the most predictive accuracy, also confirmed
using Pearson correlation analysis" (section 4).
:func:`feature_label_correlations` reproduces that screen.
"""

from __future__ import annotations

import numpy as np

from ..kml.mathops import kml_sqrt

__all__ = ["pearson", "feature_label_correlations"]


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Returns 0.0 when either sequence is constant (the statistic is
    undefined there; 0 is the conventional "no linear signal" value).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(kml_sqrt(np.sum(xc * xc) * np.sum(yc * yc)))
    if denom < 1e-300:
        return 0.0
    r = float(np.sum(xc * yc) / denom)
    # Clamp tiny numeric excursions outside [-1, 1].
    return max(-1.0, min(1.0, r))


def feature_label_correlations(x, labels) -> np.ndarray:
    """|Pearson r| of every feature column against the class labels."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.ndim != 2:
        raise ValueError(f"expected 2-D features, got shape {x.shape}")
    if len(x) != len(labels):
        raise ValueError(f"{len(labels)} labels for {len(x)} samples")
    return np.array([abs(pearson(x[:, i], labels)) for i in range(x.shape[1])])
