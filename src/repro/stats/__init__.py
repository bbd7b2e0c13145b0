"""Data normalization and statistics (paper section 3.2)."""

from .moving import CumulativeMovingStd
from .zscore import ZScoreNormalizer, OnlineZScore
from .correlation import pearson, feature_label_correlations, select_features
from .quantiles import P2Quantile, ExponentialMovingAverage

__all__ = [
    "CumulativeMovingStd",
    "ZScoreNormalizer",
    "OnlineZScore",
    "pearson",
    "feature_label_correlations",
    "select_features",
    "P2Quantile",
    "ExponentialMovingAverage",
]
