"""Tests for Pearson correlation and the feature-label screen."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.correlation import feature_label_correlations, pearson


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        assert abs(pearson(rng.normal(size=5000), rng.normal(size=5000))) < 0.05

    def test_constant_input_returns_zero(self):
        assert pearson(np.ones(10), np.arange(10.0)) == 0.0

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=30)
    )
    @settings(max_examples=100, deadline=None)
    def test_property_bounded_and_symmetric(self, values):
        x = np.asarray(values)
        y = np.sin(x) + 0.5 * x  # deterministic partner
        r = pearson(x, y)
        assert -1.0 <= r <= 1.0
        assert r == pytest.approx(pearson(y, x), abs=1e-12)


class TestFeatureSelection:
    def test_correlated_features_found(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=300)
        x = np.column_stack(
            [
                labels + rng.normal(0, 0.1, 300),   # strong signal
                rng.normal(size=300),               # noise
                -2.0 * labels + rng.normal(0, 0.1, 300),  # strong (negative)
                rng.normal(size=300),               # noise
            ]
        )
        correlations = feature_label_correlations(x, labels)
        assert correlations[0] > 0.9 and correlations[2] > 0.9
        assert correlations[1] < 0.3 and correlations[3] < 0.3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            feature_label_correlations(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            feature_label_correlations(np.zeros((5, 2)), np.zeros(4))
