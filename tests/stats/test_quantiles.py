"""Tests for P² online quantiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.quantiles import P2Quantile


def feed(estimator, values):
    for value in values:
        estimator.update(value)


class TestP2:
    def test_exact_below_five_samples(self):
        estimator = P2Quantile(0.5)
        feed(estimator, [5.0, 1.0, 3.0])
        assert estimator.value == 3.0

    def test_empty_is_zero(self):
        assert P2Quantile(0.9).value == 0.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_normal_distribution_accuracy(self, q):
        rng = np.random.default_rng(0)
        samples = rng.normal(100, 15, size=20_000)
        estimator = P2Quantile(q)
        feed(estimator, samples)
        exact = float(np.quantile(samples, q))
        assert estimator.value == pytest.approx(exact, rel=0.03)

    def test_exponential_tail(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(1.0, size=30_000)
        estimator = P2Quantile(0.99)
        feed(estimator, samples)
        exact = float(np.quantile(samples, 0.99))
        assert estimator.value == pytest.approx(exact, rel=0.10)

    def test_median_of_uniform_stream(self):
        estimator = P2Quantile(0.5)
        feed(estimator, np.linspace(0, 1, 10_001))
        assert estimator.value == pytest.approx(0.5, abs=0.02)

    def test_constant_memory(self):
        estimator = P2Quantile(0.9)
        feed(estimator, range(100_000))
        assert len(estimator._heights) == 5
        assert estimator.count == 100_000

    def test_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_reset(self):
        estimator = P2Quantile(0.5)
        feed(estimator, range(100))
        estimator.reset()
        assert estimator.count == 0 and estimator.value == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=6, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_property_estimate_within_range(self, values):
        estimator = P2Quantile(0.9)
        feed(estimator, values)
        assert min(values) <= estimator.value <= max(values)
