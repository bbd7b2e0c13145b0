"""Tests for streaming statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.moving import CumulativeMovingStd

float_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100
)


def welford(values) -> CumulativeMovingStd:
    stat = CumulativeMovingStd()
    for value in values:
        stat.update(value)
    return stat


class TestWelfordStd:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.normal(100, 15, size=500)
        stat = welford(values)
        assert stat.mean == pytest.approx(values.mean())
        assert stat.std == pytest.approx(values.std(), rel=1e-9)

    def test_fewer_than_two_samples_zero_variance(self):
        stat = CumulativeMovingStd()
        assert stat.variance == 0.0
        stat.update(5.0)
        assert stat.variance == 0.0

    def test_numerical_stability_large_offsets(self):
        # Classic catastrophic-cancellation case: tiny variance on a
        # huge mean (page offsets of big files look exactly like this).
        base = 1e12
        values = [base + v for v in (0.0, 1.0, 2.0)]
        stat = welford(values)
        assert stat.std == pytest.approx(np.std(values), rel=1e-6)

    @given(float_lists)
    @settings(max_examples=100, deadline=None)
    def test_property_matches_numpy(self, values):
        stat = welford(values)
        assert stat.std == pytest.approx(float(np.std(values)), rel=1e-6, abs=1e-6)
