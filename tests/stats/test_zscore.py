"""Tests for Z-score normalization."""

import numpy as np
import pytest

from repro.stats.zscore import OnlineZScore, ZScoreNormalizer


class TestNormalizer:
    def test_transform_has_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5, 3, size=(200, 4))
        z = ZScoreNormalizer().fit(x).transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = ZScoreNormalizer().fit(x).transform(x)
        np.testing.assert_allclose(z[:, 0], 0.0)

    def test_1d_row_supported(self):
        norm = ZScoreNormalizer().fit(np.array([[0.0, 0.0], [2.0, 4.0]]))
        z = norm.transform(np.array([1.0, 2.0]))
        assert z.shape == (2,)
        np.testing.assert_allclose(z, 0.0)

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            ZScoreNormalizer().transform(np.zeros((1, 2)))

    def test_feature_count_checked(self):
        norm = ZScoreNormalizer().fit(np.zeros((5, 3)) + np.arange(5).reshape(-1, 1))
        with pytest.raises(ValueError):
            norm.transform(np.zeros((1, 4)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ZScoreNormalizer().fit(np.zeros((0, 3)))

    def test_serialization_arrays(self):
        x = np.random.default_rng(2).normal(size=(30, 2))
        norm = ZScoreNormalizer().fit(x)
        means, stds = norm.to_arrays()
        np.testing.assert_allclose((x - means) / stds, norm.transform(x))


class TestOnline:
    def test_converges_to_batch_statistics(self):
        rng = np.random.default_rng(3)
        x = rng.normal(10, 2, size=(500, 3))
        online = OnlineZScore(3)
        for row in x:
            online.update(row)
        batch = ZScoreNormalizer().fit(x)
        test_row = np.array([11.0, 9.0, 10.5])
        np.testing.assert_allclose(
            online.normalize(test_row), batch.transform(test_row), rtol=1e-2, atol=1e-2
        )

    def test_zero_variance_feature_yields_zero(self):
        online = OnlineZScore(1)
        online.update([5.0])
        online.update([5.0])
        assert online.normalize([5.0])[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineZScore(0)
        with pytest.raises(ValueError):
            OnlineZScore(2).update([1.0])
