"""Tests for the Dataset container and CollectionConfig."""

import numpy as np
import pytest

from repro.readahead.dataset import CollectionConfig, Dataset


class TestDataset:
    def test_length_and_counts(self):
        ds = Dataset(np.zeros((6, 5)), np.array([0, 0, 1, 2, 3, 3]))
        assert len(ds) == 6
        np.testing.assert_array_equal(ds.class_counts(), [2, 1, 1, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 5)), np.array([0, 1]))


class TestCollectionConfig:
    def test_windows_per_run_derivation(self):
        config = CollectionConfig(
            ra_values=(8, 128), windows_per_value=3, ra_passes=2
        )
        assert config.windows_per_run == 3 * 2 * 2

    def test_defaults_cover_training_workloads(self):
        config = CollectionConfig()
        assert tuple(config.workloads) == (
            "readseq",
            "readrandom",
            "readreverse",
            "readrandomwriterandom",
        )
        assert config.window_s == pytest.approx(0.1)
