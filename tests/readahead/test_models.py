"""Tests for the readahead NN and decision-tree models."""

import numpy as np
import pytest

from repro.kml import load_model, save_model
from repro.kml.layers import Linear, Sigmoid
from repro.readahead.model import (
    WORKLOAD_CLASSES,
    ReadaheadClassifier,
    build_network,
)
from repro.readahead.tree_model import ReadaheadTreeModel


def synthetic_dataset(n_per_class=40, seed=0):
    """Four separable clusters shaped like the real feature space."""
    rng = np.random.default_rng(seed)
    centers = np.array(
        [
            [12_000, 1000, 800, 5, 128],    # readseq-ish
            [37_000, 950, 830, 70, 128],    # readrandom-ish
            [2_500, 940, 840, 3, 128],      # readreverse-ish
            [30_000, 930, 820, 90, 128],    # rrwr-ish
        ]
    )
    xs, ys = [], []
    for label, center in enumerate(centers):
        noise = rng.normal(0, 0.03, size=(n_per_class, 5)) * center
        xs.append(center + noise)
        ys.extend([label] * n_per_class)
    return np.vstack(xs), np.asarray(ys)


class TestArchitecture:
    def test_three_linear_layers_with_sigmoids(self):
        network = build_network()
        kinds = [layer.kind for layer in network.layers]
        assert kinds == ["linear", "sigmoid", "linear", "sigmoid", "linear"]

    def test_io_dimensions(self):
        network = build_network()
        assert network.layers[0].in_features == 5
        assert network.layers[-1].out_features == len(WORKLOAD_CLASSES)

    def test_memory_footprint_kernel_scale(self):
        # The paper's model used <4 KB; ours must stay within the same
        # order of magnitude (a few tens of KB at float32).
        network = build_network(dtype="float32")
        assert network.nbytes < 32 * 1024


class TestClassifier:
    def test_learns_synthetic_clusters(self):
        x, y = synthetic_dataset()
        clf = ReadaheadClassifier(rng=np.random.default_rng(0), epochs=150)
        clf.fit(x, y)
        assert clf.accuracy(x, y) > 0.95

    def test_loss_history_decreases(self):
        x, y = synthetic_dataset()
        clf = ReadaheadClassifier(rng=np.random.default_rng(2), epochs=100).fit(x, y)
        assert clf.loss_history[-1] < clf.loss_history[0]

    def test_deployable_matches_classifier(self):
        x, y = synthetic_dataset()
        clf = ReadaheadClassifier(rng=np.random.default_rng(3), epochs=100).fit(x, y)
        deployable = clf.to_deployable()
        np.testing.assert_array_equal(
            deployable.predict_classes(x), clf.predict(x)
        )

    def test_deployable_save_load_round_trip(self, tmp_path):
        x, y = synthetic_dataset()
        clf = ReadaheadClassifier(rng=np.random.default_rng(4), epochs=100).fit(x, y)
        deployable = clf.to_deployable()
        path = str(tmp_path / "readahead.kml")
        save_model(deployable, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            loaded.predict_classes(x), deployable.predict_classes(x)
        )

    def test_normalization_is_fitted(self):
        x, y = synthetic_dataset()
        clf = ReadaheadClassifier(rng=np.random.default_rng(5), epochs=10).fit(x, y)
        z = clf.normalizer.transform(x)
        assert abs(z.mean()) < 0.1


class TestTreeModel:
    def test_learns_synthetic_clusters(self):
        x, y = synthetic_dataset()
        tree = ReadaheadTreeModel(max_depth=4).fit(x, y)
        assert tree.accuracy(x, y) > 0.9

    def test_interface_parity_with_nn(self):
        x, y = synthetic_dataset()
        tree = ReadaheadTreeModel(max_depth=4).fit(x, y)
        predictions = tree.predict(x)
        assert predictions.shape == (len(x),)
        assert set(predictions.tolist()) <= set(range(len(WORKLOAD_CLASSES)))

    def test_shallower_than_nn_by_design(self):
        # The tree is the deliberately weaker model in the paper.
        tree = ReadaheadTreeModel()
        assert tree.tree.max_depth <= 4
