"""Tests for the CART decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kml.decision_tree import DecisionTreeClassifier


def xor_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
    return x, y


class TestFit:
    def test_learns_axis_split(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 3))
        y = (x[:, 1] > 0.2).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert tree.accuracy(x, y) == 1.0
        assert tree.root.feature == 1
        assert tree.root.threshold == pytest.approx(0.2, abs=0.2)

    def test_learns_xor_with_depth(self):
        x, y = xor_data()
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        assert tree.accuracy(x, y) > 0.95

    def test_depth_limit_respected(self):
        x, y = xor_data()
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert tree.depth <= 2

    def test_pure_node_stops(self):
        x = np.array([[0.0], [1.0], [2.0]])
        tree = DecisionTreeClassifier().fit(x, [1, 1, 1])
        assert tree.root.is_leaf
        assert tree.predict([[5.0]])[0] == 1

    def test_min_samples_leaf(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = (x[:, 0] >= 9).astype(int)  # one positive sample
        tree = DecisionTreeClassifier(min_samples_leaf=3).fit(x, y)
        # No split may isolate fewer than 3 samples.
        def check(node):
            if node.is_leaf:
                assert node.counts.sum() >= 3 or node is tree.root
            else:
                check(node.left)
                check(node.right)
        check(tree.root)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((2, 2)), [0])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((2, 2)), [-1, 0])

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 2))
        y = (x[:, 0] > 0).astype(int) + 2 * (x[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        assert tree.accuracy(x, y) > 0.95
        assert tree.num_classes == 4


class TestPredict:
    def test_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_feature_count_checked(self):
        tree = DecisionTreeClassifier().fit(np.zeros((4, 2)), [0, 0, 1, 1])
        with pytest.raises(ValueError):
            tree.predict(np.zeros((1, 3)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_property_training_points_route_to_majority(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30)
        tree = DecisionTreeClassifier(max_depth=10).fit(x, y)
        # Deep enough tree memorizes the training set unless duplicates
        # conflict; accuracy must be at least the majority-class rate.
        majority = max(np.mean(y == 0), np.mean(y == 1))
        assert tree.accuracy(x, y) >= majority - 1e-12


class TestSerialization:
    def test_records_round_trip(self):
        x, y = xor_data()
        tree = DecisionTreeClassifier(max_depth=5).fit(x, y)
        rebuilt = DecisionTreeClassifier.from_records(
            tree.to_records(), tree.num_classes, tree.num_features
        )
        np.testing.assert_array_equal(rebuilt.predict(x), tree.predict(x))
        assert rebuilt.num_nodes == tree.num_nodes
