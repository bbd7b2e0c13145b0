"""Tests for the versioned model registry: lifecycle + integrity."""

import os

import numpy as np
import pytest

from repro.kml import DecisionTreeClassifier, save_model
from repro.serve import ModelRegistry, RegistryError

from .conftest import constant_model


class TestPublish:
    def test_versions_are_sequential(self, registry):
        assert registry.publish(constant_model(1.0)) == 1
        assert registry.publish(constant_model(2.0)) == 2
        assert registry.versions() == [1, 2]

    def test_images_are_numbered_files(self, registry):
        registry.publish(constant_model(1.0))
        assert os.path.exists(os.path.join(registry.root, "v00001.kml"))
        # No temp droppings from the tmp+rename commit.
        assert not [f for f in os.listdir(registry.root) if f.endswith(".tmp")]

    def test_publish_from_path(self, registry, tmp_path):
        path = str(tmp_path / "m.kml")
        save_model(constant_model(3.0), path)
        version = registry.publish(path)
        out = registry.load(version).model.predict(np.zeros((1, 4)))
        assert out.to_numpy()[0][0] == 3.0

    def test_publish_refuses_damaged_image(self, registry, tmp_path):
        path = str(tmp_path / "bad.kml")
        with open(path, "wb") as f:
            f.write(b"garbage that is not a model")
        with pytest.raises(RegistryError, match="refusing to publish"):
            registry.publish(path)
        assert registry.versions() == []

    def test_publish_and_activate(self, registry):
        version = registry.publish(constant_model(1.0), activate=True)
        assert registry.active_version == version

    def test_reopen_rescans_directory(self, registry):
        registry.publish(constant_model(1.0))
        registry.publish(constant_model(2.0))
        reopened = ModelRegistry(registry.root)
        assert reopened.versions() == [1, 2]
        assert reopened.publish(constant_model(3.0)) == 3


class TestActivate:
    def test_active_snapshot_serves_predictions(self, registry):
        registry.publish(constant_model(7.0), activate=True)
        out = registry.active().model.predict(np.ones((2, 4)))
        np.testing.assert_array_equal(out.to_numpy(), np.full((2, 3), 7.0))

    def test_activate_unknown_version(self, registry):
        with pytest.raises(RegistryError, match="unknown model version"):
            registry.activate(42)

    def test_swap_does_not_disturb_resolved_snapshot(self, registry):
        v1 = registry.publish(constant_model(1.0), activate=True)
        held = registry.active()
        registry.publish(constant_model(2.0), activate=True)
        # The snapshot resolved before the swap still serves version 1.
        np.testing.assert_array_equal(
            held.model.predict(np.zeros((1, 4))).to_numpy(), np.full((1, 3), 1.0)
        )
        assert held.version == v1
        assert registry.active_version == 2

    def test_no_active_initially(self, registry):
        assert registry.active() is None
        assert registry.active_version == -1


class TestRollback:
    def test_rollback_restores_previous_version(self, registry):
        registry.publish(constant_model(1.0), activate=True)
        registry.publish(constant_model(2.0), activate=True)
        snapshot = registry.rollback()
        assert snapshot.version == 1
        assert registry.active_version == 1
        assert registry.rollbacks == 1

    def test_rollback_without_history(self, registry):
        registry.publish(constant_model(1.0), activate=True)
        with pytest.raises(RegistryError, match="no previous activation"):
            registry.rollback()

    def test_rollback_then_forward_again(self, registry):
        registry.publish(constant_model(1.0), activate=True)
        registry.publish(constant_model(2.0), activate=True)
        registry.rollback()
        registry.activate(2)
        assert registry.history()[-3:] == [2, 1, 2]


class TestSnapshots:
    def test_snapshot_exposes_metadata(self, registry):
        registry.publish(constant_model(1.0), activate=True)
        snapshot = registry.active()
        assert snapshot.kind == "sequential"
        assert snapshot.dtype == "float32"
        assert snapshot.version == 1

    def test_snapshot_is_slotted(self, registry):
        registry.publish(constant_model(1.0), activate=True)
        with pytest.raises(AttributeError):
            registry.active().extra = 1  # immutable handle: no new state

    def test_tree_snapshot_predicts_class_column(self, registry):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 3))
        y = (x[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        registry.publish(tree, activate=True)
        snapshot = registry.active()
        assert snapshot.kind == "tree"
        out = snapshot.model.predict_classes(x[:10])
        np.testing.assert_array_equal(out, tree.predict(x[:10]))
        assert set(np.unique(out)) <= {0, 1}

    def test_describe_lists_versions(self, registry):
        registry.publish(constant_model(1.0))
        registry.publish(constant_model(2.0), activate=True)
        text = registry.describe()
        assert "2 version(s)" in text
        assert "* v00002" in text  # active marker
        assert "v00001" in text
