"""Shared fixtures + stress gating for the model-registry tests.

Tests marked ``serve_stress`` (the long hot-swap storm) only run when
``SERVE_STRESS=1`` is set -- ``make serve-check`` does that; the tier-1
run keeps a quick deterministic slice so the atomicity property is
exercised on every test run.

``constant_model(value)`` builds the workhorse of the swap tests: a
network whose output row is ``[value, value, ...]`` regardless of
input.  A torn read (weights from one version, bias from another)
would break the all-equal property, and the constant doubles as the
model's identity, so every response can be attributed to exactly one
version.
"""

import os

import numpy as np
import pytest

from repro.kml.layers import Linear
from repro.kml.matrix import Matrix
from repro.kml.network import Sequential
from repro.serve import ModelRegistry

STRESS = os.environ.get("SERVE_STRESS") == "1"


def pytest_collection_modifyitems(config, items):
    if STRESS:
        return
    skip = pytest.mark.skip(
        reason="stress run; enable via SERVE_STRESS=1 (make serve-check)"
    )
    for item in items:
        if "serve_stress" in item.keywords:
            item.add_marker(skip)


def constant_model(value: float, in_features: int = 4,
                   out_features: int = 3) -> Sequential:
    """A network that outputs ``[value] * out_features`` for any input."""
    model = Sequential([Linear(in_features, out_features, dtype="float32")])
    linear = model.layers[0]
    linear.weight.value = Matrix(
        np.zeros((in_features, out_features)), dtype="float32"
    )
    linear.bias.value = Matrix(
        np.full((1, out_features), float(value)), dtype="float32"
    )
    return model


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(str(tmp_path / "registry"))
