"""Tests for int8 post-training quantization."""

import numpy as np
import pytest

from repro.kml import (
    Linear,
    QuantizedLinear,
    Sequential,
    Sigmoid,
    load_model,
    quantize_model,
    save_model,
)
from repro.kml.matrix import Matrix
from repro.kml.quantize import _quantize_per_channel, _quantize_per_tensor


@pytest.fixture
def float_model():
    rng = np.random.default_rng(0)
    return Sequential(
        [Linear(4, 16, rng=rng), Sigmoid(), Linear(16, 3, rng=rng)],
        name="float",
    )


class TestSymmetricQuantize:
    def test_round_trip_error_bounded(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(8, 8))
        codes, scale = _quantize_per_tensor(values)
        error = np.abs(codes.astype(np.float64) * scale - values)
        assert error.max() <= scale / 2 + 1e-12

    def test_zero_matrix(self):
        codes, scale = _quantize_per_tensor(np.zeros((3, 3)))
        assert scale == 1.0
        assert np.all(codes == 0)

    def test_codes_within_int8(self):
        codes, _ = _quantize_per_tensor(np.array([[1e6, -1e6]]))
        assert codes.max() == 127 and codes.min() == -127


class TestQuantizedLinear:
    def test_close_to_float_layer(self):
        rng = np.random.default_rng(2)
        layer = Linear(6, 4, rng=rng, dtype="float64")
        quantized = QuantizedLinear.from_linear(layer)
        x = Matrix(rng.normal(size=(5, 6)), dtype="float64")
        np.testing.assert_allclose(
            quantized.forward(x).to_numpy(),
            layer.forward(x).to_numpy(),
            atol=0.05,
        )

    def test_backward_rejected(self):
        layer = QuantizedLinear.from_linear(Linear(2, 2))
        with pytest.raises(RuntimeError, match="inference-only"):
            layer.backward(Matrix.zeros(1, 2))

    def test_feature_check(self):
        layer = QuantizedLinear.from_linear(Linear(3, 2))
        with pytest.raises(ValueError):
            layer.forward(Matrix.zeros(1, 4))

    def test_memory_smaller_than_float(self):
        layer = Linear(64, 64, dtype="float32")
        quantized = QuantizedLinear.from_linear(layer)
        # int8 weights vs float32 weights: ~4x smaller (bias excluded).
        assert quantized.weight_codes.nbytes * 4 == 64 * 64 * 4


class TestQuantizeModel:
    def test_predictions_close(self, float_model):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 4))
        reference = float_model.predict(x).to_numpy()
        approx = quantize_model(float_model).predict(x, dtype="float32").to_numpy()
        error = np.max(np.abs(reference - approx))
        assert error < 0.1  # logits deviate by under 0.1

    def test_argmax_preserved_on_confident_inputs(self, float_model):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 4)) * 3
        quantized = quantize_model(float_model)
        agree = np.mean(
            quantized.predict_classes(x, dtype="float32")
            == float_model.predict_classes(x)
        )
        assert agree > 0.9

    def test_stateless_layers_preserved(self, float_model):
        quantized = quantize_model(float_model)
        kinds = [layer.kind for layer in quantized.layers]
        assert kinds == ["qlinear", "sigmoid", "qlinear"]

    def test_save_load_round_trip(self, float_model, tmp_path):
        quantized = quantize_model(float_model)
        path = str(tmp_path / "q.kml")
        save_model(quantized, path)
        loaded = load_model(path)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 4))
        np.testing.assert_allclose(
            loaded.predict(x, dtype="float32").to_numpy(),
            quantized.predict(x, dtype="float32").to_numpy(),
            atol=1e-12,
        )

    def test_smaller_file_than_float(self, float_model, tmp_path):
        float_path = str(tmp_path / "f.kml")
        q_path = str(tmp_path / "q.kml")
        save_model(float_model, float_path)
        save_model(quantize_model(float_model), q_path)
        import os

        # Float weights serialize as float64; int8 codes are 8x smaller.
        assert os.path.getsize(q_path) < os.path.getsize(float_path) * 0.6


class TestPerChannelQuantize:
    def test_column_scales_independent(self):
        # One column 1000x larger than the other: per-channel scales
        # must preserve both (per-tensor would zero the small one).
        weights = np.column_stack([np.linspace(-1, 1, 8),
                                   np.linspace(-1000, 1000, 8)])
        codes, scales = _quantize_per_channel(weights)
        restored = codes.astype(np.float64) * scales
        np.testing.assert_allclose(restored, weights, atol=scales.max() / 2)
        assert scales[1] > 100 * scales[0]

    def test_zero_column_scale_one(self):
        weights = np.column_stack([np.zeros(4), np.ones(4)])
        codes, scales = _quantize_per_channel(weights)
        assert scales[0] == 1.0
        assert np.all(codes[:, 0] == 0)

    def test_normalizer_excluded_by_default(self):
        from repro.readahead.model import ReadaheadClassifier

        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 5)) * [1, 10, 100, 1000, 10000] + 5
        y = rng.integers(0, 4, size=60)
        clf = ReadaheadClassifier(rng=rng, epochs=5).fit(x, y)
        quantized = quantize_model(clf.to_deployable())
        kinds = [layer.kind for layer in quantized.layers]
        assert kinds[0] == "linear"       # the zscore layer stayed float
        assert "qlinear" in kinds[1:]
