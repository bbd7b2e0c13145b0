"""Tests for loss functions: values and gradients."""

import numpy as np
import pytest

from repro.kml.losses import BinaryCrossEntropyLoss, CrossEntropyLoss, MSELoss
from repro.kml.losses.base import one_hot_array
from repro.kml.matrix import Matrix


def numeric_loss_grad(loss_cls, logits, target, eps=1e-6):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            bumped = logits.copy()
            bumped[i, j] += eps
            up = loss_cls().forward(Matrix(bumped, dtype="float64"), target)
            bumped[i, j] -= 2 * eps
            down = loss_cls().forward(Matrix(bumped, dtype="float64"), target)
            grad[i, j] = (up - down) / (2 * eps)
    return grad


class TestOneHot:
    def test_basic(self):
        m = one_hot_array([0, 2], 3)
        np.testing.assert_array_equal(m, [[1, 0, 0], [0, 0, 1]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot_array([3], 3)
        with pytest.raises(ValueError):
            one_hot_array([-1], 3)

    @pytest.mark.parametrize("label", [1.7, -0.5, float("nan"), float("inf")])
    def test_non_integral_label_rejected(self, label):
        with pytest.raises(ValueError, match="integral"):
            one_hot_array([0.0, label], 4)

    def test_integral_float_labels_accepted(self):
        np.testing.assert_array_equal(
            one_hot_array(np.array([1.0, 3.0]), 4), one_hot_array([1, 3], 4)
        )

    def test_cross_entropy_rejects_non_integral_label(self):
        with pytest.raises(ValueError, match="integral"):
            CrossEntropyLoss().forward(Matrix(np.zeros((1, 4))), [1.7])


class TestCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = CrossEntropyLoss().forward(Matrix(logits, dtype="float64"), [0, 1])
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_is_log_k(self):
        logits = np.zeros((1, 4))
        loss = CrossEntropyLoss().forward(Matrix(logits, dtype="float64"), [2])
        assert loss == pytest.approx(np.log(4))

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        target = [0, 1, 2, 1, 0]
        loss = CrossEntropyLoss()
        loss.forward(Matrix(logits, dtype="float64"), target)
        analytic = loss.backward().to_numpy()
        numeric = numeric_loss_grad(CrossEntropyLoss, logits, target)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_accepts_one_hot_matrix(self):
        logits = np.array([[2.0, 1.0]])
        a = CrossEntropyLoss().forward(Matrix(logits, dtype="float64"), [0])
        b = CrossEntropyLoss().forward(
            Matrix(logits, dtype="float64"), Matrix(one_hot_array([0], 2))
        )
        assert a == pytest.approx(b)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().forward(Matrix.zeros(2, 3), [0])

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()

    def test_stable_for_huge_logits(self):
        logits = np.array([[1e4, -1e4]])
        loss = CrossEntropyLoss().forward(Matrix(logits, dtype="float64"), [1])
        assert np.isfinite(loss) and loss > 1000


class TestMSE:
    def test_zero_for_exact(self):
        pred = Matrix([[1.0, 2.0]], dtype="float64")
        assert MSELoss().forward(pred, [[1.0, 2.0]]) == 0.0

    def test_value(self):
        pred = Matrix([[3.0]], dtype="float64")
        assert MSELoss().forward(pred, [[1.0]]) == pytest.approx(4.0)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(3, 2))
        target = rng.normal(size=(3, 2))
        loss = MSELoss()
        loss.forward(Matrix(pred, dtype="float64"), target)
        numeric = numeric_loss_grad(MSELoss, pred, target)
        np.testing.assert_allclose(loss.backward().to_numpy(), numeric, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss().forward(Matrix.zeros(1, 2), [[1.0, 2.0, 3.0]])


class TestBCE:
    def test_confident_correct_small_loss(self):
        pred = Matrix([[0.999, 0.001]], dtype="float64")
        loss = BinaryCrossEntropyLoss().forward(pred, [[1.0, 0.0]])
        assert loss < 0.01

    def test_uniform_is_log2(self):
        pred = Matrix([[0.5]], dtype="float64")
        assert BinaryCrossEntropyLoss().forward(pred, [[1.0]]) == pytest.approx(
            np.log(2), abs=1e-6
        )

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(0.1, 0.9, size=(4, 2))
        target = (rng.random((4, 2)) > 0.5).astype(float)
        loss = BinaryCrossEntropyLoss()
        loss.forward(Matrix(pred, dtype="float64"), target)
        numeric = numeric_loss_grad(BinaryCrossEntropyLoss, pred, target)
        np.testing.assert_allclose(loss.backward().to_numpy(), numeric, atol=1e-5)

    def test_saturated_inputs_finite(self):
        pred = Matrix([[0.0, 1.0]], dtype="float64")
        loss = BinaryCrossEntropyLoss().forward(pred, [[1.0, 0.0]])
        assert np.isfinite(loss)
