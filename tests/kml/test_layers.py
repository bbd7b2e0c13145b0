"""Tests for layers: forward semantics and gradient correctness.

Every layer's hand-written backward pass is checked against numerical
(finite-difference) gradients -- the strongest invariant a layer has.
"""

import numpy as np
import pytest

from repro.kml.layers import Dropout, Linear, ReLU, Sigmoid, Softmax, Tanh
from repro.kml.matrix import Matrix


def numerical_grad_wrt_input(layer, x, upstream, eps=1e-5):
    """Finite-difference d(sum(upstream * layer(x)))/dx."""
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            bumped = x.copy()
            bumped[i, j] += eps
            up = np.sum(upstream * layer.forward(Matrix(bumped, dtype="float64")).to_numpy())
            bumped[i, j] -= 2 * eps
            down = np.sum(upstream * layer.forward(Matrix(bumped, dtype="float64")).to_numpy())
            grad[i, j] = (up - down) / (2 * eps)
    return grad


def check_input_gradient(layer, x, atol=1e-5):
    rng = np.random.default_rng(0)
    upstream = rng.normal(size=x.shape if not isinstance(layer, Linear) else None)
    out = layer.forward(Matrix(x, dtype="float64"))
    upstream = rng.normal(size=(out.rows, out.cols))
    layer.forward(Matrix(x, dtype="float64"))
    analytic = layer.backward(Matrix(upstream, dtype="float64")).to_numpy()
    numeric = numerical_grad_wrt_input(layer, x, upstream)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestLinear:
    def test_forward_shape_and_value(self):
        rng = np.random.default_rng(1)
        layer = Linear(3, 2, dtype="float64", rng=rng)
        x = np.array([[1.0, 0.0, -1.0]])
        out = layer.forward(Matrix(x, dtype="float64")).to_numpy()
        w = layer.weight.value.to_numpy()
        b = layer.bias.value.to_numpy()
        np.testing.assert_allclose(out, x @ w + b, atol=1e-12)

    def test_input_feature_mismatch(self):
        layer = Linear(3, 2)
        with pytest.raises(ValueError, match="features"):
            layer.forward(Matrix.zeros(1, 4))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Linear(2, 2).backward(Matrix.zeros(1, 2))

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        layer = Linear(4, 3, dtype="float64", rng=rng)
        check_input_gradient(layer, rng.normal(size=(5, 4)))

    def test_weight_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        layer = Linear(3, 2, dtype="float64", rng=rng)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))
        layer.forward(Matrix(x, dtype="float64"))
        layer.backward(Matrix(upstream, dtype="float64"))
        analytic = layer.weight.grad.to_numpy()
        eps = 1e-6
        w = layer.weight.value.to_numpy()
        numeric = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                for sign in (1, -1):
                    w[i, j] += sign * eps
                    layer.weight.value = Matrix(w, dtype="float64")
                    out = layer.forward(Matrix(x, dtype="float64")).to_numpy()
                    numeric[i, j] += sign * np.sum(upstream * out) / (2 * eps)
                    w[i, j] -= sign * eps
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_bias_gradient_is_column_sum(self):
        rng = np.random.default_rng(4)
        layer = Linear(2, 2, dtype="float64", rng=rng)
        upstream = rng.normal(size=(6, 2))
        layer.forward(Matrix(rng.normal(size=(6, 2)), dtype="float64"))
        layer.backward(Matrix(upstream, dtype="float64"))
        np.testing.assert_allclose(
            layer.bias.grad.to_numpy(), upstream.sum(axis=0, keepdims=True), atol=1e-10
        )

    def test_gradients_accumulate_until_zero_grad(self):
        rng = np.random.default_rng(5)
        layer = Linear(2, 2, dtype="float64", rng=rng)
        x = Matrix(rng.normal(size=(3, 2)), dtype="float64")
        up = Matrix(rng.normal(size=(3, 2)), dtype="float64")
        layer.forward(x)
        layer.backward(up)
        once = layer.weight.grad.to_numpy().copy()
        layer.forward(x)
        layer.backward(up)
        np.testing.assert_allclose(layer.weight.grad.to_numpy(), 2 * once, atol=1e-10)
        layer.zero_grad()
        assert layer.weight.grad.to_numpy().sum() == 0

    def test_assigned_grad_is_never_written(self):
        rng = np.random.default_rng(6)
        layer = Linear(2, 2, dtype="float64", rng=rng)
        x = Matrix(rng.normal(size=(3, 2)), dtype="float64")
        up = Matrix(rng.normal(size=(3, 2)), dtype="float64")
        layer.forward(x)
        layer.backward(up)
        delta = layer.weight.grad.to_numpy().copy()
        assigned = Matrix(np.ones((2, 2)), dtype="float64")
        layer.weight.grad = assigned
        layer.forward(x)
        layer.backward(up)
        np.testing.assert_array_equal(assigned.to_numpy(), np.ones((2, 2)))
        np.testing.assert_allclose(layer.weight.grad.to_numpy(), 1.0 + delta, atol=1e-12)
        layer.zero_grad()
        np.testing.assert_array_equal(assigned.to_numpy(), np.ones((2, 2)))
        assert layer.weight.grad.to_numpy().sum() == 0

    def test_dtype_mismatch_raises(self):
        layer = Linear(2, 2, dtype="float32", rng=np.random.default_rng(0))
        fixed = Matrix([[1.0, 2.0]], dtype="fixed32")
        for call in (layer.forward, layer.infer):
            with pytest.raises(TypeError, match="dtype mismatch"):
                call(fixed)
        layer.forward(Matrix([[1.0, 2.0]], dtype="float32"))
        with pytest.raises(TypeError, match="dtype mismatch"):
            layer.backward(fixed)
        sigmoid = Sigmoid()
        sigmoid.forward(Matrix([[1.0, 2.0]], dtype="float32"))
        with pytest.raises(TypeError, match="dtype mismatch"):
            sigmoid.backward(fixed)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_parameter_count(self):
        layer = Linear(5, 7)
        assert sum(p.value.rows * p.value.cols for p in layer.parameters()) == 5 * 7 + 7


@pytest.mark.parametrize("layer_cls", [Sigmoid, ReLU, Tanh, Softmax])
class TestActivations:
    def test_gradient_matches_numeric(self, layer_cls):
        rng = np.random.default_rng(6)
        # Keep ReLU inputs away from the kink at 0.
        x = rng.normal(size=(4, 5))
        x[np.abs(x) < 0.05] += 0.1
        check_input_gradient(layer_cls(), x)

    def test_backward_before_forward_raises(self, layer_cls):
        with pytest.raises(RuntimeError):
            layer_cls().backward(Matrix.zeros(1, 2))

    def test_no_parameters(self, layer_cls):
        assert layer_cls().parameters() == []


class TestActivationValues:
    def test_sigmoid_bounds(self):
        out = Sigmoid().forward(Matrix([[-50.0, 50.0]], dtype="float64")).to_numpy()
        assert 0.0 <= out[0, 0] < 1e-6
        assert 1.0 - 1e-6 < out[0, 1] <= 1.0

    def test_relu_zeroes_negatives(self):
        out = ReLU().forward(Matrix([[-2.0, 3.0]], dtype="float64")).to_numpy()
        np.testing.assert_array_equal(out, [[0.0, 3.0]])

    def test_tanh_odd(self):
        layer = Tanh()
        a = layer.forward(Matrix([[1.3]], dtype="float64")).item()
        b = layer.forward(Matrix([[-1.3]], dtype="float64")).item()
        assert a == pytest.approx(-b)

    def test_softmax_rows_sum_one(self):
        out = Softmax().forward(Matrix(np.random.default_rng(0).normal(size=(3, 4)), dtype="float64"))
        np.testing.assert_allclose(out.to_numpy().sum(axis=1), 1.0, atol=1e-9)


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        layer.eval()
        x = Matrix(np.ones((4, 4)), dtype="float64")
        assert layer.forward(x) == x

    def test_training_scales_survivors(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer.forward(Matrix(np.ones((50, 50)), dtype="float64")).to_numpy()
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)
        # Expectation preserved within sampling noise.
        assert out.mean() == pytest.approx(1.0, abs=0.15)

    def test_backward_masks_gradient(self):
        layer = Dropout(0.5, rng=np.random.default_rng(1))
        x = Matrix(np.ones((10, 10)), dtype="float64")
        out = layer.forward(x).to_numpy()
        grad = layer.backward(Matrix(np.ones((10, 10)), dtype="float64")).to_numpy()
        np.testing.assert_array_equal(grad > 0, out > 0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_p_zero_is_identity_in_training(self):
        layer = Dropout(0.0)
        x = Matrix(np.ones((2, 2)), dtype="float64")
        assert layer.forward(x) == x
