"""Tests for the reverse-mode autodiff tape, including cross-checks of
the hand-written layer backward passes against the tape."""

import numpy as np
import pytest

from repro.kml import autodiff as ad
from repro.kml.layers import Linear, Sigmoid
from repro.kml.losses import CrossEntropyLoss
from repro.kml.losses.base import one_hot_array
from repro.kml.matrix import Matrix


class TestTensorOps:
    def test_add_grad(self):
        x = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        y = (x + x).sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])

    def test_mul_grad(self):
        x = ad.Tensor(np.array([[3.0]]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[6.0]])

    def test_matmul_grads(self):
        rng = np.random.default_rng(0)
        a_val = rng.normal(size=(2, 3))
        b_val = rng.normal(size=(3, 2))
        a = ad.Tensor(a_val, requires_grad=True)
        b = ad.Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()
        ones = np.ones((2, 2))
        np.testing.assert_allclose(a.grad, ones @ b_val.T)
        np.testing.assert_allclose(b.grad, a_val.T @ ones)

    def test_broadcast_bias_grad_unbroadcasts(self):
        x = ad.Tensor(np.zeros((4, 3)))
        b = ad.Tensor(np.zeros((1, 3)), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_array_equal(b.grad, [[4.0, 4.0, 4.0]])

    def test_diamond_dag_accumulates(self):
        # z = x*x + x*x : two paths to x must both contribute.
        x = ad.Tensor(np.array([[2.0]]), requires_grad=True)
        a = x * x
        b = x * x
        (a + b).sum().backward()
        np.testing.assert_array_equal(x.grad, [[8.0]])

    def test_scalar_only_backward(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x + x).backward()

    def test_mean(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 0.25))

    def test_sub_and_neg(self):
        x = ad.Tensor(np.array([[5.0]]), requires_grad=True)
        (x - 2.0 * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[-1.0]])


class TestActivationNodes:
    @pytest.mark.parametrize("fn", [ad.sigmoid, ad.relu, ad.tanh])
    def test_grad_matches_numeric(self, fn):
        rng = np.random.default_rng(1)
        x_val = rng.normal(size=(3, 4))
        x_val[np.abs(x_val) < 0.05] += 0.1
        x = ad.Tensor(x_val, requires_grad=True)
        fn(x).sum().backward()
        eps = 1e-6
        numeric = np.zeros_like(x_val)
        for i in range(x_val.shape[0]):
            for j in range(x_val.shape[1]):
                for sign in (1, -1):
                    bumped = x_val.copy()
                    bumped[i, j] += sign * eps
                    numeric[i, j] += sign * float(
                        fn(ad.Tensor(bumped)).value.sum()
                    ) / (2 * eps)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)


class TestSoftmaxCE:
    def test_value_matches_loss_class(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 3))
        onehot = one_hot_array([0, 1, 2, 1], 3)
        node = ad.softmax_cross_entropy(ad.Tensor(logits), onehot)
        ref = CrossEntropyLoss().forward(Matrix(logits, dtype="float64"), [0, 1, 2, 1])
        assert node.value.item() == pytest.approx(ref)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(ad.Tensor(np.zeros((2, 3))), np.zeros((2, 2)))


class TestLayerCrossCheck:
    """The hand-fused layer backwards must equal the autodiff tape."""

    def test_linear_sigmoid_chain_matches_tape(self):
        rng = np.random.default_rng(3)
        x_val = rng.normal(size=(5, 4))
        layer = Linear(4, 3, dtype="float64", rng=rng)
        act = Sigmoid()
        labels = [0, 1, 2, 0, 1]
        onehot = one_hot_array(labels, 3)

        # Layer-stack gradients
        loss_fn = CrossEntropyLoss()
        out = act.forward(layer.forward(Matrix(x_val, dtype="float64")))
        loss_fn.forward(out, labels)
        act_grad = act.backward(loss_fn.backward())
        layer.backward(act_grad)

        # Tape gradients
        w = ad.Tensor(layer.weight.value.to_numpy(), requires_grad=True)
        b = ad.Tensor(layer.bias.value.to_numpy(), requires_grad=True)
        x = ad.Tensor(x_val, requires_grad=True)
        tape_loss = ad.softmax_cross_entropy(ad.sigmoid(x @ w + b), onehot)
        tape_loss.backward()

        np.testing.assert_allclose(layer.weight.grad.to_numpy(), w.grad, atol=1e-10)
        np.testing.assert_allclose(layer.bias.grad.to_numpy(), b.grad, atol=1e-10)
