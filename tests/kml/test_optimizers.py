"""Tests for SGD with momentum."""

import numpy as np
import pytest

from repro.kml.layers.base import Parameter
from repro.kml.matrix import Matrix
from repro.kml.optimizers import SGD


def make_param(value):
    p = Parameter("w", Matrix(value, dtype="float64"))
    return p


class TestSGD:
    def test_plain_step(self):
        p = make_param([[1.0]])
        p.grad = Matrix([[0.5]], dtype="float64")
        SGD([p], lr=0.1).step()
        assert p.value.item() == pytest.approx(0.95)

    def test_momentum_accumulates(self):
        p = make_param([[0.0]])
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad = Matrix([[1.0]], dtype="float64")
        opt.step()  # v = 1, w = -1
        assert p.value.item() == pytest.approx(-1.0)
        opt.step()  # v = 1.5, w = -2.5
        assert p.value.item() == pytest.approx(-2.5)

    def test_zero_grad(self):
        p = make_param([[1.0]])
        p.grad = Matrix([[2.0]], dtype="float64")
        SGD([p], lr=0.1).zero_grad()
        assert p.grad.item() == 0.0

    def test_validation(self):
        p = make_param([[1.0]])
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_minimizes_quadratic(self):
        # f(w) = (w - 3)^2, grad = 2(w - 3)
        p = make_param([[0.0]])
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(400):
            w = p.value.item()
            p.grad = Matrix([[2 * (w - 3.0)]], dtype="float64")
            opt.step()
        assert p.value.item() == pytest.approx(3.0, abs=1e-3)

    @pytest.mark.parametrize("dtype", ["float32", "float64", "fixed32"])
    @pytest.mark.parametrize("momentum", [0.0, 0.99])
    def test_raw_step_matches_matrix_arithmetic(self, dtype, momentum):
        """The raw-buffer step computes what the Matrix formula does, bit for bit."""
        rng = np.random.default_rng(4)
        p = Parameter("w", Matrix(rng.uniform(-2, 2, size=(3, 4)), dtype=dtype))
        opt = SGD([p], lr=0.01, momentum=momentum)
        value = p.value
        vel = Matrix.zeros(3, 4, dtype=dtype)
        for _ in range(5):
            p.grad = Matrix(rng.uniform(-3, 3, size=(3, 4)), dtype=dtype)
            old = p.value
            old_raw = old.raw.copy()
            opt.step()
            update = p.grad
            if momentum:
                vel = update = vel * momentum + p.grad
            value = value - update * 0.01
            assert p.value == value
            assert p.value is not old
            np.testing.assert_array_equal(old.raw, old_raw)
