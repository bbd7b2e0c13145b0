"""Elementwise activation layers: Sigmoid, ReLU, Tanh.

Each caches what its backward pass needs during forward, exactly one
matrix -- KML keeps per-layer state minimal to bound kernel memory.
Sigmoid, the readahead network's activation, caches its raw output
and the kernel table of its dtype and runs backward on raw buffers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..matrix import Kernels, Matrix, _wrap, checked_raw, kernels
from .base import Layer

__all__ = ["Sigmoid", "ReLU", "Tanh"]


class Sigmoid(Layer):
    """Logistic activation; d/dx sigmoid = s * (1 - s)."""

    kind = "sigmoid"

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._output: Optional[np.ndarray] = None
        self._kernels: Optional[Kernels] = None

    def forward(self, x: Matrix) -> Matrix:
        out = x.sigmoid()
        self._output, self._kernels = out.raw, kernels(out.dtype)
        return out

    def infer(self, x: Matrix) -> Matrix:
        return x.sigmoid()

    def backward(self, grad_output: Matrix) -> Matrix:
        s, k = self._output, self._kernels
        if s is None:
            raise RuntimeError(f"{self.name}: backward() before forward()")
        # grad_output * s * (1.0 - s)
        g = checked_raw(grad_output, k.dtype)
        return _wrap(k.mul(k.mul(g, s), k.sub(k.one, s)), k.dtype)


class ReLU(Layer):
    """Rectified linear unit; gradient is a 0/1 mask of the input sign."""

    kind = "relu"

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._mask: Optional[Matrix] = None

    def forward(self, x: Matrix) -> Matrix:
        mask = (x.to_numpy() > 0).astype(np.float64)
        self._mask = Matrix(mask, dtype=x.dtype)
        return x.relu()

    def infer(self, x: Matrix) -> Matrix:
        return x.relu()

    def backward(self, grad_output: Matrix) -> Matrix:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward() before forward()")
        return grad_output * self._mask


class Tanh(Layer):
    """Hyperbolic tangent; d/dx tanh = 1 - tanh^2."""

    kind = "tanh"

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._output: Optional[Matrix] = None

    def forward(self, x: Matrix) -> Matrix:
        self._output = x.tanh()
        return self._output

    def infer(self, x: Matrix) -> Matrix:
        return x.tanh()

    def backward(self, grad_output: Matrix) -> Matrix:
        if self._output is None:
            raise RuntimeError(f"{self.name}: backward() before forward()")
        t = self._output
        return grad_output * (1.0 - t * t)
