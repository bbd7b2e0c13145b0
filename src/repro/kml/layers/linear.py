"""Fully connected (linear) layer: y = x @ W + b.

Both passes run on raw buffers through the layer's kernel table
(``repro.kml.matrix.kernels``), looked up once at construction, and
compute what the same ``Matrix`` expressions would, bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..matrix import Matrix, _wrap, checked_raw, kernels, observe_alloc
from .base import Layer, Parameter

__all__ = ["Linear"]


class Linear(Layer):
    """Affine transform with Xavier-uniform initialization.

    Weights have shape ``(in_features, out_features)`` and the bias is a
    ``(1, out_features)`` row broadcast over the batch, matching the
    layout KML uses for its kernel matmul kernels.
    """

    kind = "linear"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        dtype: str = "float32",
        rng: Optional[np.random.Generator] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.dtype = dtype
        rng = rng or np.random.default_rng()
        bound = float(np.sqrt(6.0 / (in_features + out_features)))
        self.weight = Parameter(
            f"{self.name}.weight",
            Matrix.uniform(in_features, out_features, -bound, bound, rng, dtype=dtype),
        )
        self.bias = Parameter(f"{self.name}.bias", Matrix.zeros(1, out_features, dtype=dtype))
        self._kernels = kernels(dtype)
        self._input: Optional[np.ndarray] = None

    def _affine(self, x: Matrix):
        """``(x's raw buffer, x @ W + b)``; the matmul buffer is reported
        to the allocation observer as the ``Matrix`` expression would."""
        if x.cols != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, got {x.cols}"
            )
        k = self._kernels
        a = checked_raw(x, self.dtype)
        product = k.matmul(a, checked_raw(self.weight.value, self.dtype))
        observe_alloc(product)
        return a, _wrap(k.add(product, self.bias.value.raw), self.dtype)

    def forward(self, x: Matrix) -> Matrix:
        self._input, out = self._affine(x)
        return out

    def infer(self, x: Matrix) -> Matrix:
        # Same affine map as forward, but no cached input: safe for
        # concurrent inference threads sharing one layer instance.
        return self._affine(x)[1]

    def backward(self, grad_output: Matrix) -> Matrix:
        x = self._input
        if x is None:
            raise RuntimeError(f"{self.name}: backward() before forward()")
        k = self._kernels
        g = checked_raw(grad_output, self.dtype)
        # Transposes are contiguous copies, as Matrix.T makes them, so
        # BLAS picks the same kernels.
        self.weight.accumulate(k.matmul(np.ascontiguousarray(x.T), g), k)
        self.bias.accumulate(k.colsum(g), k)
        w_t = np.ascontiguousarray(self.weight.value.raw.T)
        return _wrap(k.matmul(g, w_t), self.dtype)

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"dtype={self.dtype!r})"
        )
