"""Fully connected (linear) layer: y = x @ W + b.

Both passes run on raw buffers through the layer's kernel table
(``repro.kml.matrix.kernels``), looked up once at construction, and
compute what the same ``Matrix`` expressions would, bit for bit.

The affine map is one raw step, :func:`affine`, which both the layer
and ``Sequential``'s resolved training step (``repro.kml.network``)
run.  It adds the bias into the matmul result in place (one buffer, not
two), and in fixed32 skips both int32 clamps when the weights prove
that neither can bind: for raw inputs bounded by ``R`` in magnitude, no
output exceeds ``ceil(R * max_j sum_i |W_ij| / 2**16) + max |b|``,
which must stay below 2**31.  :meth:`Linear.resolved` checks this once
per weight and bias matrix (matched by identity: parameters are
rebound, never written in place) and input bound.

The bound ``R`` is carried down the chain (``repro.kml.network``):
each layer's output bound is the next ``Linear``'s input bound.  Any
int32 is 2**31, a sigmoid's output in [0, 2**16] is 2**16, and a
``Linear`` whose clamps are idle bounds its output by the sum above
(a clamping one by 2**31).  So a ``Linear`` fed by another with small
weights, as the deployed model's first hidden layer is fed by its
z-score layer, can skip its clamps too.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..matrix import Kernels, Matrix, _wrap, checked_raw, kernels, observe_alloc
from .base import Layer, Parameter

__all__ = ["Linear"]

#: How :func:`affine` runs a resolved ``Linear``: the bias added into the
#: matmul result in place (the floats); the same, then narrowed to int32
#: (fixed32, both clamps proved idle); through the saturating kernels
#: (fixed32); as that, for a weight or bias of another shape, which
#: ``Sequential``'s resolved step does not run.
_IN_PLACE, _NARROW, _SATURATING, _MISSHAPEN = range(4)

#: Bounds on the magnitude of raw fixed32 inputs: any int32, and a
#: sigmoid's output.
INT32_LIMIT = 2**31
SIGMOID_LIMIT = 2**16


def _output_limit(w: np.ndarray, b: np.ndarray, limit: int) -> int:
    """A bound on ``|x @ w + b|`` in fixed32 for raw ``|x| <= limit``,
    were no clamp applied: each shifted product sum is at most
    ``ceil(limit * max_j sum_i |w_ij| / 2**16)`` in magnitude."""
    column = int(np.abs(w, dtype=np.int64).sum(axis=0).max())
    return ((limit * column + 0xFFFF) >> 16) + int(np.abs(b, dtype=np.int64).max())


def affine(a: np.ndarray, resolved: tuple, k: Kernels) -> np.ndarray:
    """The raw ``a @ W + b`` of a :meth:`Linear.resolved` tuple on
    kernel table ``k``.  The matmul result is reported to the
    allocation observer; the returned buffer is left to the caller."""
    mode, w, b = resolved[3], resolved[4], resolved[5]
    if mode >= _SATURATING:
        product = k.matmul(a, w)
        observe_alloc(product)
        return k.add(product, b)
    out = k.wide_matmul(a, w)
    out += b
    if mode == _IN_PLACE:
        return out
    observe_alloc(out)
    return out.astype(np.int32)


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
        self._resolved: tuple = (None, None, 0, _MISSHAPEN, None, None, INT32_LIMIT)

    def resolved(self, input_limit: int) -> tuple:
        """``(weight, bias, input_limit, mode, matmul operand, raw
        bias, output_limit)`` for the current weight and bias matrices
        and raw inputs bounded by ``input_limit`` in magnitude (fixed32;
        see the module docstring), checked again only when one of the
        three changes.  The operand is the raw weight, or with idle
        clamps its int64 copy, which the int64 matmul would otherwise
        widen on every call; ``output_limit`` bounds the raw outputs'
        magnitude (2**31 unless the clamps are idle).  The tuple is
        stored at once, and always as a new tuple, so a thread that
        rebinds a weight never pairs it with another weight's mode.
        Raises ``TypeError`` for a weight or bias of another dtype."""
        w, b = self.weight.value, self.bias.value
        done = self._resolved
        if done[0] is w and done[1] is b and done[2] == input_limit:
            return done
        w_raw, b_raw = checked_raw(w, self.dtype), checked_raw(b, self.dtype)
        mode, operand, output_limit = _IN_PLACE, w_raw, INT32_LIMIT
        if (w_raw.shape, b_raw.shape) != (
            (self.in_features, self.out_features), (1, self.out_features)
        ):
            mode = _MISSHAPEN
        elif self.dtype == "fixed32":
            mode = _SATURATING
            bound = _output_limit(w_raw, b_raw, input_limit)
            if bound < INT32_LIMIT:
                mode, operand, output_limit = _NARROW, w_raw.astype(np.int64), bound
        self._resolved = done = (w, b, input_limit, mode, operand, b_raw, output_limit)
        return done

    def _raw_input(self, x: Matrix) -> np.ndarray:
        """``x``'s raw buffer; raises for another dtype or width."""
        a = checked_raw(x, self.dtype)
        if a.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, got {a.shape[1]}"
            )
        return a

    def forward(self, x: Matrix) -> Matrix:
        self._input = a = self._raw_input(x)
        return _wrap(affine(a, self.resolved(INT32_LIMIT), self._kernels), self.dtype)

    def infer(self, x: Matrix, input_limit: int = INT32_LIMIT) -> Matrix:
        """``x @ W + b`` without caching the input: safe for concurrent
        inference threads sharing one layer instance.  In fixed32 the
        caller may promise a tighter bound on ``x``'s raw magnitudes
        (the output bound of the layer that made ``x``), which lets
        smaller weights skip the clamps; the floats ignore it."""
        out = affine(self._raw_input(x), self.resolved(input_limit), self._kernels)
        return _wrap(out, self.dtype)

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
