"""Post-training int8 quantization (paper section 3.1).

"One way to represent matrices compactly is using quantization ...
Quantization can reduce both computational and memory overheads, but
often reduces accuracy."  This module implements the standard scheme:
weights are stored as int8 with **per-output-channel** float scales
(per-tensor scales collapse when one column's range dwarfs another's);
activations are dynamically quantized per batch with one scale; the
matmul accumulates in integers and a single dequantize produces the
float output.

Quantized layers are inference-only (train in float, then quantize for
deployment -- the usual kernel-deployment flow).  Normalization layers
should stay in float: the paper runs normalization in the asynchronous
data-processing unit, not the network -- pass their names in
``exclude`` when quantizing a deployable with a fused Z-score layer.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .layers.base import Layer
from .layers.linear import Linear
from .matrix import Matrix
from .network import Sequential

__all__ = ["QuantizedLinear", "quantize_model"]

_INT8_MAX = 127


def _quantize_per_tensor(values: np.ndarray) -> Tuple[np.ndarray, float]:
    """int8 codes + one scale such that values ~= codes * scale."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return np.zeros(values.shape, dtype=np.int8), 1.0
    scale = peak / _INT8_MAX
    codes = np.clip(np.rint(values / scale), -_INT8_MAX, _INT8_MAX)
    return codes.astype(np.int8), scale


def _quantize_per_channel(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """int8 codes + per-output-column scales for a (in, out) matrix."""
    peaks = np.max(np.abs(weights), axis=0)
    scales = np.where(peaks > 0, peaks / _INT8_MAX, 1.0)
    codes = np.clip(np.rint(weights / scales), -_INT8_MAX, _INT8_MAX)
    return codes.astype(np.int8), scales.astype(np.float64)


class QuantizedLinear(Layer):
    """Inference-only int8 linear layer.

    Weights: per-output-channel symmetric int8.  Activations: one
    dynamic symmetric scale per forward call.  Accumulation: int64.
    """

    kind = "qlinear"

    def __init__(
        self,
        weight_codes: np.ndarray,
        weight_scales: np.ndarray,
        bias: np.ndarray,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if weight_codes.dtype != np.int8:
            raise TypeError("weight codes must be int8")
        self.weight_codes = weight_codes
        self.weight_scales = np.asarray(weight_scales, dtype=np.float64).reshape(-1)
        if len(self.weight_scales) != weight_codes.shape[1]:
            raise ValueError("one scale per output channel required")
        self.bias = np.asarray(bias, dtype=np.float64).reshape(1, -1)
        self.in_features, self.out_features = weight_codes.shape

    @classmethod
    def from_linear(cls, layer: Linear) -> "QuantizedLinear":
        codes, scales = _quantize_per_channel(layer.weight.value.to_numpy())
        return cls(codes, scales, layer.bias.value.to_numpy(), name=layer.name)

    def forward(self, x: Matrix) -> Matrix:
        if x.cols != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} features, got {x.cols}"
            )
        real = x.to_numpy()
        x_codes, x_scale = _quantize_per_tensor(real)
        acc = x_codes.astype(np.int64) @ self.weight_codes.astype(np.int64)
        out = acc * (x_scale * self.weight_scales) + self.bias
        return Matrix(out, dtype=x.dtype)

    def backward(self, grad_output: Matrix) -> Matrix:
        raise RuntimeError(
            f"{self.name}: quantized layers are inference-only; "
            "train the float model, then re-quantize"
        )

    @property
    def nbytes(self) -> int:
        return (
            self.weight_codes.nbytes
            + self.weight_scales.nbytes
            + self.bias.nbytes
        )

    def __repr__(self) -> str:
        return (
            f"QuantizedLinear(in={self.in_features}, out={self.out_features})"
        )


def quantize_model(
    model: Sequential, exclude: Sequence[str] = ("zscore",)
) -> Sequential:
    """Return a copy of ``model`` with Linear layers quantized to int8.

    Layers whose name is in ``exclude`` stay float -- by default the
    fused ``zscore`` normalizer, whose per-feature scales span orders
    of magnitude and whose job (normalization) the paper assigns to the
    float data-processing unit anyway.  Stateless layers are shared.
    """
    quantized = Sequential(name=model.name + "-int8")
    for layer in model.layers:
        if isinstance(layer, Linear) and layer.name not in exclude:
            quantized.add(QuantizedLinear.from_linear(layer))
        else:
            quantized.add(layer)
    quantized.eval()
    return quantized
