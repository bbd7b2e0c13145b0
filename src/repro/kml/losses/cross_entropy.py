"""Softmax cross-entropy, the loss of the readahead classifier."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import mathops
from ..matrix import Kernels, Matrix, _wrap, kernels
from .base import Loss, one_hot_array

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss(Loss):
    """Fused softmax + negative log likelihood over logits.

    Accepts integer class labels (array-like) or a one-hot ``Matrix``.
    The fused form keeps the backward pass to the numerically exact
    ``softmax(logits) - onehot`` divided by the batch size.
    """

    def __init__(self):
        self._softmax: Optional[np.ndarray] = None
        self._onehot: Optional[np.ndarray] = None
        self._kernels: Optional[Kernels] = None

    def forward(self, prediction: Matrix, target) -> float:
        k = kernels(prediction.dtype)
        logits = k.decode(prediction.raw)
        if isinstance(target, Matrix):
            onehot = target.to_numpy()
            if onehot.shape != logits.shape:
                raise ValueError(
                    f"one-hot target shape {onehot.shape} != logits {logits.shape}"
                )
        else:
            onehot = one_hot_array(target, logits.shape[1])
            if onehot.shape[0] != logits.shape[0]:
                raise ValueError(
                    f"{onehot.shape[0]} labels for {logits.shape[0]} rows"
                )
        self._softmax, log_probs = mathops.kml_softmax_and_log(logits, axis=1)
        self._onehot = onehot
        self._kernels = k
        return float(-(onehot * log_probs).sum() / logits.shape[0])

    def backward(self) -> Matrix:
        if self._softmax is None or self._onehot is None:
            raise RuntimeError("backward() before forward()")
        n = self._softmax.shape[0]
        k = self._kernels
        return _wrap(k.encode((self._softmax - self._onehot) / n), k.dtype)
