"""Softmax cross-entropy, the loss of the readahead classifier."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .. import mathops
from ..matrix import Kernels, Matrix, _wrap, kernels
from .base import Loss, one_hot_array

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss(Loss):
    """Fused softmax + negative log likelihood over logits.

    Accepts integer class labels (array-like) or a one-hot ``Matrix``.
    The fused form keeps the backward pass to the numerically exact
    ``softmax(logits) - onehot`` divided by the batch size.  The one-hot
    row of a single label is encoded once and kept (read-only), since
    online training passes one label per step.
    """

    def __init__(self):
        self._softmax: Optional[np.ndarray] = None
        self._onehot: Optional[np.ndarray] = None
        self._kernels: Optional[Kernels] = None
        self._rows: Dict[Tuple[object, int], np.ndarray] = {}

    def _encode(self, target, num_classes: int) -> np.ndarray:
        """``one_hot_array(target, num_classes)``; a single label's row
        is looked up once it has been encoded (and so validated)."""
        labels = np.asarray(target)
        if labels.size != 1:
            return one_hot_array(labels, num_classes)
        key = (labels.item(), num_classes)
        row = self._rows.get(key)
        if row is None:
            row = one_hot_array(labels, num_classes)
            row.flags.writeable = False
            self._rows[key] = row
        return row

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
            onehot = self._encode(target, logits.shape[1])
            if onehot.shape[0] != logits.shape[0]:
                raise ValueError(
                    f"{onehot.shape[0]} labels for {logits.shape[0]} rows"
                )
        self._onehot = onehot
        self._kernels = k
        self._softmax, loss = mathops.kml_softmax_cross_entropy(logits, onehot)
        return loss

    def backward(self) -> Matrix:
        if self._softmax is None or self._onehot is None:
            raise RuntimeError("backward() before forward()")
        n = self._softmax.shape[0]
        k = self._kernels
        grad = self._softmax - self._onehot
        if n > 1:  # dividing by 1 leaves every float64 as it is
            grad /= n
        return _wrap(k.encode(grad), k.dtype)
