"""Loss-function contract: forward returns a scalar, backward a gradient."""

from __future__ import annotations

import numpy as np

from ..matrix import Matrix

__all__ = ["Loss", "one_hot_array"]


def one_hot_array(labels, num_classes: int) -> np.ndarray:
    """Encode integer class labels as a one-hot float64 array.

    Raises ``ValueError`` on labels outside ``[0, num_classes)`` rather
    than silently wrapping, and on labels that are not integral (a float
    label such as ``1.0`` is accepted; ``1.7`` is not truncated to 1).
    """
    labels = np.asarray(labels).reshape(-1)
    if labels.dtype.kind == "f":
        integral = np.isfinite(labels) & (np.trunc(labels) == labels)
        if not integral.all():
            raise ValueError(f"labels must be integral, got {labels[~integral][0]}")
    labels = labels.astype(np.int64)
    # Python's min/max over a batch's few labels beat two numpy reductions.
    values = labels.tolist()
    if values and (min(values) < 0 or max(values) >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={min(values)}, max={max(values)}"
        )
    encoded = np.zeros((labels.size, num_classes), dtype=np.float64)
    encoded[np.arange(labels.size), labels] = 1.0
    return encoded


class Loss:
    """Base class: ``forward(pred, target) -> float`` then ``backward()``.

    ``backward`` returns dL/dpred for the *same* prediction/target pair
    passed to the preceding ``forward`` call.
    """

    def forward(self, prediction: Matrix, target) -> float:
        raise NotImplementedError

    def backward(self) -> Matrix:
        raise NotImplementedError

    def __call__(self, prediction: Matrix, target) -> float:
        return self.forward(prediction, target)
