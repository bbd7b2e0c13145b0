"""The KML classifier recipe the use cases share.

Z-scored features in, class logits out: three linear layers joined by
sigmoids, trained on cross-entropy by SGD with momentum (paper section
4).  The readahead classifier and the I/O-scheduler selector run it
with their own sizes and SGD constants.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..stats.zscore import ZScoreNormalizer
from .layers import Linear, Sigmoid
from .losses import CrossEntropyLoss
from .matrix import Matrix
from .network import Sequential
from .optimizers import SGD

__all__ = ["NeuralClassifier"]

BATCH_SIZE = 32


class NeuralClassifier:
    """Normalizer + network + training recipe, with a fit/accuracy API.

    ``network`` is three linear layers joined by sigmoids, logits out.
    ``fit(x, y)`` Z-scores the features (storing the statistics) and
    trains with SGD on cross-entropy, so the object satisfies the
    model-factory contract of :func:`repro.kml.metrics.k_fold_cross_validate`.
    ``rng`` draws the initial weights (fc1, then fc2, then fc3), then
    shuffles each epoch.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        hidden: Tuple[int, int],
        lr: float,
        momentum: float,
        epochs: int,
        name: str,
        dtype: str = "float32",
        rng: Optional[np.random.Generator] = None,
    ):
        self.dtype = dtype
        self.rng = rng or np.random.default_rng()
        self.lr = lr
        self.momentum = momentum
        self.epochs = epochs
        hidden_1, hidden_2 = hidden
        rng = self.rng
        self.network = Sequential(
            [
                Linear(n_features, hidden_1, dtype=dtype, rng=rng, name="fc1"),
                Sigmoid(name="act1"),
                Linear(hidden_1, hidden_2, dtype=dtype, rng=rng, name="fc2"),
                Sigmoid(name="act2"),
                Linear(hidden_2, n_classes, dtype=dtype, rng=rng, name="fc3"),
            ],
            name=name,
        )
        self.normalizer = ZScoreNormalizer()
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------

    def fit(self, x, labels) -> "NeuralClassifier":
        x = np.asarray(x, dtype=np.float64)
        normalized = self.normalizer.fit(x).transform(x)
        optimizer = SGD(
            self.network.parameters(), lr=self.lr, momentum=self.momentum
        )
        self.loss_history = self.network.fit(
            normalized,
            np.asarray(labels, dtype=np.int64),
            CrossEntropyLoss(),
            optimizer,
            epochs=self.epochs,
            batch_size=BATCH_SIZE,
            rng=self.rng,
            dtype=self.dtype,
        )
        return self

    def predict(self, x) -> np.ndarray:
        """Class indices for raw (un-normalized) feature rows."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        normalized = self.normalizer.transform(x.reshape(1, -1) if single else x)
        return self.network.predict_classes(normalized, dtype=self.dtype)

    def accuracy(self, x, labels) -> float:
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        return float(np.mean(self.predict(x) == labels))

    def to_deployable(self) -> Sequential:
        """A Sequential whose first layer performs the Z-scoring.

        z = (x - m) / s  ==  x @ diag(1/s) + (-m/s), i.e. a Linear, so
        the saved model file is self-contained, like the paper's
        save-in-userspace / load-in-kernel flow.
        """
        means, stds = self.normalizer.to_arrays()
        n = len(means)
        norm_layer = Linear(n, n, dtype=self.dtype, name="zscore")
        norm_layer.weight.value = Matrix(np.diag(1.0 / stds), dtype=self.dtype)
        norm_layer.bias.value = Matrix(
            (-means / stds).reshape(1, -1), dtype=self.dtype
        )
        deployable = Sequential(name=self.network.name + "-deploy")
        deployable.add(norm_layer)
        for layer in self.network.layers:
            deployable.add(layer)
        return deployable
