"""The readahead neural network: a 3-layer workload classifier.

Paper section 4: "Our model has three linear layers, and these layers
are connected with sigmoid activation functions ... We used the
cross-entropy loss function and optimized our network using an SGD
optimizer, configured with a (conventional) learning rate of 0.01 and
a momentum of 0.99."  Inputs are the five Z-scored features; outputs
are the four training workload classes.  :func:`build_tree` gives the
paper's decision-tree variant of the same classifier.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..kml.decision_tree import DecisionTreeClassifier
from ..kml.layers import Linear, Sigmoid
from ..kml.losses import CrossEntropyLoss
from ..kml.matrix import Matrix
from ..kml.network import Sequential
from ..kml.optimizers import SGD
from ..stats.zscore import ZScoreNormalizer
from .features import NUM_FEATURES

__all__ = ["ReadaheadClassifier", "WORKLOAD_CLASSES", "build_network", "build_tree"]

#: Class label order (fixed: label = index).
WORKLOAD_CLASSES = (
    "readseq",
    "readrandom",
    "readreverse",
    "readrandomwriterandom",
)

# Paper hyper-parameters.
LEARNING_RATE = 0.01
MOMENTUM = 0.99
HIDDEN_1 = 32
HIDDEN_2 = 16
BATCH_SIZE = 32


def build_network(
    dtype: str = "float32", rng: Optional[np.random.Generator] = None
) -> Sequential:
    """Three linear layers joined by sigmoids, logits out."""
    rng = rng or np.random.default_rng()
    return Sequential(
        [
            Linear(NUM_FEATURES, HIDDEN_1, dtype=dtype, rng=rng, name="fc1"),
            Sigmoid(name="act1"),
            Linear(HIDDEN_1, HIDDEN_2, dtype=dtype, rng=rng, name="fc2"),
            Sigmoid(name="act2"),
            Linear(
                HIDDEN_2, len(WORKLOAD_CLASSES), dtype=dtype, rng=rng, name="fc3"
            ),
        ],
        name="readahead-nn",
    )


def build_tree() -> DecisionTreeClassifier:
    """The decision-tree variant of the workload classifier (section 4).

    "We have also implemented a decision tree for the readahead
    use-case to show how different ML approaches perform on the same
    problem"; the paper reports smaller (but still positive) gains for
    it: SSD 55% and NVMe 26% average.  Trees need no feature
    normalization; to make it a weaker model than the NN --
    reproducing the paper's ordering -- the depth is deliberately
    shallow.
    """
    return DecisionTreeClassifier(max_depth=3, min_samples_leaf=4)


class ReadaheadClassifier:
    """Normalizer + network + training recipe, with a fit/accuracy API.

    ``fit(x, y)`` Z-scores the features (storing the statistics) and
    trains with the paper's SGD recipe, so the object satisfies the
    model-factory contract of :func:`repro.kml.metrics.k_fold_cross_validate`.
    """

    def __init__(
        self,
        dtype: str = "float32",
        rng: Optional[np.random.Generator] = None,
        epochs: int = 400,
    ):
        self.dtype = dtype
        self.rng = rng or np.random.default_rng()
        self.epochs = epochs
        self.network = build_network(dtype=dtype, rng=self.rng)
        self.normalizer = ZScoreNormalizer()
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------

    def fit(self, x, labels) -> "ReadaheadClassifier":
        x = np.asarray(x, dtype=np.float64)
        normalized = self.normalizer.fit(x).transform(x)
        optimizer = SGD(
            self.network.parameters(), lr=LEARNING_RATE, momentum=MOMENTUM
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
        classes = self.network.predict_classes(normalized, dtype=self.dtype)
        return classes

    def accuracy(self, x, labels) -> float:
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        return float(np.mean(self.predict(x) == labels))

    # ------------------------------------------------------------------
    # Deployment: fold the normalizer into the network as a fixed
    # linear layer so the saved model file is self-contained, exactly
    # like the paper's save-in-userspace / load-in-kernel flow.
    # ------------------------------------------------------------------

    def to_deployable(self) -> Sequential:
        """A Sequential whose first layer performs the Z-scoring.

        z = (x - m) / s  ==  x @ diag(1/s) + (-m/s), i.e. a Linear.
        """
        means, stds = self.normalizer.to_arrays()
        norm_layer = Linear(
            NUM_FEATURES, NUM_FEATURES, dtype=self.dtype, name="zscore"
        )
        norm_layer.weight.value = Matrix(np.diag(1.0 / stds), dtype=self.dtype)
        norm_layer.bias.value = Matrix(
            (-means / stds).reshape(1, -1), dtype=self.dtype
        )
        deployable = Sequential(name=self.network.name + "-deploy")
        deployable.add(norm_layer)
        for layer in self.network.layers:
            deployable.add(layer)
        return deployable
