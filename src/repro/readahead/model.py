"""The readahead neural network: a 3-layer workload classifier.

Paper section 4: "Our model has three linear layers, and these layers
are connected with sigmoid activation functions ... We used the
cross-entropy loss function and optimized our network using an SGD
optimizer, configured with a (conventional) learning rate of 0.01 and
a momentum of 0.99."  Inputs are the five Z-scored features; outputs
are the four training workload classes.  The recipe itself is
:class:`repro.kml.classifier.NeuralClassifier`; this module fixes the
paper's sizes and constants.  :func:`build_tree` gives the paper's
decision-tree variant of the same classifier.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..kml.classifier import NeuralClassifier
from ..kml.decision_tree import DecisionTreeClassifier
from ..kml.network import Sequential
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
HIDDEN = (32, 16)


def build_network(
    dtype: str = "float32", rng: Optional[np.random.Generator] = None
) -> Sequential:
    """The paper's network, untrained: 5 features, 32/16 hidden, 4 classes."""
    return ReadaheadClassifier(dtype=dtype, rng=rng).network


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


class ReadaheadClassifier(NeuralClassifier):
    """The classifier recipe with the paper's sizes and SGD constants."""

    def __init__(
        self,
        dtype: str = "float32",
        rng: Optional[np.random.Generator] = None,
        epochs: int = 400,
    ):
        super().__init__(
            NUM_FEATURES, len(WORKLOAD_CLASSES), HIDDEN, LEARNING_RATE,
            MOMENTUM, epochs, "readahead-nn", dtype=dtype, rng=rng,
        )
