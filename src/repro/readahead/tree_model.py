"""Decision-tree variant of the readahead model.

"KML currently supports neural networks and decision trees.  We have
also implemented a decision tree for the readahead use-case to show how
different ML approaches perform on the same problem" (section 4).  The
paper reports smaller (but still positive) gains for the tree: SSD 55%
and NVMe 26% average.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kml.decision_tree import DecisionTreeClassifier
from .features import NUM_FEATURES
from .model import WORKLOAD_CLASSES

__all__ = ["ReadaheadTreeModel"]


class ReadaheadTreeModel:
    """CART workload classifier with the same interface as the NN model.

    Trees need no feature normalization; to make it a weaker model than
    the NN -- reproducing the paper's ordering -- the default depth is
    deliberately shallow.
    """

    def __init__(
        self,
        classes: Sequence[str] = WORKLOAD_CLASSES,
        max_depth: int = 3,
        min_samples_leaf: int = 4,
    ):
        self.classes = tuple(classes)
        self.num_features = NUM_FEATURES
        self.tree = DecisionTreeClassifier(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf
        )

    def fit(self, x, labels) -> "ReadaheadTreeModel":
        self.tree.fit(np.asarray(x, dtype=np.float64), labels)
        return self

    def predict(self, x) -> np.ndarray:
        return self.tree.predict(x)

    def accuracy(self, x, labels) -> float:
        return self.tree.accuracy(x, labels)
