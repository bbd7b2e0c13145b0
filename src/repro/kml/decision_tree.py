"""CART decision-tree classifier.

KML "currently supports neural networks and decision trees"; the paper
evaluates a decision-tree readahead model that improved SSD throughput
55% and NVMe 26% on average.  This is a from-scratch CART with Gini
impurity, depth and leaf-size controls, and the same save/load format
hooks as the neural models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["DecisionTreeClassifier", "TreeNode"]


@dataclass
class TreeNode:
    """One tree node; leaves carry a class, splits carry a test."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    prediction: int = -1
    # class histogram at this node, useful for probability output
    counts: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    probs = counts / total
    return float(1.0 - np.sum(probs * probs))


class DecisionTreeClassifier:
    """Binary-split CART classifier over dense float features.

    Splits greedily minimize weighted Gini impurity; candidate
    thresholds are midpoints between consecutive distinct sorted
    feature values.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
    ):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.root: Optional[TreeNode] = None
        self.num_classes = 0
        self.num_features = 0

    # ------------------------------------------------------------------

    def fit(self, x, labels) -> "DecisionTreeClassifier":
        x = np.asarray(x, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if len(labels) != len(x):
            raise ValueError(f"{len(labels)} labels for {len(x)} samples")
        if len(x) == 0:
            raise ValueError("cannot fit an empty dataset")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative integers")
        self.num_classes = int(labels.max()) + 1
        self.num_features = x.shape[1]
        self.root = self._build(x, labels, depth=0)
        return self

    def _class_counts(self, labels: np.ndarray) -> np.ndarray:
        return np.bincount(labels, minlength=self.num_classes).astype(np.float64)

    def _build(self, x: np.ndarray, labels: np.ndarray, depth: int) -> TreeNode:
        counts = self._class_counts(labels)
        prediction = int(np.argmax(counts))
        node = TreeNode(prediction=prediction, counts=counts)
        if (
            depth >= self.max_depth
            or len(labels) < self.min_samples_split
            or _gini(counts) == 0.0
        ):
            return node
        split = self._best_split(x, labels, counts)
        if split is None:
            return node
        feature, threshold = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], labels[mask], depth + 1)
        node.right = self._build(x[~mask], labels[~mask], depth + 1)
        return node

    def _best_split(self, x, labels, parent_counts):
        """Scan every feature for the threshold minimizing weighted Gini."""
        n = len(labels)
        parent_gini = _gini(parent_counts)
        best = None
        best_score = parent_gini - 1e-12  # must strictly improve
        for feature in range(self.num_features):
            order = np.argsort(x[:, feature], kind="stable")
            values = x[order, feature]
            sorted_labels = labels[order]
            left_counts = np.zeros(self.num_classes, dtype=np.float64)
            right_counts = parent_counts.copy()
            for i in range(n - 1):
                label = sorted_labels[i]
                left_counts[label] += 1
                right_counts[label] -= 1
                if values[i] == values[i + 1]:
                    continue
                n_left = i + 1
                n_right = n - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                score = (
                    n_left * _gini(left_counts) + n_right * _gini(right_counts)
                ) / n
                if score < best_score:
                    best_score = score
                    best = (feature, float((values[i] + values[i + 1]) / 2.0))
        return best

    # ------------------------------------------------------------------

    def _walk(self, row: np.ndarray) -> TreeNode:
        node = self.root
        if node is None:
            raise RuntimeError("predict before fit")
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node

    def predict(self, x) -> np.ndarray:
        """Class label per row."""
        if self.root is None:
            raise RuntimeError("predict before fit")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {x.shape[1]}"
            )
        return np.array([self._walk(row).prediction for row in x], dtype=np.int64)

    def accuracy(self, x, labels) -> float:
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        return float(np.mean(self.predict(x) == labels))

    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        def measure(node: Optional[TreeNode]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self.root)

    @property
    def num_nodes(self) -> int:
        def count(node: Optional[TreeNode]) -> int:
            if node is None:
                return 0
            return 1 + count(node.left) + count(node.right)

        return count(self.root)

    def to_records(self) -> List[dict]:
        """Flatten the tree to records for the model file format."""
        records: List[dict] = []

        def emit(node: TreeNode) -> int:
            idx = len(records)
            records.append({})
            left = emit(node.left) if node.left else -1
            right = emit(node.right) if node.right else -1
            records[idx] = {
                "feature": node.feature,
                "threshold": node.threshold,
                "left": left,
                "right": right,
                "prediction": node.prediction,
                "counts": (node.counts if node.counts is not None else
                           np.zeros(self.num_classes)).tolist(),
            }
            return idx

        if self.root is not None:
            emit(self.root)
        return records

    @classmethod
    def from_records(
        cls, records: List[dict], num_classes: int, num_features: int
    ) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from :meth:`to_records` output."""
        tree = cls()
        tree.num_classes = num_classes
        tree.num_features = num_features

        def build(idx: int) -> TreeNode:
            rec = records[idx]
            node = TreeNode(
                feature=rec["feature"],
                threshold=rec["threshold"],
                prediction=rec["prediction"],
                counts=np.asarray(rec["counts"], dtype=np.float64),
            )
            if rec["left"] >= 0:
                node.left = build(rec["left"])
            if rec["right"] >= 0:
                node.right = build(rec["right"])
            return node

        if records:
            tree.root = build(0)
        return tree
