#!/usr/bin/env python
"""Workload classification deep-dive: features, selection, NN vs tree.

Reproduces the modelling part of section 4 in isolation: collect the
eight candidate features, show the Pearson screen that keeps five, and
compare the paper's neural network against the decision-tree variant
with a confusion matrix.

Run:  python examples/workload_classification.py    (~1-2 minutes)
"""

import numpy as np

from repro.kml.metrics import (
    classification_report,
    confusion_matrix,
    k_fold_cross_validate,
)
from repro.readahead import (
    CollectionConfig,
    ReadaheadClassifier,
    build_tree,
    collect_training_data,
)
from repro.readahead.features import FEATURE_NAMES
from repro.stats.correlation import feature_label_correlations

CLASSES = ("readseq", "readrandom", "readreverse", "readrandomwriterandom")


def main():
    print("collecting feature windows from the four training workloads ...")
    config = CollectionConfig(
        num_keys=30_000,
        value_size=400,
        cache_pages=256,
        ra_values=(8, 64, 512),
        windows_per_value=3,
        ra_passes=2,
    )
    dataset = collect_training_data(config)
    print(f"{len(dataset)} windows, class counts {dataset.class_counts()}\n")

    # Feature screen (the paper: 8 candidates -> 5 by accuracy +
    # Pearson confirmation).  Our dataset stores the final five; here we
    # show their correlation with the label.
    correlations = feature_label_correlations(dataset.x, dataset.y)
    print("per-feature |Pearson r| against the workload label:")
    for name, r in zip(dataset.feature_names or FEATURE_NAMES, correlations):
        print(f"  {name:18s} {r:.3f}")

    # Train both model families.
    nn = ReadaheadClassifier(rng=np.random.default_rng(0))
    nn.fit(dataset.x, dataset.y)
    tree = build_tree().fit(dataset.x, dataset.y)

    print("\n10-fold cross-validation:")
    print("  neural net   :", k_fold_cross_validate(
        lambda: ReadaheadClassifier(rng=np.random.default_rng(1)),
        dataset.x, dataset.y, k=10, rng=np.random.default_rng(2)))
    print("  decision tree:", k_fold_cross_validate(
        build_tree, dataset.x, dataset.y, k=10,
        rng=np.random.default_rng(2)))

    print("\nneural-net confusion matrix (rows = truth, cols = predicted):")
    cm = confusion_matrix(dataset.y, nn.predict(dataset.x), len(CLASSES))
    width = max(len(c) for c in CLASSES)
    header = " " * (width + 1) + " ".join(f"{c[:8]:>9s}" for c in CLASSES)
    print(header)
    for name, row in zip(CLASSES, cm):
        print(f"{name:>{width}s} " + " ".join(f"{v:>9d}" for v in row))

    print("\nper-class report (NN, in-sample):")
    print(classification_report(dataset.y, nn.predict(dataset.x), CLASSES))

    print("\ntree depth:", tree.depth, "nodes:", tree.num_nodes)
    print("NN parameters:", nn.network.num_parameters,
          f"({sum(p.value.nbytes for p in nn.network.parameters())} bytes)")


if __name__ == "__main__":
    main()
