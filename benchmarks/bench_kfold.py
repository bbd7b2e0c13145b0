"""E2 -- Model validation: 10-fold cross-validation accuracy.

The paper: "We measured the performance of our neural network using
k-fold cross-validation with k = 10, and found that our model reached
an average accuracy of 95.5%."  Same protocol, our collected data.
Expected shape: high (>85%) mean accuracy, and the NN outperforming
the decision tree (the paper keeps the NN for being superior).
"""

import numpy as np
import pytest

from common import write_result

from repro.kml.metrics import k_fold_cross_validate
from repro.readahead import ReadaheadClassifier, build_tree
from repro.stats.correlation import feature_label_correlations


@pytest.mark.benchmark(group="kfold")
def test_kfold_accuracy(benchmark, training_dataset):
    outcome = {}

    def run_cv():
        outcome["nn"] = k_fold_cross_validate(
            lambda: ReadaheadClassifier(rng=np.random.default_rng(1)),
            training_dataset.x,
            training_dataset.y,
            k=10,
            rng=np.random.default_rng(2),
        )
        outcome["tree"] = k_fold_cross_validate(
            build_tree,
            training_dataset.x,
            training_dataset.y,
            k=10,
            rng=np.random.default_rng(2),
        )
        return outcome

    benchmark.pedantic(run_cv, rounds=1, iterations=1)

    correlations = feature_label_correlations(
        training_dataset.x, training_dataset.y
    )
    names = ["count", "offset_cma", "offset_cmstd", "mean_abs_delta", "ra"]
    lines = [
        "Readahead model validation (10-fold cross-validation)",
        f"dataset: {len(training_dataset)} windows, "
        f"class counts {training_dataset.class_counts().tolist()}",
        f"neural network: {outcome['nn']}   (paper: 95.5%)",
        f"decision tree : {outcome['tree']}",
        "feature |Pearson r| vs label: "
        + ", ".join(f"{n}={c:.2f}" for n, c in zip(names, correlations)),
    ]
    write_result("kfold.txt", "\n".join(lines))

    assert outcome["nn"].mean_accuracy > 0.85
    # The paper reports the NN as the superior model.
    assert outcome["nn"].mean_accuracy >= outcome["tree"].mean_accuracy - 0.02
