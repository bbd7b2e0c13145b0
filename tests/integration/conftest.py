"""The tiny closed-loop dataset and classifier, built once per session.

Collecting the dataset runs the simulator for several seconds and the
fit takes 250 epochs; ``test_closed_loop`` and
``test_deployment_variants`` both read them, and neither changes them.
"""

import numpy as np
import pytest

from repro.readahead import (
    CollectionConfig,
    ReadaheadClassifier,
    collect_training_data,
)

TINY = dict(num_keys=6000, value_size=200, cache_pages=128)


@pytest.fixture(scope="session")
def tiny_dataset():
    config = CollectionConfig(
        ra_values=(8, 64, 256),
        windows_per_value=2,
        ra_passes=2,
        **TINY,
    )
    return collect_training_data(config)


@pytest.fixture(scope="session")
def tiny_classifier(tiny_dataset):
    clf = ReadaheadClassifier(rng=np.random.default_rng(0), epochs=250)
    return clf.fit(tiny_dataset.x, tiny_dataset.y)
