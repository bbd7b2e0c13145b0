"""E7 -- Element-type trade-off (paper section 3.1).

KML supports integer (fixed-point), float, and double matrices so
kernel deployments can trade accuracy against FPU usage.  This bench
measures matmul cost, single-row inference latency of the deployed
readahead network and end-model accuracy across the three element
types.  Expected shape: fixed-point accuracy within a few points of
float32/float64 on the readahead task.
"""

import time

import numpy as np
import pytest

from common import write_result

from repro.kml import CrossEntropyLoss, SGD
from repro.kml.matrix import Matrix
from repro.readahead import ReadaheadClassifier

#: Single-row inferences timed per dtype; the median is reported.
INFER_REPEATS = 2000

_RESULTS = {}


def _report():
    if {"float32", "float64", "fixed32"} <= set(_RESULTS):
        lines = [
            "Element-type trade-off (matmul 64x64 @ 64x64; single-row"
            " predict_classes of the deployed readahead network)"
        ]
        for dtype in ("float32", "float64", "fixed32"):
            t, infer_s, acc = _RESULTS[dtype]
            lines.append(
                f"{dtype:8s}: matmul {t * 1e6:8.1f} us,"
                f" single-row inference {infer_s * 1e6:6.1f} us,"
                f" readahead-model accuracy {acc * 100:5.1f}%"
            )
        write_result("dtypes.txt", "\n".join(lines))


def _train(dtype, dataset):
    clf = ReadaheadClassifier(
        dtype=dtype, rng=np.random.default_rng(0), epochs=200
    )
    return clf.fit(dataset.x, dataset.y)


def _single_row_inference_s(clf, x):
    """Median seconds of one single-row ``predict_classes`` on the
    deployed (z-score folded) network, cycling through the rows of ``x``."""
    model = clf.to_deployable()
    model.predict_classes(x[:1], dtype=clf.dtype)  # first call builds lazy state
    times = []
    for i in range(INFER_REPEATS):
        row = x[i % len(x) : i % len(x) + 1]
        start = time.perf_counter()
        model.predict_classes(row, dtype=clf.dtype)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


@pytest.mark.benchmark(group="dtypes")
@pytest.mark.parametrize("dtype", ["float32", "float64", "fixed32"])
def test_dtype_matmul_and_accuracy(benchmark, dtype, training_dataset):
    rng = np.random.default_rng(1)
    a = Matrix(rng.uniform(-2, 2, size=(64, 64)), dtype=dtype)
    b = Matrix(rng.uniform(-2, 2, size=(64, 64)), dtype=dtype)

    benchmark(lambda: a @ b)
    clf = _train(dtype, training_dataset)
    accuracy = clf.accuracy(training_dataset.x, training_dataset.y)
    infer_s = _single_row_inference_s(clf, training_dataset.x)
    _RESULTS[dtype] = (benchmark.stats["mean"], infer_s, accuracy)
    _report()

    # Fixed point must stay usable (the paper's whole premise).
    if dtype == "fixed32":
        float_acc = _RESULTS.get("float32", (0, accuracy))[1]
        assert accuracy > float_acc - 0.15
    assert accuracy > 0.6
