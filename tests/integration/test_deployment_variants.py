"""Integration: alternative deployment paths for the readahead model.

The paper's framework supports multiple element types and compact
representations for kernel deployment; these tests run the *whole*
closed loop with a fixed-point network and with an int8-quantized
network, proving the variants are drop-in at the agent level.
"""

import numpy as np
import pytest

from repro.kml import quantize_model
from repro.readahead import ReadaheadAgent, ReadaheadClassifier, TuningTable

from .test_closed_loop import (  # noqa: F401
    run_tiny_loop,
    tiny_classifier,
    tiny_dataset,
)


@pytest.fixture(scope="module")
def tuning():
    table = TuningTable()
    for workload, ra in (
        ("readseq", 64),
        ("readrandom", 8),
        ("readreverse", 64),
        ("readrandomwriterandom", 8),
    ):
        table.set("nvme", workload, ra)
    return table


def run_loop(deployable, tuning, dtype="float32"):
    result, agent = run_tiny_loop(
        "nvme",
        lambda stack: ReadaheadAgent(
            stack, deployable, tuning, "nvme", smoothing=3, dtype=dtype
        ),
        sim_seconds=0.6,
    )
    return result.throughput, agent


class TestQuantizedDeployment:
    def test_quantized_agent_runs_and_helps(self, tiny_classifier, tuning):
        float_deploy = tiny_classifier.to_deployable()
        quantized = quantize_model(float_deploy)
        q_tput, q_agent = run_loop(quantized, tuning)
        f_tput, _ = run_loop(float_deploy, tuning)
        assert len(q_agent.history) >= 3
        # The int8 model must land in the same throughput ballpark.
        assert q_tput > 0.8 * f_tput

    def test_quantized_predictions_mostly_agree(self, tiny_classifier,
                                                tiny_dataset):
        float_deploy = tiny_classifier.to_deployable()
        quantized = quantize_model(float_deploy)
        agree = np.mean(
            quantized.predict_classes(tiny_dataset.x, dtype="float32")
            == float_deploy.predict_classes(tiny_dataset.x)
        )
        assert agree > 0.9


class TestFixedPointDeployment:
    def test_fixed32_classifier_closed_loop(self, tiny_dataset, tuning):
        clf = ReadaheadClassifier(
            dtype="fixed32", rng=np.random.default_rng(0), epochs=250
        )
        clf.fit(tiny_dataset.x, tiny_dataset.y)
        assert clf.accuracy(tiny_dataset.x, tiny_dataset.y) > 0.7
        deployable = clf.to_deployable()
        tput, agent = run_loop(deployable, tuning, dtype="fixed32")
        assert len(agent.history) >= 3
        assert tput > 0
