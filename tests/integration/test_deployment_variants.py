"""Integration: alternative deployment paths for the readahead model.

The paper's framework supports multiple element types and compact
representations for kernel deployment; these tests run the *whole*
closed loop with a fixed-point network and with an int8-quantized
network, proving the variants are drop-in at the agent level, and with
the loop golden's committed network in either dtype.
"""

import numpy as np
import pytest

from repro.kml import load_model, quantize_model
from repro.kml.layers import Linear
from repro.kml.matrix import Matrix
from repro.kml.network import Sequential
from repro.readahead import ReadaheadAgent, ReadaheadClassifier, TuningTable
from repro.workloads import load_stack, run_closed_loop

from . import test_loop_golden as golden
from .test_closed_loop import run_tiny_loop


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


def committed_model(dtype):
    """The loop golden's committed network, with ``dtype`` parameters."""
    layers = []
    for layer in load_model(golden.MODEL).layers:
        if isinstance(layer, Linear):
            weight = layer.weight.value.to_numpy()
            copy = Linear(*weight.shape, dtype=dtype, name=layer.name)
            copy.weight.value = Matrix(weight, dtype=dtype)
            copy.bias.value = Matrix(layer.bias.value.to_numpy(), dtype=dtype)
            layer = copy
        layers.append(layer)
    return Sequential(layers)


def run_loop(deployable, tuning):
    result, agent = run_tiny_loop(
        "nvme",
        lambda stack: ReadaheadAgent(stack, deployable, tuning, "nvme", smoothing=3),
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
        tput, agent = run_loop(deployable, tuning)
        assert len(agent.history) >= 3
        assert tput > 0


class TestCommittedModel:
    @pytest.mark.parametrize("dtype", ["float32", "fixed32"])
    def test_runs_golden_loop(self, dtype):
        """The loop golden's committed network, as float32 and as a
        fixed32 copy, drives the golden readrandom loop: the agent
        encodes inputs in the model's own dtype."""
        deployable = committed_model(dtype)
        tuning = TuningTable.load(golden.TUNING)
        loaded = load_stack(
            "nvme", golden.NUM_KEYS, golden.VALUE_SIZE, golden.CACHE_PAGES,
            seed=golden.SEED,
        )
        result, agent = run_closed_loop(
            loaded, "readrandom",
            policy=lambda stack: ReadaheadAgent(
                stack, deployable, tuning, "nvme", smoothing=golden.SMOOTHING
            ),
            ra_pages=128, sim_seconds=golden.SIM_SECONDS,
            window=golden.WINDOW_S,
        )
        assert len(agent.history) >= 3
        assert len({d.predicted_class for d in agent.history}) > 1
        assert result.throughput > 0
