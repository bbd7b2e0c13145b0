"""Integration tests: the full pipeline at miniature scale.

These run the real closed loop -- collection, training, deployment,
agent -- on a deliberately tiny DB so the whole suite stays fast.  The
full-scale versions (matching the paper's numbers) live in benchmarks/.
"""

import numpy as np

from repro.kml import load_model, save_model
from repro.kml.metrics import k_fold_cross_validate
from repro.readahead import (
    ReadaheadAgent,
    ReadaheadClassifier,
    TuningTable,
    sweep_best_readahead,
)
from repro.runtime import AsyncTrainer, CircularBuffer, Mode
from repro.workloads import load_stack, run_closed_loop

from .conftest import TINY


def run_tiny_loop(device, policy=None, sim_seconds=0.8):
    """readrandom at TINY scale from vanilla readahead, under ``policy``."""
    loaded = load_stack(device, memtable_bytes=1 << 20, **TINY)
    return run_closed_loop(
        loaded, "readrandom", policy=policy, ra_pages=128,
        sim_seconds=sim_seconds, window=0.1, rng_seed=1,
    )


class TestCollection:
    def test_dataset_balanced_and_labeled(self, tiny_dataset):
        assert len(tiny_dataset) >= 30
        counts = tiny_dataset.class_counts()
        assert counts.min() > 0
        assert tiny_dataset.x.shape[1] == 5

    def test_features_finite(self, tiny_dataset):
        assert np.all(np.isfinite(tiny_dataset.x))


class TestTrainingPipeline:
    def test_classifier_beats_chance_out_of_fold(self, tiny_dataset):
        result = k_fold_cross_validate(
            lambda: ReadaheadClassifier(rng=np.random.default_rng(1), epochs=250),
            tiny_dataset.x,
            tiny_dataset.y,
            k=4,
            rng=np.random.default_rng(2),
        )
        assert result.mean_accuracy > 0.6  # chance = 0.25

    def test_save_deploy_load_inference_identical(self, tiny_classifier, tmp_path):
        deployable = tiny_classifier.to_deployable()
        path = str(tmp_path / "deploy.kml")
        save_model(deployable, path)
        loaded = load_model(path)
        probe = np.array([[5000.0, 900.0, 800.0, 50.0, 128.0]])
        np.testing.assert_array_equal(
            loaded.predict_classes(probe), deployable.predict_classes(probe)
        )


class TestSweep:
    def test_sweep_produces_full_table(self):
        tuning, sweep = sweep_best_readahead(
            "nvme",
            ("readrandom",),
            ra_values=(8, 128),
            num_keys=4000,
            value_size=200,
            cache_pages=128,
            ops_per_point=400,
        )
        assert set(sweep.results["readrandom"]) == {8, 128}
        assert tuning.best_ra("nvme", "readrandom") in (8, 128)

    def test_random_workload_prefers_small_ra(self):
        _, sweep = sweep_best_readahead(
            "ssd",
            ("readrandom",),
            ra_values=(8, 512),
            num_keys=6000,
            value_size=200,
            cache_pages=128,
            ops_per_point=800,
        )
        runs = sweep.results["readrandom"]
        assert runs[8].throughput > runs[512].throughput


class TestClosedLoop:
    def test_agent_improves_random_workload(self, tiny_classifier):
        tuning = TuningTable()
        for workload, ra in (
            ("readseq", 64),
            ("readrandom", 8),
            ("readreverse", 64),
            ("readrandomwriterandom", 8),
        ):
            tuning.set("nvme", workload, ra)
        deployable = tiny_classifier.to_deployable()

        vanilla = run_tiny_loop("nvme")[0].throughput
        tuned = run_tiny_loop(
            "nvme",
            lambda stack: ReadaheadAgent(
                stack, deployable, tuning, "nvme", smoothing=3
            ),
        )[0].throughput
        assert tuned > vanilla * 1.1  # the loop must actually help

    def test_agent_with_async_trainer_in_the_loop(self, tiny_classifier, tiny_dataset):
        """Kernel-training mode: samples flow through the circular
        buffer to the async trainer while the agent inferences."""
        tuning = TuningTable()
        for workload in ("readseq", "readrandom", "readreverse",
                         "readrandomwriterandom"):
            tuning.set("nvme", workload, 32)
        loaded = load_stack(
            "nvme", 3000, 200, TINY["cache_pages"], memtable_bytes=1 << 20,
            seed=0,
        )
        buffer = CircularBuffer(256)
        trained_batches = []
        trainer = AsyncTrainer(buffer, train_fn=trained_batches.append)
        with trainer:
            _, agent = run_closed_loop(
                loaded,
                "readrandom",
                policy=lambda stack: ReadaheadAgent(
                    stack,
                    tiny_classifier.to_deployable(),
                    tuning,
                    "nvme",
                    sample_buffer=buffer,
                ),
                sim_seconds=0.6,
                window=0.1,
            )
        assert trainer.samples_seen == len(agent.history)
        assert sum(len(b) for b in trained_batches) == len(agent.history)


class TestCrossDeviceGeneralization:
    """Paper claim: trained on NVMe, the model still helps on the SSD
    (different device, shifted feature distributions)."""

    def test_nvme_trained_model_improves_ssd_workload(self, tiny_classifier):
        tuning = TuningTable()
        for device in ("nvme", "ssd"):
            for workload, ra in (
                ("readseq", 64),
                ("readrandom", 8),
                ("readreverse", 64),
                ("readrandomwriterandom", 8),
            ):
                tuning.set(device, workload, ra)
        deployable = tiny_classifier.to_deployable()

        vanilla = run_tiny_loop("ssd", sim_seconds=1.0)[0].throughput
        tuned = run_tiny_loop(
            "ssd",
            lambda stack: ReadaheadAgent(
                stack, deployable, tuning, "ssd", smoothing=3
            ),
            sim_seconds=1.0,
        )[0].throughput
        # Trained on NVMe features, deployed on SSD: must still win.
        assert tuned > vanilla * 1.15
