"""Tests for the closed-loop agent."""

import numpy as np
import pytest

from repro.kml.decision_tree import DecisionTreeClassifier
from repro.os_sim import make_stack
from repro.os_sim.block_layer import DEFAULT_RA_PAGES
from repro.readahead.agent import ReadaheadAgent
from repro.readahead.model import ReadaheadClassifier, WORKLOAD_CLASSES
from repro.readahead.tuning import TuningTable
from repro.runtime.circular_buffer import CircularBuffer

from .test_models import synthetic_dataset


@pytest.fixture
def trained_deployable():
    x, y = synthetic_dataset()
    clf = ReadaheadClassifier(rng=np.random.default_rng(0), epochs=150).fit(x, y)
    return clf.to_deployable()


@pytest.fixture
def tuning():
    table = TuningTable()
    for workload, ra in (
        ("readseq", 32),
        ("readrandom", 8),
        ("readreverse", 32),
        ("readrandomwriterandom", 8),
    ):
        table.set("nvme", workload, ra)
    return table


def constant_class_tree(cls: int, in_features: int = 5) -> DecisionTreeClassifier:
    """A fitted tree that predicts class ``cls`` for any input."""
    x = np.random.default_rng(0).normal(size=(8, in_features))
    return DecisionTreeClassifier(max_depth=1).fit(x, np.full(8, cls))


def feed_random_pattern(stack, rng, n=300):
    for page in rng.integers(0, 100_000, size=n):
        stack.tracepoints.emit(
            "mark_page_accessed", stack.now, ino=1, page=int(page)
        )


class TestAgent:
    def test_tick_classifies_and_actuates(self, trained_deployable, tuning):
        stack = make_stack("nvme", ra_pages=128)
        agent = ReadaheadAgent(stack, trained_deployable, tuning, "nvme")
        rng = np.random.default_rng(1)
        # Fabricate a readrandom-looking window: ~37k events, huge deltas.
        feed_random_pattern(stack, rng, n=500)
        decision = agent.on_tick(0.1, 1000.0)
        assert decision.predicted_name in WORKLOAD_CLASSES
        assert stack.block.ra_pages == decision.ra_pages
        assert len(agent.history) == 1

    def test_per_file_actuation(self, trained_deployable, tuning):
        stack = make_stack("nvme", ra_pages=128)
        handle = stack.fs.open("f", create=True)
        agent = ReadaheadAgent(
            stack, trained_deployable, tuning, "nvme", files=[handle]
        )
        agent.apply(8)
        assert handle.ra_override == 8
        assert stack.block.ra_pages == 8

    def test_sample_buffer_receives_snapshots(self, trained_deployable, tuning):
        stack = make_stack("nvme", ra_pages=128)
        buffer = CircularBuffer(16)
        agent = ReadaheadAgent(
            stack, trained_deployable, tuning, "nvme", sample_buffer=buffer
        )
        feed_random_pattern(stack, np.random.default_rng(2), n=50)
        agent.on_tick(0.1, 10.0)
        assert len(buffer) == 1
        sample = buffer.pop()
        assert sample.shape == (5,)

    def test_ra_timeline_matches_history(self, trained_deployable, tuning):
        stack = make_stack("nvme", ra_pages=128)
        agent = ReadaheadAgent(stack, trained_deployable, tuning, "nvme")
        for t in (0.1, 0.2, 0.3):
            feed_random_pattern(stack, np.random.default_rng(3), n=50)
            agent.on_tick(t, 1.0)
        timeline = agent.ra_timeline
        assert [t for t, _ in timeline] == [0.1, 0.2, 0.3]

    def test_smoothing_majority_vote(self, tuning):
        """With smoothing=3, one outlier prediction must not actuate."""

        class FixedModel:
            def __init__(self):
                self.sequence = [1, 1, 2, 1]  # readrandom x2, reverse, random
                self.calls = 0

            def predict_classes(self, x, dtype=None):
                value = self.sequence[min(self.calls, len(self.sequence) - 1)]
                self.calls += 1
                return np.array([value])

        stack = make_stack("nvme", ra_pages=128)
        agent = ReadaheadAgent(
            stack, FixedModel(), tuning, "nvme", smoothing=3
        )
        decisions = [agent.on_tick(t, 1.0) for t in (0.1, 0.2, 0.3, 0.4)]
        # Tick 3 predicts readreverse but the majority is readrandom.
        assert decisions[2].predicted_name == "readrandom"

    def test_smoothing_validation(self, trained_deployable, tuning):
        stack = make_stack("nvme", ra_pages=128)
        with pytest.raises(ValueError):
            ReadaheadAgent(stack, trained_deployable, tuning, "nvme", smoothing=0)

    def test_mean_inference_time_recorded(self, trained_deployable, tuning):
        stack = make_stack("nvme", ra_pages=128)
        agent = ReadaheadAgent(stack, trained_deployable, tuning, "nvme")
        feed_random_pattern(stack, np.random.default_rng(4), n=50)
        agent.on_tick(0.1, 1.0)
        assert agent.history[0].inference_wall_s > 0

    def test_detach_stops_observing(self, trained_deployable, tuning):
        stack = make_stack("nvme", ra_pages=128)
        agent = ReadaheadAgent(stack, trained_deployable, tuning, "nvme")
        agent.detach()
        feed_random_pattern(stack, np.random.default_rng(5), n=50)
        assert agent.collector.events_seen == 0


class TestDegradedFallback:
    def test_unhealthy_plane_pins_fallback_ra(self, trained_deployable, tuning):
        """While the health predicate is False the agent must not run
        inference (nor feed the trainer) and must restore the default
        heuristic readahead -- the TrainerSupervisor DEGRADED contract."""
        stack = make_stack("nvme", ra_pages=128)
        buffer = CircularBuffer(16)
        healthy = [True]
        agent = ReadaheadAgent(
            stack, trained_deployable, tuning, "nvme",
            sample_buffer=buffer, health=lambda: healthy[0],
        )
        feed_random_pattern(stack, np.random.default_rng(6), n=200)
        agent.on_tick(0.1, 1.0)
        assert len(buffer) == 1  # healthy: sample pushed, model actuated
        healthy[0] = False
        decision = agent.on_tick(0.2, 1.0)
        assert decision.predicted_name == "degraded"
        assert stack.block.ra_pages == DEFAULT_RA_PAGES
        assert len(buffer) == 1  # no new sample for the dead trainer
        assert agent.skipped_degraded == 1
        healthy[0] = True
        feed_random_pattern(stack, np.random.default_rng(7), n=200)
        agent.on_tick(0.3, 1.0)  # recovery: inference resumes
        assert len(buffer) == 2
        assert agent.history[-1].predicted_name != "degraded"


class TestLocalTree:
    def test_decision_tree_drives_decision(self, tuning):
        stack = make_stack("nvme", ra_pages=128)
        agent = ReadaheadAgent(stack, constant_class_tree(3), tuning, "nvme")
        decision = agent.on_tick(0.1, 1.0)
        assert decision.predicted_name == "readrandomwriterandom"
        assert stack.block.ra_pages == 8
