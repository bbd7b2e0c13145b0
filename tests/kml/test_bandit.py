"""Tests for the UCB1 tuner, on each knob it drives."""

import pytest

from repro.kml import UCB1Tuner
from repro.os_sim import make_stack
from repro.writeback import DEFAULT_CONFIGS, WritebackConfig

#: knob -> (arms, actuate(stack), read(stack)): readahead sizes through
#: ``set_readahead``, writeback policies through ``WritebackConfig.apply``,
#: each read back from the stack itself.
KNOBS = {
    "readahead": (
        (8, 32, 128),
        lambda stack: stack.set_readahead,
        lambda stack: stack.block.ra_pages,
    ),
    "writeback": (
        DEFAULT_CONFIGS[1:4],
        lambda stack: lambda config: config.apply(stack),
        lambda stack: WritebackConfig(
            stack.cache.dirty_threshold, stack.cache.writeback_batch
        ),
    ),
}


@pytest.fixture(params=sorted(KNOBS))
def knob(request):
    """``(arms, stack, make(**kwargs) -> tuner, read(stack))``."""
    arms, actuate, read = KNOBS[request.param]
    stack = make_stack("nvme", ra_pages=128)

    def make(arms=arms, **kwargs):
        return UCB1Tuner(arms, actuate(stack), **kwargs)

    return arms, stack, make, read


class TestUCB1Tuner:
    def test_plays_every_arm_first(self, knob):
        arms, _, make, _ = knob
        tuner = make()
        chosen = [tuner.on_tick(0.1 * t, 100.0) for t in range(len(arms))]
        assert chosen == list(arms)

    def test_converges_to_best_arm(self, knob):
        arms, _, make, _ = knob
        tuner = make(exploration=0.4)
        rewards = dict(zip(arms, (1000.0, 400.0, 150.0)))
        arm = tuner.on_tick(0.0, 0.0)
        for step in range(1, 200):
            arm = tuner.on_tick(step * 0.1, rewards[arm])
        assert tuner.best_arm == arms[0]
        # Late-phase choices should mostly be the best arm.
        late = [a for _, a in tuner.history[-50:]]
        assert late.count(arms[0]) > 35

    def test_ties_go_to_the_first_arm(self, knob):
        arms, _, make, _ = knob
        tuner = make()
        for t in range(2 * len(arms)):
            tuner.on_tick(0.1 * t, 100.0)
        assert len(set(tuner.arm_means().values())) == 1
        assert tuner.best_arm == arms[0]

    def test_actuates_stack(self, knob):
        _, stack, make, read = knob
        tuner = make()
        for t in range(4):
            arm = tuner.on_tick(0.1 * t, 1.0)
            assert read(stack) == arm

    def test_validation(self, knob):
        arms, _, make, _ = knob
        with pytest.raises(ValueError):
            make(arms=arms[:1])
        with pytest.raises(ValueError):
            make(exploration=0.0)

    def test_arm_means_exposed(self, knob):
        arms, _, make, _ = knob
        tuner = make()
        tuner.on_tick(0.0, 0.0)
        tuner.on_tick(0.1, 50.0)
        means = tuner.arm_means()
        assert list(means) == list(arms)
        assert means[arms[0]] == 1.0
