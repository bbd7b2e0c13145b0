"""UCB1 bandit tuner: feedback-driven tuning of one discrete knob.

Section 6: "we can build a feedback system in the kernel and transform
our readahead neural network model to [a] reinforcement learning
model."  Each window's throughput is the reward for the arm that was
active; no classifier or offline sweep is needed, at the cost of
exploration (the A2 ablation measures it).  Readahead (A2) and
writeback (A3) both run this tuner, with their own arms and actuator.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["UCB1Tuner"]


class UCB1Tuner:
    """UCB1 over ``arms`` with per-window throughput rewards.

    ``on_tick(sim_time, rate)`` credits ``rate`` to the active arm,
    picks the next one and calls ``actuate(arm)``.  Every arm is played
    once first.  Rewards are normalized against the best throughput
    seen so far so the exploration bonus stays commensurable across
    devices and knobs.
    """

    def __init__(
        self,
        arms: Sequence[Any],
        actuate: Callable[[Any], None],
        exploration: float = 1.2,
    ):
        if len(arms) < 2:
            raise ValueError("need at least two arms")
        if exploration <= 0:
            raise ValueError("exploration must be positive")
        self.arms = tuple(arms)
        self.actuate = actuate
        self.exploration = exploration
        self._pulls = [0] * len(self.arms)
        self._rewards = [0.0] * len(self.arms)
        self._active: Optional[int] = None
        self._best_rate = 1e-9
        self.history: List[Tuple[float, Any]] = []

    def _mean(self, i: int) -> float:
        return self._rewards[i] / self._pulls[i] if self._pulls[i] else 0.0

    def _select(self) -> int:
        if 0 in self._pulls:
            return self._pulls.index(0)
        log_total = math.log(sum(self._pulls))
        best, best_score = 0, -1.0
        for i, pulls in enumerate(self._pulls):
            score = self._mean(i) + self.exploration * math.sqrt(
                log_total / pulls
            )
            if score > best_score:
                best, best_score = i, score
        return best

    def on_tick(self, sim_time: float, rate: float) -> Any:
        """Credit the closing window, pick and actuate the next arm."""
        if self._active is not None:
            self._best_rate = max(self._best_rate, rate)
            self._pulls[self._active] += 1
            self._rewards[self._active] += rate / self._best_rate
        self._active = self._select()
        arm = self.arms[self._active]
        self.actuate(arm)
        self.history.append((sim_time, arm))
        return arm

    @property
    def best_arm(self) -> Any:
        """The first arm with the highest mean reward."""
        best = max(range(len(self.arms)), key=self._mean)
        return self.arms[best]

    def arm_means(self) -> Dict[Any, float]:
        return {arm: self._mean(i) for i, arm in enumerate(self.arms)}
