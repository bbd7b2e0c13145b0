"""Reinforcement-learning readahead tuner (the paper's future work).

Section 6: "we can build a feedback system in the kernel and transform
our readahead neural network model to [a] reinforcement learning
model."  This module implements that extension as a UCB1 bandit over
the discrete readahead values: each window's throughput is the reward
for the arm that was active, no classifier or offline sweep needed.

It trades the classifier's instant, trained judgement for exploration
cost -- the ablation bench (A2) quantifies that trade on workloads the
classifier was never trained on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..os_sim.stack import StorageStack

__all__ = ["BanditReadaheadTuner"]

DEFAULT_ARMS = (8, 16, 32, 64, 128, 256, 512)


@dataclass
class _ArmStats:
    pulls: int = 0
    total_reward: float = 0.0

    @property
    def mean(self) -> float:
        return self.total_reward / self.pulls if self.pulls else 0.0


class BanditReadaheadTuner:
    """UCB1 over readahead values with per-window throughput rewards.

    Rewards are normalized against the best throughput seen so far so
    the exploration bonus stays commensurable across devices.
    """

    def __init__(
        self,
        stack: StorageStack,
        arms: Sequence[int] = DEFAULT_ARMS,
        exploration: float = 1.2,
    ):
        if len(arms) < 2:
            raise ValueError("need at least two arms")
        if exploration <= 0:
            raise ValueError("exploration must be positive")
        self.stack = stack
        self.arms = tuple(int(a) for a in arms)
        self.exploration = exploration
        self._stats: Dict[int, _ArmStats] = {a: _ArmStats() for a in self.arms}
        self._active_arm: Optional[int] = None
        self._best_rate = 1e-9
        self.history: List[Tuple[float, int]] = []
        self.total_pulls = 0

    # ------------------------------------------------------------------

    def _select_arm(self) -> int:
        # Play every arm once first.
        for arm in self.arms:
            if self._stats[arm].pulls == 0:
                return arm
        log_total = math.log(self.total_pulls)
        best_arm, best_score = self.arms[0], -1.0
        for arm in self.arms:
            stats = self._stats[arm]
            bonus = self.exploration * math.sqrt(log_total / stats.pulls)
            score = stats.mean + bonus
            if score > best_score:
                best_arm, best_score = arm, score
        return best_arm

    def on_tick(self, sim_time: float, rate: float) -> int:
        """Credit the window to the active arm, then pick the next one."""
        if self._active_arm is not None:
            self._best_rate = max(self._best_rate, rate)
            stats = self._stats[self._active_arm]
            stats.pulls += 1
            stats.total_reward += rate / self._best_rate
            self.total_pulls += 1
        arm = self._select_arm()
        self._active_arm = arm
        self.stack.set_readahead(arm)
        self.history.append((sim_time, arm))
        return arm

    # ------------------------------------------------------------------

    @property
    def best_arm(self) -> int:
        """Arm with the highest mean reward (ties to the smallest ra)."""
        return min(
            self.arms,
            key=lambda a: (-self._stats[a].mean, a),
        )

    def arm_means(self) -> Dict[int, float]:
        return {arm: self._stats[arm].mean for arm in self.arms}
