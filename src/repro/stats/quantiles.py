"""Streaming quantiles (the P-squared algorithm).

Storage tuning cares about tails -- the paper's related work (MittOS,
LinnOS) is built around millisecond tail latency -- and a kernel cannot
buffer every latency sample to sort later.  The P² algorithm (Jain &
Chlamtac, 1985) estimates a quantile online with five markers and O(1)
updates, which is exactly the budget an in-kernel observer has.
"""

from __future__ import annotations

from typing import List

__all__ = ["P2Quantile"]


class P2Quantile:
    """Online estimate of one quantile via the P² algorithm.

    The first five observations are stored exactly; afterwards five
    markers track (min, q/2, q, (1+q)/2, max) heights and are adjusted
    with parabolic interpolation.  Accuracy is within a few percent for
    smooth distributions, using constant memory.
    """

    def __init__(self, quantile: float):
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        self.quantile = quantile
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments: List[float] = []
        self.count = 0

    def update(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self._heights:
            self._update_markers(value)
            return
        self._initial.append(value)
        if len(self._initial) == 5:
            self._initial.sort()
            q = self.quantile
            self._heights = list(self._initial)
            self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
            self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
            self._increments = [0.0, q / 2, q, (1 + q) / 2, 1.0]

    def _update_markers(self, value: float) -> None:
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers.
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                direction = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, direction)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, direction)
                positions[i] += direction

    def _parabolic(self, i: int, direction: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + direction / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + direction)
            * (h[i + 1] - h[i])
            / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - direction)
            * (h[i] - h[i - 1])
            / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, direction: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(direction)
        return h[i] + direction * (h[j] - h[i]) / (p[j] - p[i])

    @property
    def value(self) -> float:
        """Current quantile estimate (exact below five samples)."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return 0.0
        ordered = sorted(self._initial)
        index = min(
            len(ordered) - 1, int(round(self.quantile * (len(ordered) - 1)))
        )
        return ordered[index]
