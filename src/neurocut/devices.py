"""Pools of fair two-state stochastic devices: seeded and independent."""

from __future__ import annotations

import numpy as np


class DevicePool:
    """count independent fair ±1 devices, redrawn on every timestep.

    The stream is a pure function of the seed and the number of states drawn
    so far, so a pool advanced k steps and a fresh pool fast-forwarded k steps
    produce the same next draw.
    """

    def __init__(self, count: int, seed: int = 0):
        if count < 1:
            raise ValueError("a pool needs at least one device")
        self.count = int(count)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def sample_steps(self, steps: int) -> np.ndarray:
        """(steps, count) float array of ±1; row k equals the k-th sequential draw."""
        if steps < 1:
            raise ValueError("steps must be positive")
        return 2.0 * (self._rng.random((steps, self.count)) < 0.5) - 1.0

    def covariance(self) -> np.ndarray:
        """Analytic single-step covariance: independent fair ±1 devices have unit variance."""
        return np.eye(self.count)
