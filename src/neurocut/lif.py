"""Discrete-time leaky integrator population driven by a device pool."""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter


class LifPopulation:
    """n leaky integrate-and-fire units fed by r devices through a weight matrix.

    Forward-Euler membrane update per step:

        V <- (1 - alpha) V + (dt / C) (W s),

    with alpha = dt / (R C) the leak per step. There is no spiking:
    circuits read the membrane signs.
    """

    def __init__(self, weights, alpha: float = 0.05, C: float = 1.0, dt: float = 1.0):
        w = np.array(weights, dtype=float)
        if w.ndim != 2:
            raise ValueError("weights must be a 2-d array (units x devices)")
        w.setflags(write=False)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"leak factor alpha = {alpha} outside (0, 1); the Euler chain would not be stable")
        self.weights = w
        self.n, self.r = w.shape
        self.C = float(C)
        self.dt = float(dt)
        self.alpha = float(alpha)
        self.V = np.zeros(self.n)

    def reset(self) -> None:
        self.V[:] = 0.0

    def step(self, states) -> np.ndarray:
        """Advance one timestep with the given device states; returns the live membrane."""
        s = np.asarray(states, dtype=float)
        if s.shape != (self.r,):
            raise ValueError(f"device state has shape {s.shape}, expected ({self.r},)")
        self.V *= 1.0 - self.alpha
        self.V += (self.dt / self.C) * (self.weights @ s)
        return self.V

    def simulate(self, states) -> np.ndarray:
        """Membrane trajectory for a (T, r) state sequence starting from V = 0.

        Equivalent to reset() followed by T step() calls but computed as a
        linear recurrence filter; does not touch the live membrane state.
        """
        s = np.asarray(states, dtype=float)
        if s.ndim != 2 or s.shape[1] != self.r:
            raise ValueError(f"state sequence has shape {s.shape}, expected (T, {self.r})")
        drive = (self.dt / self.C) * (s @ self.weights.T)
        return lfilter([1.0], [1.0, -(1.0 - self.alpha)], drive, axis=0)

    @property
    def kappa(self) -> float:
        """Stationary variance scale of the Euler chain per unit input variance:
        (dt/C)^2 / (1 - (1-alpha)^2)."""
        q = 1.0 - self.alpha
        return (self.dt / self.C) ** 2 / (1.0 - q * q)

    def stationary_covariance(self, device_cov) -> np.ndarray:
        """Analytic stationary membrane covariance kappa * W Cov(s) W^T.

        Holds because each step applies the same linear map to an i.i.d.
        device draw, so the geometric series of leak factors telescopes.
        """
        cov = np.asarray(device_cov, dtype=float)
        if cov.shape != (self.r, self.r):
            raise ValueError(f"device covariance has shape {cov.shape}, expected ({self.r}, {self.r})")
        if cov.size and float(np.max(np.abs(cov - cov.T))) > 1e-10:
            raise ValueError("device covariance is not symmetric")
        return self.kappa * (self.weights @ cov @ self.weights.T)
