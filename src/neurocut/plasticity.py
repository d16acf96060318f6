"""The anti-Hebbian minimum-eigenvector learner."""

from __future__ import annotations

import math

import numpy as np


class NumericalDivergenceError(RuntimeError):
    """The learned weight vector left the finite range; restart with a smaller eta0."""


class OjaState:
    """Weight vector trained by the anti-Hebbian rule

        w <- w + eta_t * (-y x + (y^2 + 1 - |w|^2) w),    y = w . x,

    whose stable fixed points are unit minimum-eigenvectors of the input
    covariance. The learning rate anneals as eta_t = eta0 / (1 + t / tau).
    Inputs are multiplied by input_scale before use, which lets a caller
    normalize away a known variance scale of the raw signal.
    """

    def __init__(self, w, eta0: float = 5e-3, tau: float = 1e5, input_scale: float = 1.0):
        if eta0 <= 0 or tau <= 0 or input_scale <= 0:
            raise ValueError("eta0, tau and input_scale must be positive")
        self.w = np.array(w, dtype=float)
        if self.w.ndim != 1:
            raise ValueError("w must be a vector")
        self.eta0 = float(eta0)
        self.tau = float(tau)
        self.input_scale = float(input_scale)
        self.t = 0
        self._wnorm2 = float(self.w @ self.w)

    @classmethod
    def spherical_init(cls, n: int, rng: np.random.Generator, **kwargs) -> "OjaState":
        """Fresh state with w drawn uniformly on the unit sphere in R^n."""
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        return cls(w, **kwargs)

    @property
    def eta(self) -> float:
        """Current learning rate, before the next update is applied."""
        return self.eta0 / (1.0 + self.t / self.tau)

    def update(self, x) -> np.ndarray:
        """Apply one anti-Hebbian update in place; returns the live w."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.w.shape:
            raise ValueError(f"input has shape {x.shape}, expected {self.w.shape}")
        if self.input_scale != 1.0:
            x = self.input_scale * x
        w = self.w
        # On divergent runs the arithmetic overflows before the norm check
        # trips; the exception below is the report, so the transient IEEE
        # warnings carry no extra information.
        with np.errstate(over="ignore", invalid="ignore"):
            y = float(w @ x)
            eta = self.eta
            w *= 1.0 + eta * (y * y + 1.0 - self._wnorm2)
            w -= (eta * y) * x
            self.t += 1
            wnorm2 = float(w @ w)
        if not math.isfinite(wnorm2):
            raise NumericalDivergenceError(
                f"weight norm diverged after {self.t} updates (eta0={self.eta0}, tau={self.tau})")
        self._wnorm2 = wnorm2
        return w
