"""The anti-Hebbian minimum-eigenvector learner."""

from __future__ import annotations

import math

import numpy as np

from .devices import _real, _real_array

# Rows per delayed (Gram-form) sub-block of a block update: each step costs
# O(rows) scalar work, the products O(rows * n). 16 beat 8 and 32 at n = 100, 500.
_SUB = 16


def _check_rates(eta0, tau) -> tuple[float, float]:
    """(eta0, tau) as floats; ValueError unless each is a positive real number."""
    for name, value in (("eta0", eta0), ("tau", tau)):
        if not _real(value, name) > 0:  # written so that NaN fails it
            raise ValueError(f"{name} = {value} must be positive")
    return float(eta0), float(tau)


class NumericalDivergenceError(RuntimeError):
    """The learned weight vector left the finite range; restart with a smaller eta0."""


class OjaState:
    """Weight vector trained by the anti-Hebbian rule

        w <- w + eta_t * (-y x + (y^2 + 1 - |w|^2) w),    y = w . x,

    whose stable fixed points are unit minimum-eigenvectors of the input
    covariance. The learning rate anneals as eta_t = eta0 / (1 + t / tau).
    Inputs are used as given, and eta0 and tau are meant for inputs at unit
    covariance scale: a caller whose signal carries a known variance factor
    removes it upstream (TrevisanCircuit folds it into its LIF weights).
    """

    def __init__(self, w, eta0: float = 5e-3, tau: float = 1e5):
        self.eta0, self.tau = _check_rates(eta0, tau)
        self.w = np.array(_real_array(w, "w"), dtype=float)
        if self.w.ndim != 1:
            raise ValueError("w must be a vector")
        if not np.isfinite(self.w).all() or not self.w.any():
            raise ValueError("w must be finite and not all zero; a zero start stays zero")
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
        """Apply one anti-Hebbian update per input in place; returns the live w.

        Real input is taken as float64 once per call (a view of a float64
        block, one copy of a float32 one), so w and the scalar arithmetic stay
        float64; other input raises ValueError. An (n,) input applies one update with two
        dots and an axpy, which costs less than a one-row sub-block. A (b, n) block applies b
        sequential updates, row by row, in sub-blocks of up to _SUB rows.
        A sub-block X with start vector w0 runs in delayed (Gram) form:
        p = X w0 and G = X X^T are two products, w_t = s_t (w0 - sum_{k<t}
        g_k x_k) stays implicit, and each step is scalar work,

            y_t = s_t (p_t - sum_{k<t} g_k G_kt),
            a_t = 1 + eta_t (y_t^2 + 1 - |w_t|^2),    b_t = eta_t y_t,
            |w_{t+1}|^2 = a_t^2 |w_t|^2 - 2 a_t b_t y_t + b_t^2 G_tt,
            s_{t+1} = a_t s_t,    g_t = b_t / s_{t+1}.

        The sub-block ends by forming w = s (w0 - g^T X) and recomputing |w|^2
        exactly. Block and vector updates agree to rounding, not bit for bit.

        NumericalDivergenceError is raised at the first update after which
        |w|^2 (or, in a block, the scale s) is not finite, or s is zero; t
        then counts that update, and w holds the diverged vector. On a
        diverging run the arithmetic overflows before the check raises. That
        exception is the report, so a caller may run its updates under
        np.errstate(over="ignore", invalid="ignore") to drop the transient
        IEEE warnings, as TrevisanCircuit does.
        """
        x = np.asarray(_real_array(x, "x"), dtype=float)
        block = x.ndim == 2 and x.shape[1:] == self.w.shape
        if not block and x.shape != self.w.shape:
            raise ValueError(f"input has shape {x.shape}, "
                             f"expected {self.w.shape} or (b, {len(self.w)})")
        if block:
            for start in range(0, len(x), _SUB):
                self._update_gram(x[start:start + _SUB])
            return self.w
        w = self.w
        y = float(w @ x)
        eta = self.eta
        w *= 1.0 + eta * (y * y + 1.0 - self._wnorm2)
        w -= (eta * y) * x
        self.t += 1
        wnorm2 = float(w @ w)
        if not math.isfinite(wnorm2):
            raise self._divergence()
        self._wnorm2 = wnorm2
        return w

    def _update_gram(self, x) -> None:
        """Sequential updates by the rows of x, in Gram form."""
        w = self.w
        p = (x @ w).tolist()
        gram = (x @ x.T).tolist()
        eta0, tau, t0 = self.eta0, self.tau, self.t
        wnorm2 = self._wnorm2
        s = 1.0
        g: list = []
        for t, (pt, gt) in enumerate(zip(p, gram)):
            eta = eta0 / (1.0 + (t0 + t) / tau)
            # left to right on purpose: sum() of floats compensates from Python 3.12
            acc = 0.0
            for gk, gkt in zip(g, gt):
                acc += gk * gkt
            y = s * (pt - acc)
            a = 1.0 + eta * (y * y + 1.0 - wnorm2)
            b = eta * y
            wnorm2 = a * a * wnorm2 - 2.0 * a * b * y + b * b * gt[t]
            s_next = a * s
            if not (math.isfinite(wnorm2) and math.isfinite(s_next)) or s_next == 0.0:
                # leave w where the vector rule would: w_t, then one explicit step
                w -= np.asarray(g) @ x[:t]
                w *= s
                w *= a
                w -= b * x[t]
                self.t = t0 + t + 1
                raise self._divergence()
            s = s_next
            g.append(b / s)
        w -= np.asarray(g) @ x
        w *= s
        self.t = t0 + len(p)
        wnorm2 = float(w @ w)
        if not math.isfinite(wnorm2):
            raise self._divergence()
        self._wnorm2 = wnorm2

    def _divergence(self) -> NumericalDivergenceError:
        return NumericalDivergenceError(
            f"weight norm diverged after {self.t} updates (eta0={self.eta0}, tau={self.tau})")
