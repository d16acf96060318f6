"""Discrete-time leaky integrator population driven by a device pool."""

from __future__ import annotations

import numpy as np

from .devices import _real

# Rows per leak chunk of a state block: the chunk's leak kernel is an
# (_CHUNK, _CHUNK) lower-triangular matrix, applied as one small GEMM.
_CHUNK = 64


def _check_leak(alpha) -> float:
    """alpha as a float; ValueError unless a real in (0, 1), where the Euler chain is stable."""
    if not 0.0 < _real(alpha, "alpha") < 1.0:  # written so that NaN fails it
        raise ValueError(f"alpha = {alpha} outside (0, 1)")
    return float(alpha)


class LifPopulation:
    """n leaky integrate-and-fire units fed by r devices through a weight matrix.

    Membrane update per step:

        V <- (1 - alpha) V + W s,

    with alpha the leak per step. There is no spiking: circuits read the
    membrane signs. Any positive factor on the drive would scale every
    membrane by the same constant, which no sign read can see, so the drive
    is W s itself.
    """

    def __init__(self, weights, alpha: float = 0.05):
        w = np.array(weights, dtype=float)
        if w.ndim != 2:
            raise ValueError("weights must be a 2-d array (units x devices)")
        w.setflags(write=False)
        self.alpha = _check_leak(alpha)
        self.weights = w
        self.n, self.r = w.shape
        self.V = np.zeros(self.n)
        q = 1.0 - self.alpha
        lag = np.subtract.outer(np.arange(_CHUNK), np.arange(_CHUNK))
        # _leak[i, j] = q^(i-j) on and below the diagonal; _carry[i] = q^(i+1)
        self._leak = np.tril(q ** np.abs(lag))
        self._carry = q ** np.arange(1, _CHUNK + 1)

    def step(self, states, out: np.ndarray | None = None) -> np.ndarray:
        """Advance one timestep per device state; returns the membranes.

        An (r,) state advances one step and returns the live membrane. A
        (T, r) block advances T steps and returns the (T, n) membranes after
        each of them, leaving the live membrane at the last row. The block
        drive is one GEMM and its leak is applied in chunks (see _integrate),
        so block and row-by-row results agree to rounding, not bit for bit.

        A block may pass out, a (T, n) float64 array: the membranes are
        written into it and out itself is returned, so the result aliases the
        caller's buffer and the next call that fills it overwrites them. The
        live membrane is a copy of the last row either way. Without out the
        block gets a fresh array.
        """
        s = np.asarray(states, dtype=float)
        if s.shape == (self.r,):
            if out is not None:
                raise ValueError("out takes a (T, n) block; a single step returns the live membrane")
            self.V *= 1.0 - self.alpha
            self.V += self.weights @ s
            return self.V
        if s.ndim != 2 or s.shape[1] != self.r:
            raise ValueError(f"device states have shape {s.shape}, "
                             f"expected ({self.r},) or (T, {self.r})")
        out = self._integrate(s, self.V, out)
        if len(out):
            self.V[:] = out[-1]
        return out

    def _integrate(self, states, v0, out=None) -> np.ndarray:
        """(T, n) membranes of V_t = q V_{t-1} + W s_t from V_{-1} = v0.

        The drive D = S W^T is one GEMM, written into out (a fresh array when
        out is None). Each chunk of L <= _CHUNK rows is then closed-form,
        V = K D + q^(1..L) (outer) V_prev, with K the lower-triangular
        Toeplitz matrix of q^(i-j) and V_prev the membrane before the chunk.
        A chunk's drive is copied to a _CHUNK-row scratch first, so V
        overwrites D in place and no other (T, n) array is made.
        """
        shape = (len(states), self.n)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")
        np.matmul(states, self.weights.T, out=out)
        scratch = np.empty((min(_CHUNK, len(out)), self.n))
        prev = v0
        for start in range(0, len(out), _CHUNK):
            chunk = out[start:start + _CHUNK]
            rows = len(chunk)
            drive = scratch[:rows]
            np.copyto(drive, chunk)
            np.matmul(self._leak[:rows, :rows], drive, out=chunk)
            np.multiply.outer(self._carry[:rows], prev, out=drive)
            chunk += drive
            prev = chunk[-1]
        return out

    @property
    def kappa(self) -> float:
        """Stationary variance scale of the chain per unit input variance:
        1 / (1 - (1-alpha)^2). A factor c > 0 on the drive scales the
        stationary covariance by c^2, so TrevisanCircuit multiplies its weights
        by 1/sqrt(kappa) to bring its membranes to unit scale."""
        q = 1.0 - self.alpha
        return 1.0 / (1.0 - q * q)

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
