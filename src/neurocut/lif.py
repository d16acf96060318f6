"""Discrete-time leaky integrator population driven by a device pool."""

from __future__ import annotations

import numpy as np

from .devices import _out, _real, _real_array

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

    The population integrates in float32: it rounds its weights to float32
    once, and its drive, leak kernel and membranes are float32. Weights that
    are not real numbers, or not finite in float32, raise ValueError.
    """

    def __init__(self, weights, alpha: float = 0.05):
        with np.errstate(over="ignore"):  # beyond float32's range is inf, refused below
            w = np.array(_real_array(weights, "weights"), dtype=np.float32)
        if w.ndim != 2:
            raise ValueError("weights must be a 2-d array (units x devices)")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite in float32: no nan, inf or |w| > 3.4e38")
        w.setflags(write=False)
        self.alpha = _check_leak(alpha)
        self.weights = w
        self.n, self.r = w.shape
        self.V = np.zeros(self.n, np.float32)
        q = 1.0 - self.alpha
        lag = np.subtract.outer(np.arange(_CHUNK), np.arange(_CHUNK))
        # _leak[i, j] = q^(i-j) on and below the diagonal; _carry[i] = q^(i+1);
        # both formed in float64, then rounded once to float32
        self._leak = np.tril(q ** np.abs(lag)).astype(np.float32)
        self._carry = (q ** np.arange(1, _CHUNK + 1)).astype(np.float32)

    def step(self, states, out: np.ndarray | None = None) -> np.ndarray:
        """Advance one timestep per row of a (T, r) state block; returns the (T, n) membranes.

        The membranes after each step are V_t = q V_{t-1} + W s_t, with q =
        1 - alpha, from the live membrane V; V is left at the last row. The
        drive D = S W^T is one GEMM. Each chunk of L <= _CHUNK rows is then
        closed-form, V = K D + q^(1..L) (outer) V_prev, with K the
        lower-triangular Toeplitz matrix of q^(i-j) and V_prev the membrane
        before the chunk, so the result agrees with the row-by-row recurrence
        to rounding, not bit for bit. A chunk's drive is copied to a
        _CHUNK-row scratch first, so V overwrites D in place. Real states are
        taken as float32, which holds ±1 exactly; others raise ValueError.

        With out, a (T, n) float32 array, the membranes are written into it
        and out itself is returned: the result aliases the caller's buffer,
        and the next call that fills it overwrites them. The live membrane is
        a copy of the last row either way; without out the block is fresh.
        """
        s = np.asarray(_real_array(states, "states"), dtype=np.float32)
        if s.ndim != 2 or s.shape[1] != self.r:
            raise ValueError(f"device states have shape {s.shape}, expected (T, {self.r})")
        out = _out(out, (len(s), self.n), np.float32)
        np.matmul(s, self.weights.T, out=out)
        scratch = np.empty((min(_CHUNK, len(out)), self.n), np.float32)
        prev = self.V
        for start in range(0, len(out), _CHUNK):
            chunk = out[start:start + _CHUNK]
            rows = len(chunk)
            drive = scratch[:rows]
            np.copyto(drive, chunk)
            np.matmul(self._leak[:rows, :rows], drive, out=chunk)
            np.multiply.outer(self._carry[:rows], prev, out=drive)
            chunk += drive
            prev = chunk[-1]
        self.V[:] = prev  # the last row, or V itself for an empty block
        return out
