"""Pools of fair two-state stochastic devices: seeded and independent."""

from __future__ import annotations

import operator

import numpy as np


def _whole(value, name: str) -> int:
    """value as an int; ValueError for anything that is not an integer (2.7, "3", None)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} = {value!r} must be an integer") from None


class DevicePool:
    """count independent fair ±1 devices, redrawn on every timestep.

    The pool has two readers of one generator. sample_steps spends one float
    per device state. sample_epochs spends one 64-bit generator word per 64
    states. Each is a pure function of the seed and of how much that reader
    has drawn so far, so a pool advanced k steps (or epochs) and a fresh pool
    fast-forwarded k steps (or epochs) produce the same next draw. A circuit
    uses one reader; mixing both on one pool interleaves their positions.
    """

    def __init__(self, count: int, seed: int = 0):
        count = _whole(count, "count")
        if count < 1:
            raise ValueError("a pool needs at least one device")
        self.count = count
        self._rng = np.random.default_rng(seed)

    def sample_steps(self, steps: int, out: np.ndarray | None = None) -> np.ndarray:
        """(steps, count) float array of ±1; row k equals the k-th sequential draw.

        With out, a C-contiguous (steps, count) float64 array, the states are
        written into it and out itself is returned: the result aliases the
        caller's buffer, and the next call that fills the buffer overwrites it.
        The draws are the same either way.
        """
        steps = _whole(steps, "steps")
        if steps < 1:
            raise ValueError("steps must be positive")
        if out is None:
            out = np.empty((steps, self.count))
        elif out.shape != (steps, self.count):
            raise ValueError(f"out has shape {out.shape}, expected ({steps}, {self.count})")
        self._rng.random(out=out)
        # the uniform draw becomes 1.0 below one half and 0.0 above, then ±1
        np.less(out, 0.5, out=out)
        out *= 2.0
        out -= 1.0
        return out

    def sample_epochs(self, epochs: int, steps: int) -> np.ndarray:
        """(epochs, count, ceil(steps / 8)) uint8 array of bit-packed states.

        Bit t (least significant first) of byte j is a device's state at step
        8j + t of the epoch, 1 meaning +1 and 0 meaning -1. Bits past steps in
        the last byte are drawn but carry no step. Each epoch reads its bytes
        device-major from whole little-endian generator words and drops the
        bytes left in its last word, so every epoch costs the same number of
        words and epoch e equals the e-th sequential one-epoch draw.
        """
        epochs, steps = _whole(epochs, "epochs"), _whole(steps, "steps")
        if epochs < 1 or steps < 1:
            raise ValueError("epochs and steps must be positive")
        width = -(-steps // 8)
        used = self.count * width
        words = -(-used // 8)
        raw = self._rng.bit_generator.random_raw(epochs * words).astype("<u8", copy=False)
        return raw.view(np.uint8).reshape(epochs, 8 * words)[:, :used].reshape(
            epochs, self.count, width)

    def covariance(self) -> np.ndarray:
        """Analytic single-step covariance: independent fair ±1 devices have unit variance."""
        return np.eye(self.count)
