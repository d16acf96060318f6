"""Seeded pools of independent fair two-state devices, and the input rules all modules use."""

from __future__ import annotations

import numbers
import operator

import numpy as np


def _whole(value, name: str, least: int | None = None) -> int:
    """value as an int; ValueError for a non-integer (2.7, "3", None, True) or one below least."""
    try:
        if isinstance(value, bool):  # an int subclass, but a flag, not a count
            raise TypeError
        whole = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} = {value!r} must be an integer") from None
    if least is not None and whole < least:
        raise ValueError(f"{name} = {whole} must be >= {least}")
    return whole


def _real(value, name: str) -> float:
    """value as a float; ValueError unless it is a real number (True, "0.5" and None are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} = {value!r} must be a real number")
    return float(value)


def _check_probability(p) -> None:
    """ValueError unless p is a real number in [0, 1]; True, "0.5" and nan are not."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p!r} must be a real number in [0, 1]")


class DevicePool:
    """count independent fair ±1 devices, redrawn on every timestep.

    The pool has two readers of one generator. sample_steps spends one
    float64 uniform per device state, whatever dtype it writes. sample_epochs
    spends one 64-bit generator word per 64 states. Each is a pure function
    of the seed and of how much that reader has drawn so far, so a pool
    advanced k steps (or epochs) and a fresh pool fast-forwarded k steps (or
    epochs) produce the same next draw. A circuit uses one reader; mixing
    both on one pool interleaves their positions.
    """

    def __init__(self, count: int, seed: int = 0):
        self.count = _whole(count, "count", least=1)
        self._rng = np.random.default_rng(_whole(seed, "seed"))
        # float64 uniforms behind a float32 out, grown to the largest block asked for
        self._uniforms = np.empty(0)

    def sample_steps(self, steps: int, out: np.ndarray | None = None) -> np.ndarray:
        """(steps, count) float array of ±1; row k equals the k-th sequential draw.

        With out, a C-contiguous (steps, count) float64 or float32 array, the
        states are written into it and out itself is returned: the result
        aliases the caller's buffer, and the next call that fills the buffer
        overwrites it. Either dtype spends the same float64 uniforms, so the
        states and the generator's position do not depend on it; a float32
        out takes them through the pool's own scratch buffer.
        """
        steps = _whole(steps, "steps", least=1)
        if out is None:
            out = np.empty((steps, self.count))
        elif out.shape != (steps, self.count):
            raise ValueError(f"out has shape {out.shape}, expected ({steps}, {self.count})")
        elif out.dtype not in (np.float64, np.float32):
            raise ValueError(f"out has dtype {out.dtype}, expected float64 or float32")
        uniforms = out
        if out.dtype == np.float32:
            if self._uniforms.size < out.size:
                self._uniforms = np.empty(out.size)
            uniforms = self._uniforms[:out.size].reshape(out.shape)
        self._rng.random(out=uniforms)
        # the uniform draw becomes 1.0 below one half and 0.0 above, then ±1
        np.less(uniforms, 0.5, out=out)
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
        epochs, steps = _whole(epochs, "epochs", least=1), _whole(steps, "steps", least=1)
        width = -(-steps // 8)
        used = self.count * width
        words = -(-used // 8)
        raw = self._rng.bit_generator.random_raw(epochs * words).astype("<u8", copy=False)
        return raw.view(np.uint8).reshape(epochs, 8 * words)[:, :used].reshape(
            epochs, self.count, width)
