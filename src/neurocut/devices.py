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


def _out(out, shape: tuple, dtype) -> np.ndarray:
    """out, or a fresh array of shape and dtype if None; ValueError for another shape or dtype."""
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    if out.dtype != dtype:
        raise ValueError(f"out has dtype {out.dtype}, expected {np.dtype(dtype).name}")
    return out


def _real_array(values, name: str) -> np.ndarray:
    """values as an array; ValueError naming name and dtype unless it holds integers or floats."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":  # a float cast reads True as 1, "1" as 1.0 and None as nan
        raise ValueError(f"{name} has dtype {values.dtype}, expected real numbers")
    return values


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

    The pool reads one source, its generator's raw 64-bit words, at two
    densities. sample_steps spends one word per device state: the state is
    +1 where the word is below 2^63, its top bit clear. That is the state
    random() < 0.5 gives from the same word, since numpy's uniform is
    (word >> 11) 2^-53. sample_epochs spends one word per 64 states. Each is
    a pure function of the seed and of how many words the pool has spent, so
    a pool advanced k steps (or epochs) and a fresh pool fast-forwarded k
    steps (or epochs) produce the same next draw. A circuit uses one reader;
    mixing both on one pool interleaves their positions.
    """

    def __init__(self, count: int, seed: int = 0):
        self.count = _whole(count, "count", least=1)
        self._rng = np.random.default_rng(_whole(seed, "seed"))

    def sample_steps(self, steps: int, out: np.ndarray | None = None) -> np.ndarray:
        """(steps, count) float32 array of ±1; row k equals the k-th sequential draw.

        With out, a (steps, count) float32 array, the states are written into
        it and out itself is returned: the result aliases the caller's buffer,
        and the next call that fills the buffer overwrites it.
        """
        steps = _whole(steps, "steps", least=1)
        out = _out(out, (steps, self.count), np.float32)
        words = self._rng.bit_generator.random_raw(out.size).reshape(out.shape)
        # the word becomes 1.0 below 2^63 and 0.0 from there, then ±1
        np.less(words, 1 << 63, out=out)
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
