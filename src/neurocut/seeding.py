"""Deterministic seed derivation shared by circuits and the benchmark harness."""

import hashlib

from .devices import _whole

# Generator used everywhere (numpy's default PCG64, period 2^128). Recorded in
# benchmark metadata and printed by the CLI --version flag so runs can state
# exactly which bit stream they consumed.
RNG_ALGORITHM = "numpy-PCG64"


def derive_seed(base: int, *tags) -> int:
    """Derive an independent 63-bit seed from a base seed and a tag tuple.

    Hashes the decimal base seed together with the string form of each tag,
    so derived streams are stable across runs, platforms and process layouts.
    A base that is not an integer (2.7, "7") raises ValueError.
    """
    text = ":".join([str(_whole(base, "base seed"))] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
