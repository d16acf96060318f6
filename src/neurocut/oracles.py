"""Ground-truth references: exact MAXCUT, dense eigensolver, Gaussian rounding.

Everything here is independent of the circuit simulation path so it can sit on
the other side of a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import _real_array, _whole
from .graphs import Graph, trevisan_matrix

ENUM_LIMIT = 26
_BLOCK = 1 << 18
# Rounding rows per sign read in reference_hyperplane_rounds.
_ROUND_ROWS = 256
_DEGENERATE_GAP = 1e-8


@dataclass(frozen=True)
class MaxcutResult:
    value: int
    labels: np.ndarray


def brute_force_maxcut(g: Graph) -> MaxcutResult:
    """Exact optimum by vectorized enumeration of all 2^(n-1) sign patterns.

    Vertex 0 is pinned to -1 (global flip symmetry halves the space). Each
    assignment is an integer code; cut sizes are accumulated per edge with
    bitwise XOR over blocks of codes, an arithmetic path that shares nothing
    with cut_value.
    """
    n = g.n
    if n > ENUM_LIMIT:
        raise ValueError(f"brute force refused for n = {n} > {ENUM_LIMIT}")
    if g.m == 0:
        return MaxcutResult(0, -np.ones(n, dtype=np.int8))
    total = 1 << (n - 1)
    best_val = -1
    best_code = 0
    for start in range(0, total, _BLOCK):
        codes = np.arange(start, min(start + _BLOCK, total), dtype=np.uint64)
        # bit i of a code is the side of vertex i+1; vertex 0 stays at bit 0
        bits = [np.zeros(codes.shape[0], dtype=np.uint8)]
        for v in range(1, n):
            bits.append(((codes >> np.uint64(v - 1)) & np.uint64(1)).astype(np.uint8))
        acc = np.zeros(codes.shape[0], dtype=np.uint16)
        for u, v in g.edges:
            acc += bits[u] ^ bits[v]
        i = int(acc.argmax())
        if int(acc[i]) > best_val:
            best_val = int(acc[i])
            best_code = int(codes[i])
    side = np.zeros(n, dtype=np.int64)
    side[1:] = (best_code >> np.arange(n - 1)) & 1
    labels = np.where(side == 1, 1, -1).astype(np.int8)
    return MaxcutResult(best_val, labels)


@dataclass(frozen=True)
class SpectralCutResult:
    labels: np.ndarray
    degenerate: bool
    min_eigenvalue: float


def spectral_cut(g: Graph) -> SpectralCutResult:
    """Sign cut from the minimum eigenvector of I + normalized adjacency.

    Labels are +1 where the eigenvector entry is positive and -1 otherwise
    (isolated vertices always get -1). degenerate=True flags a minimum
    eigenvalue of multiplicity > 1 within _DEGENERATE_GAP; the returned cut
    then uses one arbitrary eigenvector from the bottom eigenspace.
    """
    vals, vecs = np.linalg.eigh(trevisan_matrix(g))
    degenerate = g.n > 1 and float(vals[1] - vals[0]) <= _DEGENERATE_GAP
    labels = np.where(vecs[:, 0] > 0, 1, -1).astype(np.int8)
    labels[g.degrees == 0] = -1
    return SpectralCutResult(labels, degenerate, float(vals[0]))


def reference_hyperplane_rounds(vectors, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) batch of hyperplane roundings of unit-vector rows.

    Each row draws one standard normal g in R^r and labels vertex i by the
    sign of vectors[i] . g (ties go to -1). The Gaussians are one draw;
    their products are signed _ROUND_ROWS rows at a time straight into the
    int8 result, so no (count, n) float array is made. A count that is not
    a non-negative integer, or vectors that are not real numbers, raise
    ValueError; a count of 0 gives an empty batch.
    """
    count = _whole(count, "count", least=0)
    w = np.asarray(_real_array(vectors, "vectors"), dtype=float)
    if w.ndim != 2:
        raise ValueError("vectors must be a 2-d array")
    gauss = rng.standard_normal((count, w.shape[1]))
    labels = np.empty((count, w.shape[0]), dtype=np.int8)
    for start in range(0, count, _ROUND_ROWS):
        rows = slice(start, start + _ROUND_ROWS)
        np.greater(gauss[rows] @ w.T, 0, out=labels[rows].view(np.bool_))
    labels *= 2
    labels -= 1
    return labels

