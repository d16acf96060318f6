"""Low-rank MAXCUT relaxation solved on the product of unit spheres.

Vertices carry unit vectors w_i in R^r; the objective

    f(W) = sum_{(i,j) in E} (1 - w_i . w_j) / 2

is maximized over W (r is a relaxation knob, 4 by default). At a global
maximizer of a rank large enough to hold the SDP optimizer (r(r+1)/2 > n
suffices), f is the SDP value and so upper-bounds the maximum cut. Rank 4 is
not large enough for n >= 100: there the rank-r optimum can fall short of the
SDP value, so f is not a certified bound, and `converged` means that W is
stationary for the rank-r problem (Riemannian gradient norm <= tol), not that
it solves the SDP.

Maximization is the mixing method (Wang, Chang & Kolter 2017,
arXiv:1706.00476) on this Burer-Monteiro factorization: coordinate ascent
that sets each row to its exact maximizer, so it needs no step size. Rows
with no edge between them do not enter each other's maximizer, so the rows of
one colour class of a proper vertex colouring are updated together (Erdogdu,
Ozdaglar, Parrilo & Vanli 2018, block-coordinate Burer-Monteiro).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import _whole
from .graphs import Graph


@dataclass
class SolverConfig:
    tol: float = 1e-6
    max_iter: int | None = None  # None -> 50 * n sweeps
    seed: int = 0


@dataclass
class SdpSolution:
    vectors: np.ndarray  # (n, r), unit rows
    rank: int
    objective: float
    grad_norm: float | None
    iterations: int | None
    converged: bool

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])


def effective_rank(rank: int, n: int) -> int:
    """Requested rank, clamped so tiny graphs do not waste dimensions."""
    if rank < 2:
        raise ValueError("rank must be at least 2")
    return min(rank, n) if n < 4 else rank


def normalize_rows(vectors) -> np.ndarray:
    """Rows rescaled to unit Euclidean norm. Idempotent and invariant to a
    positive global prescale."""
    w = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero row")
    return w / norms


def _edge_dots(g: Graph, w: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", w[g.edges[:, 0]], w[g.edges[:, 1]])


def _objective(g: Graph, w: np.ndarray) -> float:
    return 0.5 * float(np.sum(1.0 - _edge_dots(g, w)))


def sdp_objective(g: Graph, solution: SdpSolution) -> float:
    """Recompute sum over edges of (1 - w_i . w_j)/2 from the stored vectors."""
    w = np.asarray(solution.vectors, dtype=float)
    if w.shape[0] != g.n:
        raise ValueError(f"solution has {w.shape[0]} rows, graph has {g.n} vertices")
    return _objective(g, w)


def _colour_classes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy colouring of adjacency a in smallest-last order (Matula & Beck 1983).

    Vertices are removed one at a time, each of least degree among those left,
    and then coloured in reverse removal order, each with the least colour no
    coloured neighbour has. Returns (order, bounds): order lists the vertices class by
    class, and class c is order[bounds[c]:bounds[c + 1]]. No edge joins two
    vertices of one class.
    """
    n = a.shape[0]
    degree = a.sum(axis=1)
    removal = np.empty(n, dtype=np.intp)
    for k in range(n):
        v = int(np.argmin(degree))
        removal[k] = v
        degree -= a[v]
        degree[v] = np.inf
    colour = np.full(n, n, dtype=np.intp)  # n: not coloured yet
    for v in removal[::-1]:
        used = np.zeros(n + 1, dtype=bool)
        used[colour[a[v] != 0]] = True
        colour[v] = int(np.argmin(used))
    order = np.argsort(colour, kind="stable")
    bounds = np.searchsorted(colour[order], np.arange(int(colour.max()) + 2))
    return order, bounds


def solve_gw_sdp(g: Graph, rank: int = 4, config: SolverConfig | None = None) -> SdpSolution:
    """Maximize the relaxation by the mixing method, one colour class at a time.

    The start is normalize_rows(standard_normal((n, r))) from
    default_rng(config.seed), so a run is deterministic for a fixed seed.
    The graph is coloured once (_colour_classes) and A and W are permuted once
    so that each class is a contiguous row slice. A sweep then visits the
    classes in order and sets their rows at once, with one product
    z = A[lo:hi] @ W and w_i = -z_i / |z_i|, the unique maximizer of f over
    row i; a row with z_i = 0 does not enter f and is left as it is. No row of
    a class enters another's z, so a sweep is an exact row-by-row sweep in the
    permuted order, and f never decreases. Before each sweep the Riemannian
    gradient norm is compared with config.tol; a run that reaches the sweep
    cap first comes back flagged converged=False rather than raising, so
    callers can decide. iterations counts sweeps. An edgeless graph
    converges at once with f = 0. The vectors come back in vertex order.
    A negative tol or max_iter, or a max_iter that is not an integer (2.5, 2.0,
    "3"), is a ValueError; max_iter=0 returns the start.
    """
    cfg = config or SolverConfig()
    if not cfg.tol >= 0:  # also NaN, which could never converge
        raise ValueError(f"tol = {cfg.tol} must be >= 0")
    if cfg.max_iter is not None and _whole(cfg.max_iter, "max_iter") < 0:
        raise ValueError(f"max_iter = {cfg.max_iter} must be >= 0")
    r = effective_rank(rank, g.n)
    rng = np.random.default_rng(cfg.seed)
    order, bounds = _colour_classes(g.adjacency)
    a = g.adjacency[np.ix_(order, order)]
    w = normalize_rows(rng.standard_normal((g.n, r)))[order]
    classes = list(zip(bounds[:-1], bounds[1:]))
    cap = cfg.max_iter if cfg.max_iter is not None else 50 * g.n
    iterations = 0
    while True:
        grad = -0.5 * (a @ w)
        grad -= np.einsum("ij,ij->i", grad, w)[:, None] * w  # tangent projection
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= cfg.tol or iterations >= cap:
            break
        for lo, hi in classes:
            z = a[lo:hi] @ w
            norm = np.sqrt(np.einsum("ij,ij->i", z, z))[:, None]
            np.divide(z, -norm, out=w[lo:hi], where=norm > 0.0)
        iterations += 1
    vectors = np.empty_like(w)
    vectors[order] = w
    return SdpSolution(vectors, r, _objective(g, vectors), grad_norm, iterations,
                       grad_norm <= cfg.tol)


def format_solution(solution: SdpSolution) -> str:
    """Plain text: header line 'n r objective', then one vector row per vertex.

    Values use 17 significant digits, enough for an exact float64 round trip.
    """
    lines = [f"{solution.n} {solution.rank} {solution.objective:.17g}"]
    lines += [" ".join(f"{x:.17g}" for x in row) for row in solution.vectors]
    return "\n".join(lines) + "\n"

