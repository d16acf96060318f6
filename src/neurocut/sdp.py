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

from .devices import _real, _whole
from .graphs import Graph


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and start seed of solve_gw_sdp.

    A tol that is negative, NaN or not a real number, a negative max_iter, or
    a max_iter or seed that is not an integer (2.5, "3", None) raises
    ValueError on construction; max_iter=None means 50 * n sweeps.
    """

    tol: float = 1e-6
    max_iter: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not _real(self.tol, "tol") >= 0:  # so that NaN, which never converges, fails
            raise ValueError(f"tol = {self.tol} must be >= 0")
        if self.max_iter is not None:
            _whole(self.max_iter, "max_iter", least=0)
        _whole(self.seed, "seed")


@dataclass
class SdpSolution:
    vectors: np.ndarray  # (n, r), unit rows
    objective: float
    grad_norm: float | None
    iterations: int | None
    converged: bool

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def rank(self) -> int:
        return int(self.vectors.shape[1])


def effective_rank(rank: int, n: int) -> int:
    """Requested rank, an integer >= 2 (else ValueError), clamped so tiny graphs waste none."""
    rank = _whole(rank, "rank", least=2)
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
    vertices of one class. Isolated vertices are in no class: order lists them
    after bounds[-1], so an edgeless graph has no class (bounds == [0]).
    """
    n = a.shape[0]
    degree = a.sum(axis=1)
    isolated = degree == 0
    removal = np.empty(n, dtype=np.intp)
    for k in range(n):
        v = int(degree.argmin())
        removal[k] = v
        degree -= a[v]
        degree[v] = np.inf
    colour = np.full(n, n, dtype=np.intp)  # n: not coloured yet
    used = np.zeros(n + 1, dtype=bool)  # set for each vertex's neighbours, then cleared
    for v in removal[::-1].tolist():
        taken = colour[a[v] != 0]
        used[taken] = True
        colour[v] = used.argmin()
        used[taken] = False
    colour[isolated] = n  # sorts after every class
    order = np.argsort(colour, kind="stable")
    count = int(colour[~isolated].max(initial=-1)) + 1
    bounds = np.searchsorted(colour[order], np.arange(count + 1))
    return order, bounds


def solve_gw_sdp(g: Graph, rank: int = 4, config: SolverConfig | None = None) -> SdpSolution:
    """Maximize the relaxation by the mixing method, one colour class at a time.

    The start is normalize_rows(standard_normal((n, r))) from
    default_rng(config.seed), so a run is deterministic for a fixed seed. The
    graph is coloured once (_colour_classes) and A and W are permuted once so
    that each class is a contiguous row slice; A is then negated in place,
    which is exact. A sweep visits the classes in order and sets their rows at
    once, with one product z = -A[lo:hi] @ W and w_i = z_i / |z_i|, the unique
    maximizer of f over row i. Each class is four numpy calls (product, row
    dot, square root, divide) into buffers allocated once per solve; a class
    holds a few rows, so the calls, not their arithmetic, set a sweep's time.
    No row of a class enters another's z, so a sweep is an exact row-by-row
    sweep in the permuted order, and f never decreases. Isolated vertices are
    in no class: their z is 0, so they keep their start rows. A swept row
    whose neighbours cancel exactly (z_i = 0) does not enter f and is left as
    it is: a sweep that meets one is replayed from a copy of W taken before
    it, with the divide masked to rows of nonzero norm; the first pass divides
    unmasked. Before each sweep the Riemannian gradient norm is compared with
    config.tol; a run that reaches the sweep cap first comes back flagged
    converged=False rather than raising, so callers can decide. iterations
    counts sweeps. The test needs the whole product -A @ W, as much work as a
    sweep, so class 0's product, which the sweep needs anyway, is formed
    first: its rows' share of the gradient norm bounds the whole from below,
    and while that share exceeds 2 tol below the cap the test could not stop
    the run and is skipped. grad_norm, iterations and converged are therefore
    those of testing before every sweep. An edgeless graph converges at once
    with f = 0. The vectors come back in vertex order. SolverConfig checks its
    limits and seed when it is built; max_iter=0 returns the start.
    """
    cfg = config or SolverConfig()
    r = effective_rank(rank, g.n)
    rng = np.random.default_rng(cfg.seed)
    a = g.adjacency
    order, bounds = _colour_classes(a)
    neg = a[np.ix_(order, order)]
    np.negative(neg, out=neg)
    w = normalize_rows(rng.standard_normal((g.n, r)))[order]
    z = np.empty_like(w)
    norm = np.empty((g.n, 1))
    grad = np.empty_like(w)
    before = np.empty_like(w)
    swept = norm[:bounds[-1]]
    # norm[lo:hi, 0] takes vecdot's (k,) output; norm[lo:hi] broadcasts in the divide
    classes = [(neg[lo:hi], z[lo:hi], norm[lo:hi, 0], norm[lo:hi], w[lo:hi])
               for lo, hi in zip(bounds[:-1], bounds[1:])]
    # a class's numpy calls cost more than its arithmetic, so the loops bind
    # the functions once and pass their outs positionally
    dot, vecdot, sqrt, multiply, divide = np.dot, np.vecdot, np.sqrt, np.multiply, np.divide

    def masked(z_c, norm_c, w_c) -> None:
        divide(z_c, norm_c, w_c, where=norm_c > 0.0)

    def sweep(div) -> None:
        # class 0's product is formed by the stop test, at the same W
        z_c, sq_c, norm_c, w_c = head
        vecdot(z_c, z_c, sq_c)
        sqrt(sq_c, sq_c)
        div(z_c, norm_c, w_c)
        for rows, z_c, sq_c, norm_c, w_c in rest:
            dot(rows, w, z_c)
            vecdot(z_c, z_c, sq_c)
            sqrt(sq_c, sq_c)
            div(z_c, norm_c, w_c)

    if classes:  # an edgeless graph has none, and its first test stops it (grad = 0)
        rows_0, z_0, _, _, w_0 = classes[0]
        head, rest = classes[0][1:], classes[1:]
        part = grad[:len(z_0)]
        flat = part.reshape(-1)  # a view, since grad's leading rows are contiguous
    cap = cfg.max_iter if cfg.max_iter is not None else 50 * g.n
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            bound = 0.0
            if classes:
                dot(rows_0, w, z_0)
                multiply(z_0, 0.5, part)
                part -= vecdot(part, w_0)[:, None] * w_0
                bound = float(sqrt(flat @ flat))  # the reduction np.linalg.norm makes
            # class 0's share of the gradient norm bounds the whole from below;
            # twice tol leaves room for the two products' rounding
            if bound <= 2.0 * cfg.tol or iterations >= cap:
                np.dot(neg, w, out=grad)
                grad *= 0.5
                grad -= np.vecdot(grad, w)[:, None] * w  # tangent projection
                grad_norm = float(np.linalg.norm(grad))
                if grad_norm <= cfg.tol or iterations >= cap:
                    break
            np.copyto(before, w)
            sweep(divide)
            if not swept.all():  # a row with z_i = 0: redo the sweep, keeping it
                np.copyto(w, before)
                sweep(masked)
            iterations += 1
    vectors = np.empty_like(w)
    vectors[order] = w
    return SdpSolution(vectors, _objective(g, vectors), grad_norm, iterations,
                       grad_norm <= cfg.tol)


def format_solution(solution: SdpSolution) -> str:
    """Plain text: header line 'n r objective', then one vector row per vertex.

    Values use 17 significant digits, enough for an exact float64 round trip.
    """
    lines = [f"{solution.n} {solution.rank} {solution.objective:.17g}"]
    lines += [" ".join(f"{x:.17g}" for x in row) for row in solution.vectors]
    return "\n".join(lines) + "\n"

