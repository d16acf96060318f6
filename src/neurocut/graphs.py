"""Undirected graphs, cut scoring, random instances, and file ingestion."""

from __future__ import annotations

import os

import numpy as np

# Label rows per scoring slice in cut_values.
_SLICE = 256
# Vertices per row block of the upper-triangle walk in _score_rows.
_BLOCK = 128
# float32 holds every integer of magnitude up to 2^24 exactly; graphs with
# 2m below it score in float32 (see cut_values), larger ones in float64.
_FLOAT32_EXACT = 1 << 24


class ParseError(ValueError):
    """Malformed graph file. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as a read-only (m, 2) int64 array with each row (i, j),
    i < j, deduplicated and sorted lexicographically, so reversed and repeated
    input pairs merge and input order does not matter. Instances are treated
    as immutable after construction and are safe to share across workers.
    """

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise ValueError("self-loops are not allowed")
            lo = np.minimum(pairs[:, 0], pairs[:, 1])
            hi = np.maximum(pairs[:, 0], pairs[:, 1])
            # one sort on two int64 keys (lo first), then the first row of each equal run
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            keep = np.ones(len(lo), dtype=bool)
            keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            pairs = np.column_stack([lo[keep], hi[keep]])
        else:
            pairs = pairs.reshape(0, 2)
        pairs.setflags(write=False)
        self.n = int(n)
        self.edges = pairs
        self._adjacency: np.ndarray | None = None
        self._upper: np.ndarray | None = None

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (float64, zero diagonal)."""
        if self._adjacency is None:
            self._adjacency = self._dense(np.float64)
        return self._adjacency

    def _scoring_adjacency(self) -> np.ndarray:
        """U, the strict upper triangle of the adjacency, that _score_rows multiplies by.

        It is float32 while 2m < 2^24 and float64 past that, built on first
        use, cached on the graph and read-only; every block product of the
        scorer is a view of it, so no block is copied.
        """
        if self._upper is None:
            dtype = np.float32 if 2 * self.m < _FLOAT32_EXACT else np.float64
            self._upper = self._dense(dtype, symmetric=False)
        return self._upper

    def _dense(self, dtype, symmetric: bool = True) -> np.ndarray:
        # edges are stored with i < j, so (i, j) alone fills the strict upper triangle
        a = np.zeros((self.n, self.n), dtype=dtype)
        if self.m:
            u, v = self.edges[:, 0], self.edges[:, 1]
            a[u, v] = 1
            if symmetric:
                a[v, u] = 1
        a.setflags(write=False)
        return a

    @property
    def degrees(self) -> np.ndarray:
        counts = np.bincount(self.edges.ravel(), minlength=self.n) if self.m else np.zeros(self.n, dtype=np.int64)
        return counts.astype(np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges.shape == other.edges.shape and bool(np.all(self.edges == other.edges))

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def cut_value(g: Graph, labels) -> int:
    """Number of edges whose endpoints carry different ±1 labels."""
    v = np.asarray(labels)
    if v.shape != (g.n,):
        raise ValueError(f"label vector has shape {v.shape}, expected ({g.n},)")
    return int(_score_rows(g, v[None, :])[0])


def cut_values(g: Graph, labels) -> np.ndarray:
    """Cut values for a (batch, n) array of ±1 label rows.

    For a ±1 row x, x^T A x = 2m - 4 cut(x), and x^T A x = 2 x^T U x with U
    the strict upper triangle of the adjacency, so each row scores as
    (m - h) / 2 with h = x^T U x. h is summed over row blocks of U, about
    half the multiply-adds of a product with all of A (see _score_rows).
    Every partial sum of h is an integer: inside a block product its
    magnitude is at most the largest degree, and in the row sums and the
    sum across blocks at most m. float32 holds every integer up to 2^24, so
    while 2m < 2^24 the products run in float32 and are exact in any
    summation order (a threaded or blocked GEMM included); larger graphs
    fall back to float64. h is taken to int64 before the division, so the
    scores are exact. Any entry other than +1 or -1 raises ValueError.
    """
    v = np.asarray(labels)
    if v.ndim != 2 or v.shape[1] != g.n:
        raise ValueError(f"label batch has shape {v.shape}, expected (batch, {g.n})")
    return _score_rows(g, v)


def _score_rows(g: Graph, v: np.ndarray) -> np.ndarray:
    """The scorer behind cut_value and cut_values, for a (batch, n) array.

    cut_value calls this rather than cut_values, so a wrapper around
    cut_values (perfbench/tracer.py counts its rows) sees only batch calls.
    Rows are checked and scored _SLICE at a time, so the float copy and its
    block products are slice-sized whatever the batch. For each row block
    I = [lo, hi) of _BLOCK vertices, h gains
    rowsum((X[:, I] @ U[I, lo:]) * X[:, lo:]): U is zero left of the
    diagonal, so columns before lo add nothing, and the walk costs about
    n^2 / 2 + n _BLOCK / 2 multiply-adds per row. A graph of at most _BLOCK
    vertices takes one product, as many multiply-adds as X @ A. The
    arithmetic is exact, so neither the slicing nor the blocking can change
    a score.
    """
    out = np.zeros(v.shape[0], dtype=np.int64)
    u = g._scoring_adjacency() if g.m else None
    for start in range(0, len(v), _SLICE):
        rows = v[start:start + _SLICE]
        if not np.all((rows == 1) | (rows == -1)):
            raise ValueError("labels must be +1 or -1")
        if g.m:
            x = rows.astype(u.dtype)
            # the first block starts h, so a graph of one block adds no work
            h = _block_sum(x, u, 0)
            for lo in range(_BLOCK, g.n, _BLOCK):
                h += _block_sum(x, u, lo)
            out[start:start + len(rows)] = (g.m - h.astype(np.int64)) // 2
    return out


def _block_sum(x: np.ndarray, u: np.ndarray, lo: int) -> np.ndarray:
    """rowsum((X[:, I] @ U[I, lo:]) * X[:, lo:]) for the row block I = [lo, lo + _BLOCK)."""
    hi = lo + _BLOCK
    return np.einsum("bi,bi->b", x[:, lo:hi] @ u[lo:hi, lo:], x[:, lo:])


def generate_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the n(n-1)/2 vertex pairs is an edge with probability p."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return Graph(n, np.column_stack([iu[mask], iv[mask]]))


def trevisan_matrix(g: Graph) -> np.ndarray:
    """I + D^{-1/2} A D^{-1/2}, spectrum in [0, 2].

    Rows and columns of degree-0 vertices carry only the identity part.
    """
    deg = g.degrees.astype(float)
    isolated = deg == 0
    inv_sqrt = np.zeros(g.n)
    inv_sqrt[~isolated] = 1.0 / np.sqrt(deg[~isolated])
    mat = g.adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    mat += np.eye(g.n)
    return mat


def load_graph(path, fmt: str = "auto", zero_indexed: bool = False) -> Graph:
    """Load an undirected graph from an edge-list or Matrix Market file.

    Self-loops are dropped and duplicate and reversed edges merge. An optional
    third token is a weight: 1 means an edge and 0 means no edge. Any other
    weight (2.5, 0.7, -1, nan) raises ParseError naming its line, since the
    graph is unweighted and would misread it. Edge lists carry no vertex
    count, so ids are remapped to 0..n-1 in first-appearance order; Matrix
    Market files declare the size and keep isolated vertices, and their entry
    lines must number exactly the declared nnz. Edge-list ids start at 1, or
    at 0 with zero_indexed. fmt='auto' picks matrix-market for a .mtx suffix
    and edge-list otherwise.
    """
    path = os.fspath(path)
    if fmt == "auto":
        fmt = "matrix-market" if path.endswith(".mtx") else "edge-list"
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if fmt == "edge-list":
        return _parse_edge_list(lines, 0 if zero_indexed else 1)
    if fmt == "matrix-market":
        return _parse_matrix_market(lines)
    raise ValueError(f"unknown graph format {fmt!r}")


def _split_entry(raw: str, lineno: int):
    """Tokenize one data line into (u, v, is_edge).

    A missing weight or a weight of 1 is an edge and a weight of 0 is not; any
    other weight is input the unweighted graph cannot represent.
    """
    tokens = raw.split()
    if len(tokens) < 2:
        raise ParseError("expected at least two integer tokens", lineno)
    try:
        u, v = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"bad vertex id in {raw!r}", lineno) from None
    if len(tokens) < 3:
        return u, v, True
    try:
        w = float(tokens[2])
    except ValueError:
        raise ParseError(f"bad weight token {tokens[2]!r}", lineno) from None
    if w not in (0.0, 1.0):
        raise ParseError(f"weight {tokens[2]!r} is not 0 or 1", lineno)
    return u, v, w == 1.0


def _parse_edge_list(lines, base: int) -> Graph:
    order: dict[int, int] = {}
    edges = []
    saw_data = False
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        saw_data = True
        u, v, is_edge = _split_entry(stripped, lineno)
        if u < base or v < base:
            raise ParseError(f"vertex id below base {base}", lineno)
        if not is_edge:
            continue
        for vid in (u, v):
            if vid not in order:
                order[vid] = len(order)
        if u == v:
            continue
        edges.append((order[u], order[v]))
    if not saw_data:
        raise ValueError("empty edge-list file")
    return Graph(len(order), edges)


def _parse_matrix_market(lines) -> Graph:
    it = enumerate(lines, start=1)
    lineno = 0
    header = None
    for lineno, raw in it:
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            if stripped.startswith("%%MatrixMarket"):
                tokens = stripped.lower().split()
                if len(tokens) >= 3 and tokens[2] != "coordinate":
                    raise ParseError("only coordinate Matrix Market files are supported", lineno)
            continue
        header = stripped
        break
    if header is None:
        raise ValueError("empty matrix-market file")
    tokens = header.split()
    if len(tokens) != 3:
        raise ParseError("size line must be 'rows cols nnz'", lineno)
    try:
        rows, cols, nnz = (int(t) for t in tokens)
    except ValueError:
        raise ParseError(f"bad size line {header!r}", lineno) from None
    if rows != cols:
        raise ParseError(f"adjacency must be square, got {rows}x{cols}", lineno)
    if rows < 1:
        raise ParseError("matrix dimension must be positive", lineno)
    size_line = lineno
    entries = 0
    edges = []
    for lineno, raw in it:
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        entries += 1
        u, v, is_edge = _split_entry(stripped, lineno)
        if not (1 <= u <= rows and 1 <= v <= rows):
            raise ParseError(f"entry ({u}, {v}) outside 1..{rows}", lineno)
        if not is_edge:
            continue
        if u == v:
            continue
        edges.append((u - 1, v - 1))
    if entries != nnz:
        raise ParseError(f"size line declares {nnz} entries, found {entries}", size_line)
    return Graph(rows, edges)


def save_graph(g: Graph, stream, fmt: str = "matrix-market") -> None:
    """Write a graph to an open text stream.

    matrix-market (default) declares n and therefore round-trips graphs with
    isolated vertices; edge-list writes 1-indexed 'u v' lines.
    """
    if fmt == "matrix-market":
        stream.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        stream.write(f"{g.n} {g.n} {g.m}\n")
        for u, v in g.edges:
            stream.write(f"{v + 1} {u + 1}\n")  # row >= column convention
    elif fmt == "edge-list":
        for u, v in g.edges:
            stream.write(f"{u + 1} {v + 1}\n")
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
