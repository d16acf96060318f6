"""Undirected graphs, cut scoring, random instances, and file ingestion."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Malformed graph file. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as an (m, 2) integer array with each row (i, j), i < j,
    deduplicated and sorted lexicographically. Instances are treated as
    immutable after construction and are safe to share across workers.
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
            pairs = np.unique(np.column_stack([lo, hi]), axis=0)
        else:
            pairs = pairs.reshape(0, 2)
        pairs.setflags(write=False)
        self.n = int(n)
        self.edges = pairs
        self._adjacency: np.ndarray | None = None

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (float64, zero diagonal)."""
        if self._adjacency is None:
            a = np.zeros((self.n, self.n))
            if self.m:
                u, v = self.edges[:, 0], self.edges[:, 1]
                a[u, v] = 1.0
                a[v, u] = 1.0
            a.setflags(write=False)
            self._adjacency = a
        return self._adjacency

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

    For a ±1 row x, x^T A x = 2m - 4 cut(x), so each row scores as
    (2m - q) / 4 with q = rowsum((X @ A) * X): one float64 product on the
    dense adjacency, which is built on first use and cached on the graph.
    The result is exact, since every partial sum is an integer of magnitude
    at most n^2 < 2^53. Any entry other than +1 or -1 raises ValueError.
    """
    v = np.asarray(labels)
    if v.ndim != 2 or v.shape[1] != g.n:
        raise ValueError(f"label batch has shape {v.shape}, expected (batch, {g.n})")
    return _score_rows(g, v)


def _score_rows(g: Graph, v: np.ndarray) -> np.ndarray:
    """The scorer behind cut_value and cut_values, for a (batch, n) array.

    cut_value calls this rather than cut_values, so a wrapper around
    cut_values (perfbench/tracer.py counts its rows) sees only batch calls.
    """
    if not np.all((v == 1) | (v == -1)):
        raise ValueError("labels must be +1 or -1")
    if g.m == 0:
        return np.zeros(v.shape[0], dtype=np.int64)
    x = v.astype(np.float64)
    q = np.einsum("bi,bi->b", x @ g.adjacency, x)
    return ((2 * g.m - q) / 4).astype(np.int64)


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


@dataclass(frozen=True)
class TrevisanMatrix:
    """I + D^{-1/2} A D^{-1/2}; rows/cols of degree-0 vertices carry only the identity part."""

    matrix: np.ndarray
    isolated: np.ndarray  # bool mask, True where degree == 0


def trevisan_matrix(g: Graph) -> TrevisanMatrix:
    """Identity plus the symmetrically normalized adjacency; spectrum in [0, 2]."""
    deg = g.degrees.astype(float)
    isolated = deg == 0
    inv_sqrt = np.zeros(g.n)
    inv_sqrt[~isolated] = 1.0 / np.sqrt(deg[~isolated])
    mat = g.adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    mat += np.eye(g.n)
    return TrevisanMatrix(mat, isolated)


def load_graph(path, fmt: str = "auto", zero_indexed: bool = False) -> Graph:
    """Load an undirected graph from an edge-list or Matrix Market file.

    Self-loops are dropped, duplicate and reversed edges merge, and weights are
    binarized (zero weight means no edge). Edge lists carry no vertex count, so
    ids are remapped to 0..n-1 in first-appearance order; Matrix Market files
    declare the size and keep isolated vertices, and their entry lines must
    number exactly the declared nnz. Edge-list ids start at 1, or at
    0 with zero_indexed. fmt='auto' picks matrix-market for a .mtx suffix and
    edge-list otherwise.
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
    """Tokenize one data line into (u, v, weight or None)."""
    tokens = raw.split()
    if len(tokens) < 2:
        raise ParseError("expected at least two integer tokens", lineno)
    try:
        u, v = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"bad vertex id in {raw!r}", lineno) from None
    w = None
    if len(tokens) >= 3:
        try:
            w = float(tokens[2])
        except ValueError:
            raise ParseError(f"bad weight token {tokens[2]!r}", lineno) from None
    return u, v, w


def _parse_edge_list(lines, base: int) -> Graph:
    order: dict[int, int] = {}
    edges = set()
    saw_data = False
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        saw_data = True
        u, v, w = _split_entry(stripped, lineno)
        if u < base or v < base:
            raise ParseError(f"vertex id below base {base}", lineno)
        if w is not None and w == 0.0:
            continue
        for vid in (u, v):
            if vid not in order:
                order[vid] = len(order)
        if u == v:
            continue
        a, b = order[u], order[v]
        edges.add((min(a, b), max(a, b)))
    if not saw_data:
        raise ValueError("empty edge-list file")
    return Graph(len(order), sorted(edges))


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
    edges = set()
    for lineno, raw in it:
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        entries += 1
        u, v, w = _split_entry(stripped, lineno)
        if not (1 <= u <= rows and 1 <= v <= rows):
            raise ParseError(f"entry ({u}, {v}) outside 1..{rows}", lineno)
        if w is not None and w == 0.0:
            continue
        if u == v:
            continue
        a, b = u - 1, v - 1
        edges.add((min(a, b), max(a, b)))
    if entries != nnz:
        raise ParseError(f"size line declares {nnz} entries, found {entries}", size_line)
    return Graph(rows, sorted(edges))


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
