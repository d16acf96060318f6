"""Undirected graphs, cut scoring, random instances, and file ingestion."""

from __future__ import annotations

import os

import numpy as np

from .devices import _check_probability, _whole

# Product rows per scoring slice in cut_values. A slice holds _SLICE label
# rows, or 2 _SLICE where _walk packs two label rows into each product row, so
# that each packing of a U panel serves 512 labels. Scoring 4096 rows at n=500
# (one BLAS thread, 2-core x86-64 VM, best of 30 interleaved calls in each of
# three processes) took 8.8-9.0 ms in packed slices of 384, 512 or 768 label
# rows, 9.5-9.8 in 256, 9.0-9.3 in 1024 and 11.5-12.5 in 2048, where Y, Z and
# U (1 MB at n=500) outgrow a core's 2 MB L2. Only a graph with a vertex of
# >= 2,048 lower-numbered neighbours, or m >= 2^24, scores unpacked (untimed).
_SLICE = 256
# Vertices per column block of U in _walk.
_BLOCK = 128
# float32 holds every integer of magnitude up to 2^24 exactly (see cut_values).
_FLOAT32_EXACT = 1 << 24


class ParseError(ValueError):
    """Malformed graph file; the message names the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as a read-only (m, 2) int64 array with each row (i, j),
    i < j, deduplicated and sorted lexicographically, so reversed and repeated
    input pairs merge and input order does not matter. n and the endpoints
    must be integers (Python or numpy): a non-integer n, non-empty edges that
    are not an (m, 2) array of pairs, or edges of a float, bool or string
    dtype, raise ValueError rather than being reshaped or cast. Instances are
    treated as immutable after construction and are safe to share across
    workers.
    """

    def __init__(self, n: int, edges) -> None:
        n = _whole(n, "n", least=1)
        pairs = np.asarray(edges)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):  # a reshape would pair other entries
            raise ValueError(f"edges must be an (m, 2) array of pairs, not of shape {pairs.shape}")
        if pairs.size and pairs.dtype.kind not in "iu":
            # a cast would truncate 1.7 to 1 and read True as 1
            raise ValueError(f"edge endpoints must be integers, not {pairs.dtype}")
        pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
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
        pairs.setflags(write=False)
        self.n = n
        self.edges = pairs
        self._scoring: tuple[np.ndarray, int] | None = None

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (float64, zero diagonal), built on each call, not cached."""
        a = np.zeros((self.n, self.n))
        u, v = self.edges.T
        a[u, v] = a[v, u] = 1
        return a

    def _scoring_adjacency(self) -> tuple[np.ndarray, int]:
        """(U, c): the matrix _walk multiplies by and the factor it packs rows with.

        U is the strict upper triangle of the adjacency, float32 and read-only;
        every block product of the scorer is a view of it. c is the factor by
        which _walk packs two label rows into one, or 0 where the packed sums
        could reach 2^24 and it scores one row per product row (see
        cut_values). The pair is built on first use and is the only thing a
        graph caches. A graph past the exact range of cut_values raises
        ValueError before U is allocated.
        """
        if self._scoring is None:
            if min(self.m, _BLOCK * (self.n - 1)) >= _FLOAT32_EXACT:
                raise ValueError(f"graph with n = {self.n}, m = {self.m} is too large to score exactly")
            # d, U's largest column count, bounds |s| for s = x^T U[:, j] of a ±1 row x
            d = int(np.bincount(self.edges[:, 1], minlength=self.n).max())
            c = 1 << (2 * d).bit_length()
            if not (d * (1 + c) < _FLOAT32_EXACT and self.m < _FLOAT32_EXACT):
                c = 0
            # edges are stored with i < j, so (i, j) alone fills the strict upper triangle
            upper = np.zeros((self.n, self.n), dtype=np.float32)
            upper[self.edges[:, 0], self.edges[:, 1]] = 1
            upper.setflags(write=False)
            self._scoring = upper, c
        return self._scoring

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(np.int64)

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
    (m - h) / 2 with h = x^T U x = sum_j s_j x_j, where s_j = x^T U[:, j]
    and |s_j| <= d_j, column j's count of ones (vertex j's lower-numbered
    neighbours). The scores are exact: every float32 sum the scorer forms is
    an integer of magnitude below 2^24, which float32 holds exactly, so no
    summation order (a threaded or blocked GEMM included) can round it.

    U is walked by column blocks J of _BLOCK vertices (see _walk). With one
    label row per product row, the partial sums of s_j are at most d_j and
    those of J's row sum of s_j x_j at most sum_{j in J} d_j, which is at
    most min(m, _BLOCK (n - 1)); the block sums add in int64. The scorer
    packs two rows into one product row instead, whatever n,
    y = x_a + c x_b, where d is the largest d_j and c the smallest power of
    two above 2d. An entry of y U is s_a + c s_b with each partial sum at
    most d (1 + c). Adding M = 1.5 2^23 c moves it to where float32's
    spacing is c, so it rounds to M + c s_b, since |s_a| < c / 2;
    subtracting M leaves c s_b, and the rest is s_a. Each half's h is then a
    row sum of s_j x_j, whose partial sums are at most m. Only where
    d (1 + c) or m reaches 2^24 does a graph keep one row per product row.
    Past min(m, _BLOCK (n - 1)) >= 2^24 (m >= 2^24 and n > 2^24 / _BLOCK,
    where U alone would take over 64 GB) scoring raises ValueError, as do a
    bool, complex, object or string label array and any entry other than +1
    or -1.
    """
    v = np.asarray(labels)
    if v.ndim != 2 or v.shape[1] != g.n:
        raise ValueError(f"label batch has shape {v.shape}, expected (batch, {g.n})")
    return _score_rows(g, v)


def _score_rows(g: Graph, v: np.ndarray) -> np.ndarray:
    """The scorer behind cut_value and cut_values, for a (batch, n) array.

    cut_value calls this rather than cut_values, so a wrapper around
    cut_values (perfbench/tracer.py counts its rows) sees only batch calls.
    The dtype is checked once; rows are checked and scored a slice of _SLICE
    product rows (2 _SLICE label rows where they pack) at a time, so the
    float32 operands and products are slice-sized whatever the batch, and
    the arithmetic is exact (see cut_values), so the slicing cannot change
    a score.
    """
    if v.dtype.kind not in "iuf":  # a cast would read True as +1 and drop imaginary parts
        raise ValueError(f"labels must be +1 or -1, not of dtype {v.dtype}")
    out = np.zeros(v.shape[0], dtype=np.int64)
    u, c = g._scoring_adjacency()
    size = 2 * _SLICE if c else _SLICE
    for start in range(0, len(v), size):
        rows = v[start:start + size]
        if not (np.abs(rows) == 1).all():  # abs wraps the int minimum to itself, so it fails too
            raise ValueError("labels must be +1 or -1")
        out[start:start + len(rows)] = (g.m - _walk(rows, u, c)) // 2
    return out


def _walk(x: np.ndarray, u: np.ndarray, c: int) -> np.ndarray:
    """h = x^T U x for every ±1 row of x, U walked by column blocks J = [lo, hi).

    Z[:, J] = Y[:, :hi] @ U[:hi, J], since U is zero below the diagonal:
    about n^2 / 2 + n _BLOCK / 2 multiply-adds per product row, and one
    product for at most _BLOCK vertices. With c = 0, Y = X in float32 and h
    adds each block's rowsum(Z[:, J] * X[:, J]) in int64. With c > 0, the
    first half a of x and the second half b pair row for row, Y = X_a + c X_b,
    and an odd length leaves a's last row without a partner; Q = (Z + M) - M
    is c S_b (see cut_values), Z - Q is S_a, and h is rowsum(S_a * X_a) for a
    and rowsum((Q / c) * X_b) for b. The packed walk keeps two float32
    buffers, Y and Z: X_a is cast into Z until the products overwrite it, Q
    takes Y once the products are done, and the row sums read x as it is.
    """
    if not c:
        x = x.astype(np.float32)
        h = 0
        for lo in range(0, len(u), _BLOCK):
            hi = lo + _BLOCK
            h += np.einsum("bi,bi->b", x[:, :hi] @ u[:hi, lo:hi], x[:, lo:hi]).astype(np.int64)
        return h
    half = (len(x) + 1) // 2
    a, b = x[:half], x[half:]
    # y = c X_b + X_a; every value is an integer below 2^24, so the order cannot round
    y = np.empty((half, len(u)), dtype=np.float32)
    z = np.empty_like(y)
    y[:len(b)] = b
    y[len(b):] = 0
    y *= np.float32(c)
    z[...] = a
    y += z
    for lo in range(0, len(u), _BLOCK):
        hi = lo + _BLOCK
        np.matmul(y[:, :hi], u[:hi, lo:hi], out=z[:, lo:hi])
    big = np.float32(1.5 * 2 ** 23 * c)
    q = np.add(z, big, out=y)
    q -= big
    z -= q
    q *= np.float32(1 / c)
    h = np.empty(len(x), dtype=np.int64)
    h[:half] = np.einsum("bi,bi->b", z, a)
    h[half:] = np.einsum("bi,bi->b", q[:len(b)], b)
    return h


def generate_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the n(n-1)/2 vertex pairs is an edge with probability p.

    An n or seed that is not an integer (2.5, "3", None) raises ValueError.
    """
    n = _whole(n, "n", least=1)
    _check_probability(p)
    rng = np.random.default_rng(_whole(seed, "seed"))
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return Graph(n, np.column_stack([iu[mask], iv[mask]]))


def trevisan_matrix(g: Graph) -> np.ndarray:
    """I + D^{-1/2} A D^{-1/2}, spectrum in [0, 2].

    Rows and columns of degree-0 vertices carry only the identity part.
    """
    deg = g.degrees.astype(float)
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(g.n), where=deg > 0)
    mat = np.eye(g.n)
    u, v = g.edges.T
    mat[u, v] = mat[v, u] = inv_sqrt[u] * inv_sqrt[v]
    return mat


def load_graph(path) -> Graph:
    """Load an undirected graph from an edge-list or Matrix Market file.

    A file is read as Matrix Market when its name ends in .mtx or its first
    line starts with the %%MatrixMarket banner, and as an edge list otherwise.
    Self-loops are dropped and duplicate and reversed edges merge. An optional
    third token is a weight: 1 means an edge and 0 means no edge. Any other
    weight (2.5, 0.7, -1, nan), or a fourth token, raises ParseError naming
    its line, since the graph is unweighted and would misread it. Edge lists
    carry no vertex count, so their ids, any non-negative integers, are
    remapped to 0..n-1 in first-appearance order: 0- and 1-based lists of one
    graph load alike. Every entry line names its vertices, whatever its
    weight, so a line 'v v 0' keeps an isolated vertex. A negative id raises
    ParseError naming its line. Matrix Market files declare the size and keep
    isolated vertices, and their entry lines must number exactly the declared
    nnz. A Matrix Market banner that is not coordinate, or whose field is
    complex, raises ParseError naming it.
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if path.endswith(".mtx") or (lines and lines[0].startswith("%%MatrixMarket")):
        return _parse_matrix_market(lines)
    return _parse_edge_list(lines)


def _split_entry(raw: str, lineno: int):
    """Tokenize one data line into (u, v, is_edge).

    A missing weight or a weight of 1 is an edge and a weight of 0 is not; any
    other weight is input the unweighted graph cannot represent, and so is a
    fourth token, which would otherwise go unread.
    """
    tokens = raw.split()
    if not 2 <= len(tokens) <= 3:
        raise ParseError(f"expected two or three tokens (u v [weight]), got {len(tokens)}", lineno)
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


def _entries(numbered_lines, comment_prefixes):
    """(lineno, u, v, is_edge) for each line that is not blank and not a comment."""
    for lineno, raw in numbered_lines:
        stripped = raw.strip()
        if stripped and not stripped.startswith(comment_prefixes):
            yield (lineno, *_split_entry(stripped, lineno))


def _parse_edge_list(lines) -> Graph:
    order: dict[int, int] = {}
    edges = []
    for lineno, u, v, is_edge in _entries(enumerate(lines, start=1), ("#", "%")):
        if u < 0 or v < 0:
            raise ParseError("negative vertex id", lineno)
        for vid in (u, v):
            order.setdefault(vid, len(order))
        if is_edge and u != v:
            edges.append((order[u], order[v]))
    if not order:
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
                # the weight check would read "0 1" (0 + 1i) as weight 0, no edge
                if len(tokens) >= 4 and tokens[3] == "complex":
                    raise ParseError("complex Matrix Market files are not supported", lineno)
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
    for lineno, u, v, is_edge in _entries(it, "%"):
        entries += 1
        if not (1 <= u <= rows and 1 <= v <= rows):
            raise ParseError(f"entry ({u}, {v}) outside 1..{rows}", lineno)
        if is_edge and u != v:
            edges.append((u - 1, v - 1))
    if entries != nnz:
        raise ParseError(f"size line declares {nnz} entries, found {entries}", size_line)
    return Graph(rows, edges)


def save_graph(g: Graph, stream, fmt: str = "matrix-market") -> None:
    """Write a graph to an open text stream.

    matrix-market (default) declares n and keeps isolated vertices. edge-list
    writes 1-indexed 'u v' lines, then a weight-0 line 'v v 0' for each
    isolated vertex, so n survives the round trip too.
    """
    if fmt == "matrix-market":
        stream.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        stream.write(f"{g.n} {g.n} {g.m}\n")
        for u, v in g.edges:
            stream.write(f"{v + 1} {u + 1}\n")  # row >= column convention
    elif fmt == "edge-list":
        for u, v in g.edges:
            stream.write(f"{u + 1} {v + 1}\n")
        for v in np.flatnonzero(g.degrees == 0):
            stream.write(f"{v + 1} {v + 1} 0\n")
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
