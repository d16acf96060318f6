import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import (
    Graph,
    ParseError,
    cut_value,
    cut_values,
    generate_erdos_renyi,
    load_graph,
    save_graph,
    trevisan_matrix,
)
from neurocut import graphs
from neurocut.graphs import _BLOCK, _SLICE

from conftest import warm_peak_bytes


# --- construction -----------------------------------------------------------

def test_edges_canonicalized():
    g = Graph(4, [(2, 1), (1, 2), (0, 3), (3, 0)])
    assert g.m == 2
    assert g.edges.tolist() == [[0, 3], [1, 2]]


def test_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 0)])
    with pytest.raises(ValueError):
        Graph(0, [])


@pytest.mark.parametrize("edges", [
    [(0, 1.7), (1.2, 2)],
    [(0.0, 1.0)],
    np.array([[0, 1]], dtype=np.float32),
    [(True, False)],
    np.array([[0, 1]], dtype=bool),
    [("0", "1")],
    np.array([["0", "2"]]),
], ids=["float-list", "whole-float-list", "float32", "bool-list", "bool-array", "str-list",
        "str-array"])
def test_rejects_non_integer_endpoints(edges):
    # a cast would read 1.7 as 1, True as 1 and "2" as 2
    with pytest.raises(ValueError, match="edge endpoints must be integers"):
        Graph(3, edges)


@pytest.mark.parametrize("edges, shape", [
    # a reshape read these rows as the edges (0, 1), (0, 4) and (2, 3)
    ([[0, 1, 2], [3, 4, 0]], (2, 3)),
    ([0, 1, 2, 3], (4,)),
    (np.array([[[0, 1]], [[2, 3]]]), (2, 1, 2)),
], ids=["rows-of-three", "flat", "3-d"])
def test_rejects_edges_that_are_not_pairs(edges, shape):
    with pytest.raises(ValueError, match=re.escape(f"(m, 2) array of pairs, not of shape {shape}")):
        Graph(5, edges)


@pytest.mark.parametrize("n", [2.5, 2.0, "3", None])
def test_rejects_non_integer_vertex_count(n):
    with pytest.raises(ValueError, match="n = .* must be an integer"):
        Graph(n, [(0, 1)])


@pytest.mark.parametrize("edges", [
    [(np.int64(2), np.int32(1)), (0, 1)],
    np.array([[2, 1], [0, 1]], dtype=np.int32),
    np.array([[2, 1], [0, 1]], dtype=np.uint8),
    np.array([[2, 1], [0, 1]], dtype=np.uint64),
], ids=["scalars", "int32", "uint8", "uint64"])
def test_accepts_numpy_integers(edges):
    g = Graph(np.int64(3), edges)
    assert type(g.n) is int and g.n == 3
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g == Graph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("edges", [[], (), np.empty((0, 2)), np.empty(0, dtype=np.float32)])
def test_empty_edge_list_of_any_dtype_is_valid(edges):
    g = Graph(4, edges)
    assert g.m == 0 and g.edges.shape == (0, 2) and g.edges.dtype == np.int64


def test_adjacency_and_degrees(k3, c4):
    a = k3.adjacency
    assert a.shape == (3, 3)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert a.sum() == 2 * k3.m
    assert k3.degrees.tolist() == [2, 2, 2]
    assert c4.degrees.tolist() == [2, 2, 2, 2]
    # lone vertex keeps a zero row
    g = Graph(3, [(0, 1)])
    assert g.degrees.tolist() == [1, 1, 0]


def test_graph_equality_and_hash(k3):
    same = Graph(3, [(1, 2), (0, 2), (0, 1)])
    assert k3 == same
    assert hash(k3) == hash(same)
    assert k3 != Graph(3, [(0, 1)])


@st.composite
def messy_edge_lists(draw):
    """(n, pairs) with n <= 40: shuffled pairs with reversed and repeated copies.

    Covers no edges at all (n = 1, or an empty draw) and lists that hold one
    edge only, in both orientations.
    """
    n = draw(st.integers(1, 40))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda t: (t[0], (t[0] + t[1]) % n))
    if draw(st.booleans()):
        pairs = draw(st.lists(pair, max_size=80))
    else:
        pairs = [draw(pair)] * draw(st.integers(1, 5))
    if pairs:
        copies = draw(st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans()), max_size=40))
        for k, flip in copies:
            u, v = pairs[k % len(pairs)]
            pairs.append((v, u) if flip else (u, v))
    order = draw(st.permutations(range(len(pairs))))
    return n, [pairs[k] for k in order]


@given(messy_edge_lists())
@settings(max_examples=200, deadline=None)
def test_dedupe_matches_unique_reference(case):
    n, pairs = case
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    g = Graph(n, pairs)
    assert np.array_equal(g.edges, np.unique(np.sort(e, axis=1), axis=0))
    assert g.edges.dtype == np.int64 and g.edges.shape == (g.m, 2)
    assert g.edges.flags.c_contiguous and not g.edges.flags.writeable
    canonical = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs}))
    assert g.edges.tobytes() == canonical.edges.tobytes()
    assert g == canonical and hash(g) == hash(canonical)


# --- cut scoring ------------------------------------------------------------

def random_labels(n, seed):
    return np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.int8) * 2 - 1


def test_cut_value_counts_disagreeing_edges(c4):
    assert cut_value(c4, [1, -1, 1, -1]) == 4
    assert cut_value(c4, [1, 1, -1, -1]) == 2
    assert cut_value(c4, [1, 1, 1, 1]) == 0


def test_cut_value_shape_check(k3):
    with pytest.raises(ValueError):
        cut_value(k3, [1, -1])


def test_cut_values_matches_scalar(k3):
    # hand counts on the triangle: no split cuts nothing, any 2/1 split cuts 2
    batch = np.array([[1, 1, 1], [1, -1, 1], [-1, -1, 1], [-1, -1, -1]], dtype=np.int8)
    got = cut_values(k3, batch)
    assert got.dtype == np.int64
    assert got.tolist() == [0, 2, 2, 0]
    assert [cut_value(k3, row) for row in batch] == [0, 2, 2, 0]


def gather_cut_values(g, labels):
    """Reference scorer: count the edges whose endpoint labels differ."""
    v = np.asarray(labels)
    return np.count_nonzero(v[:, g.edges[:, 0]] != v[:, g.edges[:, 1]], axis=1)


@given(st.integers(1, 40), st.sampled_from([0.0, 0.5, 1.0]), st.integers(1, 64),
       st.sampled_from([np.int8, np.int64, np.float64]),
       st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
@settings(max_examples=80, deadline=None)
def test_cut_values_matches_gather_reference(n, p, batch, dtype, gseed, cseed):
    g = generate_erdos_renyi(n, p, gseed)
    rng = np.random.default_rng(cseed)
    labels = (rng.integers(0, 2, size=(batch, n)) * 2 - 1).astype(dtype)
    got = cut_values(g, labels)
    assert got.dtype == np.int64
    assert got.tolist() == gather_cut_values(g, labels).tolist()
    assert cut_value(g, labels[0]) == got[0]


@pytest.mark.parametrize("block", [_BLOCK, 2], ids=["bound-m", "bound-block-rows"])
def test_graphs_past_the_exact_bound_are_rejected_before_scoring(block, monkeypatch):
    # Moving the 2^24 limit onto the bound min(m, _BLOCK (n - 1)) pins the
    # rejection without a graph of 2^24 edges. K_30 has m = 435: with
    # 128-vertex blocks the bound is m, with 2-vertex blocks it is 2 * 29 = 58.
    monkeypatch.setattr(graphs, "_BLOCK", block)
    g = generate_erdos_renyi(30, 1.0, 0)
    bound = min(g.m, block * (g.n - 1))
    assert bound == (435 if block == _BLOCK else 58)
    labels = np.random.default_rng(1).integers(0, 2, size=(9, 30), dtype=np.int8) * 2 - 1
    monkeypatch.setattr(graphs, "_FLOAT32_EXACT", bound)
    fresh = Graph(g.n, g.edges)
    with pytest.raises(ValueError, match="too large to score exactly"):
        cut_values(fresh, labels)
    assert fresh._scoring is None
    monkeypatch.setattr(graphs, "_FLOAT32_EXACT", bound + 1)
    assert cut_values(fresh, labels).tolist() == gather_cut_values(g, labels).tolist()
    assert fresh._scoring_adjacency()[0].dtype == np.float32


def test_float32_adjacency_is_built_once_and_read_only(c4):
    pair = c4._scoring_adjacency()
    u, c = pair
    # C_4's U holds two ones in its last column, so d = 2 and the rows pack with c = 8
    assert u.dtype == np.float32 and not u.flags.writeable and c == 8
    assert np.array_equal(u, np.triu(c4.adjacency, 1))
    cut_values(c4, np.ones((3, 4), dtype=np.int8))
    assert c4._scoring_adjacency() is pair
    # the float64 adjacency and the Trevisan matrix are built per call, not kept
    assert c4.adjacency is not c4.adjacency
    trevisan_matrix(c4)
    assert set(vars(c4)) == {"n", "edges", "_scoring"}


@given(st.integers(1, 40), st.sampled_from([0.1, 0.5, 1.0]), st.sampled_from([1, 3, 8]),
       st.integers(1, 2 * _SLICE), st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_block_walk_matches_gather_across_many_blocks(n, p, block, batch, gseed, cseed):
    # small blocks make graphs of at most 40 vertices cross many of them,
    # with a partial last block whenever block does not divide n
    g = generate_erdos_renyi(n, p, gseed)
    labels = np.random.default_rng(cseed).integers(0, 2, size=(batch, n), dtype=np.int8) * 2 - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_BLOCK", block)
        assert cut_values(g, labels).tolist() == gather_cut_values(g, labels).tolist()


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK + 1])
def test_block_walk_matches_gather_at_block_boundaries(n):
    # a last block of one vertex holds an empty row of U; 2 * _BLOCK - 1
    # ends on a partial block that carries edges
    g = generate_erdos_renyi(n, 0.5, n)
    labels = np.random.default_rng(n).integers(0, 2, size=(_SLICE + 1, n), dtype=np.int8) * 2 - 1
    got = cut_values(g, labels)
    assert got.dtype == np.int64 and got.shape == (_SLICE + 1,)
    assert got.tolist() == gather_cut_values(g, labels).tolist()


@pytest.mark.parametrize("batch", [1, _SLICE - 1, _SLICE, _SLICE + 1, 4096])
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_sliced_scoring_matches_gather_at_slice_boundaries(batch, p):
    g = generate_erdos_renyi(40, p, 3)
    labels = np.random.default_rng(batch).integers(0, 2, size=(batch, 40), dtype=np.int8) * 2 - 1
    got = cut_values(g, labels)
    assert got.dtype == np.int64 and got.shape == (batch,)
    assert got.tolist() == gather_cut_values(g, labels).tolist()


# label rows per slice where the scorer packs two into each product row
_PACKED_SLICE = 2 * _SLICE


def _paired_patterns(n, batch):
    """Rows of all +1, all -1 and alternating signs, every pattern pair packed together.

    Row k of a packed slice pairs with row k + half of it in the packed
    scorer, so the first half cycles through the four patterns and the
    second half holds each pattern for four rows; a slice of odd length
    leaves its last row of the first half without a partner.
    """
    alt = np.resize(np.array([1, -1], dtype=np.int8), n)
    patterns = np.stack([np.ones(n, dtype=np.int8), -np.ones(n, dtype=np.int8), alt, -alt])
    picks = []
    for start in range(0, batch, _PACKED_SLICE):
        size = min(_PACKED_SLICE, batch - start)
        half = (size + 1) // 2
        picks += [k % 4 for k in range(half)] + [(k // 4) % 4 for k in range(size - half)]
    return patterns[picks]


@pytest.mark.parametrize("batch", [1, _SLICE - 1, _SLICE, _SLICE + 1,
                                   _PACKED_SLICE - 1, _PACKED_SLICE, _PACKED_SLICE + 1])
@pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _BLOCK + 45, 2, 3, _BLOCK // 2, _BLOCK])
def test_packed_scoring_is_exact_on_complete_graphs(n, batch):
    # K_n's last column of U holds d = n - 1 ones, so an all-(+1) or all-(-1) row
    # reaches |s| = d there, the most the packing factor c > 2d must separate
    g = generate_erdos_renyi(n, 1.0, 0)
    labels = _paired_patterns(n, batch)
    got = cut_values(g, labels)
    assert g._scoring_adjacency()[1] == 1 << (2 * (n - 1)).bit_length()
    assert got.dtype == np.int64 and got.shape == (batch,)
    assert got.tolist() == gather_cut_values(g, labels).tolist()
    assert got[0] == 0 and (batch < 3 or got[2] == (n // 2) * (n - n // 2))


@pytest.mark.parametrize("batch", [1, _SLICE - 1, _SLICE, _SLICE + 1,
                                   _PACKED_SLICE - 1, _PACKED_SLICE, _PACKED_SLICE + 1])
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_packed_scoring_matches_gather_at_slice_boundaries(batch, p):
    g = generate_erdos_renyi(2 * _BLOCK - 11, p, 5)
    labels = np.random.default_rng(batch).integers(0, 2, size=(batch, g.n), dtype=np.int8) * 2 - 1
    got = cut_values(g, labels)
    assert g._scoring_adjacency()[1] > 0
    assert got.tolist() == gather_cut_values(g, labels).tolist()


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64,
                                   np.float16, np.float32, np.float64])
def test_packed_scoring_reads_labels_of_any_real_dtype(dtype):
    # the packed walk casts the labels into its float32 operand and takes its
    # row sums against the labels in their own dtype
    g = generate_erdos_renyi(2 * _BLOCK + 45, 0.5, 6)
    signs = np.random.default_rng(7).integers(0, 2, size=(_PACKED_SLICE + 3, g.n)) * 2 - 1
    labels = (np.abs(signs) if np.dtype(dtype).kind == "u" else signs).astype(dtype)
    assert g._scoring_adjacency()[1] > 0
    assert cut_values(g, labels).tolist() == gather_cut_values(g, labels).tolist()


def test_graphs_of_any_size_score_packed():
    # packing is no slower than the single product down to n = 20, so no size
    # below the float32 bound keeps one label row per product row
    for n in [1, 2, _BLOCK, _BLOCK + 1]:
        g = generate_erdos_renyi(n, 1.0, 0)
        labels = _paired_patterns(n, _SLICE)
        assert cut_values(g, labels).tolist() == gather_cut_values(g, labels).tolist()
        assert g._scoring_adjacency()[1] == 1 << (2 * (n - 1)).bit_length()


@pytest.mark.parametrize("batch", [1, _PACKED_SLICE - 1, _PACKED_SLICE, _PACKED_SLICE + 1])
@pytest.mark.parametrize("n", [2, 3, _BLOCK // 2, _BLOCK])
def test_small_complete_graphs_pack_at_slice_boundaries(n, batch):
    g = generate_erdos_renyi(n, 1.0, 0)
    labels = np.random.default_rng(batch).integers(0, 2, size=(batch, n), dtype=np.int8) * 2 - 1
    got = cut_values(g, labels)
    assert g._scoring_adjacency()[1] > 0
    assert got.tolist() == gather_cut_values(g, labels).tolist()


@pytest.mark.parametrize("make, block, limit", [
    # K_129: d = 128 and c = 512, so d (1 + c) = 65,664, while min(m, _BLOCK (n - 1)) = 8,256
    (lambda: generate_erdos_renyi(_BLOCK + 1, 1.0, 0), _BLOCK, 128 * 513),
    # edges (i, i + 1) and (i, i + 2): d = 2 and c = 8, so d (1 + c) = 18, but the
    # packed row sums reach m = 77; the unpacked walk's bound with 1-vertex blocks is 39
    (lambda: Graph(40, [(i, i + k) for k in (1, 2) for i in range(40 - k)]), 1, 77),
], ids=["product-bound", "row-sum-bound"])
def test_a_bound_at_the_float32_limit_keeps_the_unpacked_product(make, block, limit, monkeypatch):
    monkeypatch.setattr(graphs, "_BLOCK", block)
    labels = np.random.default_rng(2).integers(0, 2, size=(_SLICE + 1, make().n), dtype=np.int8) * 2 - 1
    for exact, packs in [(limit, False), (limit + 1, True)]:
        monkeypatch.setattr(graphs, "_FLOAT32_EXACT", exact)
        g = make()
        assert cut_values(g, labels).tolist() == gather_cut_values(g, labels).tolist()
        assert (g._scoring_adjacency()[1] > 0) == packs


def test_bad_label_in_a_later_slice_is_rejected(k3):
    labels = np.ones((3 * _SLICE, 3), dtype=np.int8)
    labels[2 * _SLICE + 5, 1] = 0
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        cut_values(k3, labels)


def test_cut_values_temporaries_are_slice_sized():
    # a (4096, 100) float64 copy of the batch alone would take 3.3 MB
    g = generate_erdos_renyi(100, 0.5, 1)
    labels = np.random.default_rng(0).integers(0, 2, size=(4096, 100), dtype=np.int8) * 2 - 1
    assert warm_peak_bytes(lambda: cut_values(g, labels)) < 1_000_000


def test_packed_scoring_temporaries_are_slice_sized():
    # a (4096, 500) float32 copy of the batch alone would take 8.2 MB; a packed
    # slice of 512 rows takes two float32 buffers of 256 rows, 0.5 MB each, and
    # the call peaked at 1.1 MB
    g = generate_erdos_renyi(500, 0.75, 1)
    labels = np.random.default_rng(0).integers(0, 2, size=(4096, 500), dtype=np.int8) * 2 - 1
    assert g._scoring_adjacency()[1] > 0
    assert warm_peak_bytes(lambda: cut_values(g, labels)) < 1_400_000


@pytest.mark.parametrize("row", [[1, 0, 1], [True, False, True], [1.0, -1.0, 2.0],
                                 [1.0, -1.0, 0.5], [1.0, -1.0, -0.5], [1.0, -1.0, np.nan],
                                 [1.0, -1.0, np.inf]])
@pytest.mark.parametrize("graph", [Graph(3, [(0, 1), (1, 2), (0, 2)]), Graph(3, [])],
                         ids=["k3", "edgeless"])
def test_cut_scorers_reject_non_pm_one_labels(graph, row):
    row = np.array(row)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        cut_value(graph, row)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        cut_values(graph, np.stack([row, row]))


@pytest.mark.parametrize("row", [np.ones(3, dtype=bool), np.array([1, -1, 1], dtype=complex),
                                 np.array([1, -1, 1], dtype=object), np.array(["1", "-1", "1"])],
                         ids=["all-true", "complex", "object", "text"])
def test_cut_scorers_reject_label_dtypes_a_cast_would_misread(k3, row):
    # all-True rows scored as all +1 (cut 0), and complex rows lost their
    # imaginary part with a ComplexWarning; the dtype is refused before any slice
    with pytest.raises(ValueError, match=rf"\+1 or -1, not of dtype {row.dtype}"):
        cut_value(k3, row)
    with pytest.raises(ValueError, match=rf"\+1 or -1, not of dtype {row.dtype}"):
        cut_values(k3, np.stack([row, row]))


@given(st.integers(2, 12), st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_cut_flip_symmetry(n, gseed, cseed):
    g = generate_erdos_renyi(n, 0.5, gseed)
    v = random_labels(n, cseed)
    assert cut_value(g, v) == cut_value(g, -v)


@given(st.integers(2, 12), st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_cut_quarter_form_identity(n, gseed, cseed):
    # edge disagreement count equals (1/4) sum_ij A_ij (1 - v_i v_j)
    g = generate_erdos_renyi(n, 0.5, gseed)
    v = random_labels(n, cseed).astype(float)
    quad = 0.25 * float(np.sum(g.adjacency * (1.0 - np.outer(v, v))))
    assert cut_value(g, v) == pytest.approx(quad, abs=1e-9)


# --- generators -------------------------------------------------------------

def test_er_determinism_and_extremes():
    g1 = generate_erdos_renyi(30, 0.25, 7)
    g2 = generate_erdos_renyi(30, 0.25, 7)
    assert g1 == g2
    assert generate_erdos_renyi(10, 0.0, 1).m == 0
    assert generate_erdos_renyi(10, 1.0, 1).m == 45
    with pytest.raises(ValueError):
        generate_erdos_renyi(10, 1.5, 1)


@pytest.mark.parametrize("p", ["0.5", True, None, np.nan], ids=["text", "bool", "none", "nan"])
def test_er_rejects_a_probability_that_is_not_a_real_number(p):
    # "0.5" and None raised TypeError from the comparison; True ran as p = 1
    with pytest.raises(ValueError, match="must be a real number in"):
        generate_erdos_renyi(10, p, 1)


@pytest.mark.parametrize("field", ["n", "seed"])
@pytest.mark.parametrize("value", [2.5, "3", None], ids=["float", "text", "none"])
def test_er_rejects_a_size_or_seed_that_is_not_an_integer(field, value):
    # numpy raised TypeError for these, from the n < 1 test or the generator
    args = dict(n=10, p=0.5, seed=1) | {field: value}
    with pytest.raises(ValueError, match=f"{field} = .* must be an integer"):
        generate_erdos_renyi(**args)


def test_er_numpy_integers_draw_the_graph_of_their_ints():
    assert generate_erdos_renyi(np.int64(30), 0.25, np.int64(7)) == generate_erdos_renyi(30, 0.25, 7)


def test_er_density_sane():
    g = generate_erdos_renyi(200, 0.25, 123)
    mean = g.m / (200 * 199 / 2)
    assert 0.2 < mean < 0.3


# --- derived matrix ---------------------------------------------------------

def test_trevisan_matrix_spectrum_bounds(petersen):
    tm = trevisan_matrix(petersen)
    assert np.allclose(tm, tm.T)
    vals = np.linalg.eigvalsh(tm)
    assert vals[0] >= -1e-9
    assert vals[-1] <= 2.0 + 1e-9


@given(st.integers(2, 20), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_trevisan_matrix_spectrum_bounds_random(n, seed):
    g = generate_erdos_renyi(n, 0.3, seed)
    vals = np.linalg.eigvalsh(trevisan_matrix(g))
    assert vals[0] >= -1e-9
    assert vals[-1] <= 2.0 + 1e-9


def test_trevisan_matrix_isolated_rows():
    g = Graph(3, [(0, 1)])
    tm = trevisan_matrix(g)
    # isolated vertex row and column carry only the identity part
    assert np.array_equal(tm[2], [0.0, 0.0, 1.0])
    assert np.array_equal(tm[:, 2], [0.0, 0.0, 1.0])
    assert tm[0, 1] == pytest.approx(1.0)  # 1/sqrt(1*1)


def test_trevisan_matrix_k3_entries(k3):
    tm = trevisan_matrix(k3)
    assert np.allclose(tm, np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3)))


@pytest.mark.parametrize("make", [
    lambda: Graph(3, []),
    lambda: Graph(6, [(0, 1), (1, 2), (4, 5)]),  # vertex 3 has no edge
    lambda: generate_erdos_renyi(1, 0.5, 1),
    lambda: generate_erdos_renyi(20, 0.1, 20),
    lambda: generate_erdos_renyi(130, 0.5, 130),
    lambda: generate_erdos_renyi(500, 0.75, 500),
], ids=["edgeless", "isolated-vertex", "er-1", "er-20", "er-130", "er-500"])
def test_trevisan_matrix_matches_the_dense_formula_bit_for_bit(make):
    # the learner's weights come from this matrix, so building it from the
    # edge list must not move a bit against the dense product
    g = make()
    a = np.zeros((g.n, g.n))
    a[g.edges[:, 0], g.edges[:, 1]] = 1.0
    a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    deg = a.sum(axis=1)
    s = np.zeros(g.n)
    s[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    want = a * s[:, None] * s[None, :] + np.eye(g.n)
    assert trevisan_matrix(g).tobytes() == want.tobytes()


# --- edge-list ingestion ----------------------------------------------------

def test_edge_list_basic(tmp_edge_list):
    path = tmp_edge_list(["# comment", "1 2", "2 3", "", "% also comment", "3 1"])
    g = load_graph(path)
    assert (g.n, g.m) == (3, 3)


def test_edge_list_first_appearance_order(tmp_edge_list):
    # vertex ids are remapped in order of first appearance
    path = tmp_edge_list(["7 3", "3 9"])
    g = load_graph(path)
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_edge_list_duplicates_reverse_and_loops(tmp_edge_list):
    path = tmp_edge_list(["1 2", "2 1", "1 1", "2 3"])
    g = load_graph(path)
    assert (g.n, g.m) == (3, 2)


def test_edge_list_zero_weight_skips_edge(tmp_edge_list):
    path = tmp_edge_list(["1 2 1.0", "2 3 0.0", "3 4 1"])
    g = load_graph(path)
    # 2-3 contributes no edge; ids 3 and 4 still enter via their other lines
    assert (g.n, g.m) == (4, 2)
    for weight in ("2.5", "-1", "0.5", "nan", "inf"):
        path = tmp_edge_list(["1 2 1.0", "2 3 0.0", f"3 4 {weight}"])
        with pytest.raises(ParseError, match=f"line 3: weight '{weight}' is not 0 or 1"):
            load_graph(path)


@pytest.mark.parametrize("lines, n", [(["1 2 0", "3 3"], 3), (["1 2 0", "2 1 0"], 2)],
                         ids=["weight-0-and-loop", "weight-0-only"])
def test_edge_list_entry_line_names_its_vertices(tmp_edge_list, lines, n):
    # a weight-0 line registers its ids as a self-loop line does, so its
    # vertices are kept; a file of weight-0 lines alone is a graph with no edge
    g = load_graph(tmp_edge_list(lines))
    assert (g.n, g.m) == (n, 0)


@pytest.mark.parametrize("entry", ["2 3 1 abc", "2 3 1 1", "2 3 0 1"])
def test_edge_list_extra_token_rejected(tmp_edge_list, entry):
    # the tokens past the weight went unread, so '2 3 1 abc' was the edge 2-3
    path = tmp_edge_list(["1 2", entry])
    with pytest.raises(ParseError, match="line 2: expected two or three tokens"):
        load_graph(path)


def test_edge_list_indexing_option(tmp_edge_list):
    # ids are relabelled in first-appearance order, so 0- and 1-based lists
    # of one graph load alike, with no option
    zero = load_graph(tmp_edge_list(["0 1", "1 2", "3 0"]))
    one = load_graph(tmp_edge_list(["1 2", "2 3", "4 1"]))
    assert (zero.n, zero.m) == (4, 3)
    assert np.array_equal(zero.edges, one.edges)
    with pytest.raises(ParseError, match="line 2: negative vertex id"):
        load_graph(tmp_edge_list(["0 1", "1 -2"]))


def test_edge_list_error_carries_line_number(tmp_edge_list):
    path = tmp_edge_list(["1 2", "oops"])
    with pytest.raises(ParseError, match="line 2"):
        load_graph(path)
    path = tmp_edge_list(["1 2", "3"])
    with pytest.raises(ParseError, match="line 2"):
        load_graph(path)
    path = tmp_edge_list(["1 2", "3 4 zzz"])
    with pytest.raises(ParseError, match="line 2"):
        load_graph(path)


def test_edge_list_empty_file_rejected(tmp_edge_list):
    path = tmp_edge_list(["# nothing here"])
    with pytest.raises(ValueError):
        load_graph(path)


# --- matrix market ingestion ------------------------------------------------

def test_mtx_declares_size(tmp_mtx):
    path = tmp_mtx([
        "%%MatrixMarket matrix coordinate pattern symmetric",
        "% a comment",
        "5 5 2",
        "2 1",
        "4 3",
    ])
    g = load_graph(path)
    assert (g.n, g.m) == (5, 2)  # vertex 5 isolated but present
    assert g.edges.tolist() == [[0, 1], [2, 3]]


def test_mtx_rejects_array_banner(tmp_mtx):
    path = tmp_mtx(["%%MatrixMarket matrix array real general", "3 3 9"])
    with pytest.raises(ParseError):
        load_graph(path)


def test_mtx_rejects_complex_banner(tmp_mtx):
    # the weight check read 0 + 1i as weight 0 and dropped the entry
    path = tmp_mtx(["%%MatrixMarket matrix coordinate complex general", "3 3 1", "3 2 0 1"])
    with pytest.raises(ParseError, match="line 1: complex Matrix Market files are not supported"):
        load_graph(path)


def test_mtx_rejects_rectangular(tmp_mtx):
    path = tmp_mtx(["%%MatrixMarket matrix coordinate pattern general", "3 4 1", "1 2"])
    with pytest.raises(ParseError):
        load_graph(path)


def test_mtx_out_of_range_entry(tmp_mtx):
    path = tmp_mtx(["3 3 1", "1 4"])
    with pytest.raises(ParseError, match="line 2"):
        load_graph(path)


@pytest.mark.parametrize("nnz", [1, 3])
def test_mtx_entry_count_must_match_nnz(tmp_mtx, nnz):
    path = tmp_mtx(["%%MatrixMarket matrix coordinate pattern symmetric",
                    "% a comment", f"4 4 {nnz}", "2 1", "", "3 2"])
    with pytest.raises(ParseError, match=f"line 3: size line declares {nnz} entries, found 2"):
        load_graph(path)


def test_mtx_weighted_entries_binarized(tmp_mtx):
    path = tmp_mtx(["4 4 3", "1 2 1", "2 3 0", "3 3 1.0"])
    g = load_graph(path)
    assert (g.n, g.m) == (4, 1)
    path = tmp_mtx(["4 4 3", "1 2 0.7", "2 3 0", "3 4 1"])
    with pytest.raises(ParseError, match="line 2: weight '0.7' is not 0 or 1"):
        load_graph(path)
    path = tmp_mtx(["4 4 3", "1 2 1", "2 3 0", "3 3 5"])
    with pytest.raises(ParseError, match="line 4: weight '5' is not 0 or 1"):
        load_graph(path)


@pytest.mark.parametrize("entry", ["3 2 1 abc", "3 2 1 0", "3 2 0 1"])
def test_mtx_extra_token_rejected(tmp_mtx, entry):
    path = tmp_mtx(["%%MatrixMarket matrix coordinate real symmetric", "4 4 2", "2 1 1", entry])
    with pytest.raises(ParseError, match="line 4: expected two or three tokens"):
        load_graph(path)


def test_format_detection_by_suffix(tmp_path):
    mtx = tmp_path / "g.mtx"
    mtx.write_text("2 2 1\n1 2\n", encoding="utf-8")
    assert load_graph(mtx).n == 2
    txt = tmp_path / "g.txt"
    txt.write_text("1 2\n", encoding="utf-8")
    assert load_graph(txt).n == 2
    # any other name is read as Matrix Market by its banner: as an edge list,
    # the size line '12 12 20' would be an entry refused for its weight 20
    g = generate_erdos_renyi(12, 0.3, 5)
    for name in ("g.mtx", "g.txt"):
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            save_graph(g, fh)
    assert load_graph(tmp_path / "g.txt") == load_graph(tmp_path / "g.mtx") == g


def _messy_copy(lines, seed):
    """lines shuffled, about half of them reversed, and a third of them repeated."""
    rng = np.random.default_rng(seed)
    out = [" ".join(ln.split()[::-1]) if rng.random() < 0.5 else ln for ln in lines]
    out += [out[k] for k in rng.choice(len(out), size=len(out) // 3, replace=False)]
    return [out[k] for k in rng.permutation(len(out))]


def test_load_ignores_line_order_reversal_and_repeats(tmp_edge_list, tmp_mtx):
    g = generate_erdos_renyi(30, 0.3, 11)
    body = [f"{u + 1} {v + 1}" for u, v in g.edges.tolist()]
    # edge-list ids are numbered by first appearance, so a path through
    # 1..n fixes that order in both files; every edge then follows it
    path = [f"{k} {k + 1}" for k in range(1, g.n)]
    want = load_graph(tmp_edge_list(path + body, name="sorted.txt"))
    variants = [(body + path)[::-1]] + [_messy_copy(body + path, seed) for seed in range(3)]
    for k, messy in enumerate(variants):
        got = load_graph(tmp_edge_list(path + messy, name=f"messy{k}.txt"))
        assert got.edges.tobytes() == want.edges.tobytes() and got.n == want.n

    header = ["%%MatrixMarket matrix coordinate pattern symmetric"]
    want = load_graph(tmp_mtx(header + [f"{g.n} {g.n} {len(body)}"] + body, name="sorted.mtx"))
    assert want == g
    variants = [body[::-1]] + [_messy_copy(body, seed) for seed in range(3)]
    for k, messy in enumerate(variants):
        got = load_graph(tmp_mtx(header + [f"{g.n} {g.n} {len(messy)}"] + messy, name=f"messy{k}.mtx"))
        assert got.edges.tobytes() == want.edges.tobytes() and got.n == want.n


# --- save/round-trip --------------------------------------------------------

def test_mtx_round_trip_preserves_isolated():
    g = Graph(6, [(0, 2), (1, 4)])
    buf = io.StringIO()
    save_graph(g, buf)
    text = buf.getvalue()
    assert text.startswith("%%MatrixMarket matrix coordinate pattern symmetric\n")
    assert "6 6 2" in text


def test_round_trip_files(tmp_path):
    g = generate_erdos_renyi(17, 0.3, 99)
    for fmt, name in [("matrix-market", "g.mtx"), ("edge-list", "g.txt")]:
        p = tmp_path / name
        with open(p, "w", encoding="utf-8") as fh:
            save_graph(g, fh, fmt)
        back = load_graph(p)
        if fmt == "matrix-market":
            assert back == g
        else:
            # edge-list ids are relabelled, so the graph survives up to isomorphism
            assert (back.n, back.m) == (g.n, g.m)
            assert sorted(back.degrees) == sorted(g.degrees)


def test_save_rejects_unknown_format(k3):
    with pytest.raises(ValueError):
        save_graph(k3, io.StringIO(), "dot")


@given(st.integers(2, 15), st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_mtx_round_trip_random(n, seed):
    g = generate_erdos_renyi(n, 0.4, seed)
    buf = io.StringIO()
    save_graph(g, buf)
    from neurocut.graphs import _parse_matrix_market

    assert _parse_matrix_market(buf.getvalue().splitlines()) == g


@given(st.integers(2, 15), st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_edge_list_round_trip_random(n, seed):
    # at p = 0.15 many of these graphs have an isolated vertex, which the
    # edge list names with a weight-0 line 'v v 0'
    g = generate_erdos_renyi(n, 0.15, seed)
    buf = io.StringIO()
    save_graph(g, buf, "edge-list")
    back = graphs._parse_edge_list(buf.getvalue().splitlines())
    assert (back.n, back.m) == (g.n, g.m)
    assert sorted(back.degrees) == sorted(g.degrees)
