import io

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
from neurocut.oracles import symmetric_eigen


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


def test_er_density_sane():
    g = generate_erdos_renyi(200, 0.25, 123)
    mean = g.m / (200 * 199 / 2)
    assert 0.2 < mean < 0.3


# --- derived matrix ---------------------------------------------------------

def test_trevisan_matrix_spectrum_bounds(petersen):
    tm = trevisan_matrix(petersen)
    assert np.allclose(tm.matrix, tm.matrix.T)
    vals = symmetric_eigen(tm.matrix).eigenvalues
    assert vals[0] >= -1e-9
    assert vals[-1] <= 2.0 + 1e-9


@given(st.integers(2, 20), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_trevisan_matrix_spectrum_bounds_random(n, seed):
    g = generate_erdos_renyi(n, 0.3, seed)
    tm = trevisan_matrix(g)
    vals = symmetric_eigen(tm.matrix).eigenvalues
    assert vals[0] >= -1e-9
    assert vals[-1] <= 2.0 + 1e-9
    assert tm.isolated.tolist() == [d == 0 for d in g.degrees]


def test_trevisan_matrix_isolated_rows():
    g = Graph(3, [(0, 1)])
    tm = trevisan_matrix(g)
    assert tm.isolated.tolist() == [False, False, True]
    # isolated vertex row carries only the identity part
    assert np.array_equal(tm.matrix[2], [0.0, 0.0, 1.0])
    assert tm.matrix[0, 1] == pytest.approx(1.0)  # 1/sqrt(1*1)


def test_trevisan_matrix_k3_entries(k3):
    tm = trevisan_matrix(k3)
    assert np.allclose(tm.matrix, np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3)))


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
    path = tmp_edge_list(["1 2 1.0", "2 3 0.0", "3 4 2.5"])
    g = load_graph(path)
    # 2-3 contributes no edge; ids 3 and 4 still enter via their other lines
    assert (g.n, g.m) == (4, 2)


def test_edge_list_indexing_option(tmp_edge_list):
    path = tmp_edge_list(["0 1", "1 2"])
    with pytest.raises(ParseError):
        load_graph(path)  # one-indexed by default: id 0 is below base
    g = load_graph(path, zero_indexed=True)
    assert (g.n, g.m) == (3, 2)


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
    path = tmp_mtx(["4 4 3", "1 2 0.7", "2 3 0", "3 3 5"])
    g = load_graph(path)
    assert (g.n, g.m) == (4, 1)


def test_format_detection_by_suffix(tmp_path):
    mtx = tmp_path / "g.mtx"
    mtx.write_text("2 2 1\n1 2\n", encoding="utf-8")
    assert load_graph(mtx).n == 2
    txt = tmp_path / "g.txt"
    txt.write_text("1 2\n", encoding="utf-8")
    assert load_graph(txt).n == 2
    with pytest.raises(ValueError):
        load_graph(txt, fmt="pajek")


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
            # edge lists do not carry n, so only edge structure survives
            assert back.m == g.m


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
