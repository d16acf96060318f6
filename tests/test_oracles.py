import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import (
    Graph,
    brute_force_maxcut,
    cut_value,
    generate_erdos_renyi,
    reference_hyperplane_rounds,
    spectral_cut,
)
from neurocut.oracles import _ROUND_ROWS, ENUM_LIMIT

from conftest import NOT_REAL, assert_pm_one


def exhaustive_opt(g):
    """Independent reference: try every ±1 labeling via itertools."""
    best = 0
    for signs in itertools.product((-1, 1), repeat=g.n - 1):
        v = np.array((-1,) + signs, dtype=np.int8)
        best = max(best, cut_value(g, v))
    return best


# --- brute force ------------------------------------------------------------

def test_known_optima(k2, k3, c4, petersen):
    assert brute_force_maxcut(k2).value == 1
    assert brute_force_maxcut(k3).value == 2
    assert brute_force_maxcut(c4).value == 4
    assert brute_force_maxcut(petersen).value == 12


def test_witness_attains_value(petersen):
    res = brute_force_maxcut(petersen)
    assert_pm_one(res.labels, 10)
    assert cut_value(petersen, res.labels) == res.value


def test_edgeless_and_guard():
    res = brute_force_maxcut(Graph(5, []))
    assert res.value == 0
    with pytest.raises(ValueError):
        brute_force_maxcut(generate_erdos_renyi(ENUM_LIMIT + 1, 0.5, 0))


def test_complete_bipartite():
    # K_{3,4}: optimum cuts all 12 edges
    edges = [(i, 3 + j) for i in range(3) for j in range(4)]
    assert brute_force_maxcut(Graph(7, edges)).value == 12


def test_k5_optimum():
    edges = list(itertools.combinations(range(5), 2))
    # balanced split 2/3 cuts 2*3 = 6 of the 10 edges
    assert brute_force_maxcut(Graph(5, edges)).value == 6


@given(st.integers(2, 10), st.floats(0.2, 0.8), st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_agrees_with_itertools_reference(n, p, seed):
    g = generate_erdos_renyi(n, p, seed)
    res = brute_force_maxcut(g)
    assert res.value == exhaustive_opt(g)
    assert cut_value(g, res.labels) == res.value


def test_block_boundary_exercised():
    # n = 20 forces multiple enumeration blocks (2^19 codes > one block)
    g = generate_erdos_renyi(20, 0.2, 3)
    res = brute_force_maxcut(g)
    assert cut_value(g, res.labels) == res.value
    assert res.value >= g.m // 2  # any graph cuts at least half its edges


# --- spectral cut -----------------------------------------------------------

def test_spectral_cut_k2(k2):
    res = spectral_cut(k2)
    assert cut_value(k2, res.labels) == 1
    assert not res.degenerate
    assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_spectral_cut_c4(c4):
    res = spectral_cut(c4)
    assert cut_value(c4, res.labels) == 4
    assert tuple(res.labels) in {(1, -1, 1, -1), (-1, 1, -1, 1)}
    assert not res.degenerate


def test_spectral_cut_k3_degenerate(k3):
    # K3 bottom eigenvalue 1/2 has multiplicity 2
    res = spectral_cut(k3)
    assert res.degenerate
    assert res.min_eigenvalue == pytest.approx(0.5)
    assert cut_value(k3, res.labels) == 2  # any 2/1 split is optimal


def test_spectral_cut_isolated_vertices_forced_negative():
    g = Graph(4, [(0, 1)])
    res = spectral_cut(g)
    assert res.labels[2] == -1 and res.labels[3] == -1
    assert cut_value(g, res.labels) == 1


def test_spectral_cut_bipartite_exact():
    # connected bipartite graph: min eigenvalue 0 is simple and the sign cut
    # recovers the bipartition, cutting every edge
    path = [(0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 8), (4, 8), (4, 9)]
    g = Graph(10, path + [(0, 6), (2, 9)])
    res = spectral_cut(g)
    assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-10)
    assert not res.degenerate
    assert cut_value(g, res.labels) == g.m


@given(st.integers(2, 16), st.floats(0.2, 0.8), st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_spectral_cut_sane_random(n, p, seed):
    g = generate_erdos_renyi(n, p, seed)
    res = spectral_cut(g)
    assert_pm_one(res.labels, n)
    assert -1e-9 <= res.min_eigenvalue <= 2.0 + 1e-9
    assert cut_value(g, res.labels) <= brute_force_maxcut(g).value


# --- hyperplane rounding ----------------------------------------------------

def test_round_antipodal_rows_always_disagree():
    vecs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    rounds = reference_hyperplane_rounds(vecs, 2000, np.random.default_rng(0))
    assert np.all(rounds[:, 0] != rounds[:, 1])


def test_round_identical_rows_never_disagree():
    vecs = np.array([[0.6, 0.8], [0.6, 0.8]])
    rounds = reference_hyperplane_rounds(vecs, 2000, np.random.default_rng(1))
    assert np.all(rounds[:, 0] == rounds[:, 1])


def test_round_frequency_matches_arccos_law():
    # rho = 0 -> disagreement probability 1/2; rho = -0.5 -> 2/3
    orth = np.array([[1.0, 0.0], [0.0, 1.0]])
    rounds = reference_hyperplane_rounds(orth, 40000, np.random.default_rng(42))
    f = np.mean(rounds[:, 0] != rounds[:, 1])
    assert abs(f - 0.5) < 3 * 0.5 / np.sqrt(40000)
    ang = 2.0 * np.pi / 3.0
    k3_rows = np.array([[1.0, 0.0], [np.cos(ang), np.sin(ang)], [np.cos(ang), -np.sin(ang)]])
    rounds = reference_hyperplane_rounds(k3_rows, 60000, np.random.default_rng(7))
    f = np.mean(rounds[:, 0] != rounds[:, 1])
    se = np.sqrt((2.0 / 3.0) * (1.0 / 3.0) / 60000)
    assert abs(f - 2.0 / 3.0) < 3 * se


@pytest.mark.parametrize("count", [1, _ROUND_ROWS - 1, _ROUND_ROWS, _ROUND_ROWS + 1])
def test_sliced_rounds_equal_the_whole_batch_formula(count):
    vecs = np.random.default_rng(5).standard_normal((30, 4))
    got = reference_hyperplane_rounds(vecs, count, np.random.default_rng(6))
    gauss = np.random.default_rng(6).standard_normal((count, 4))
    assert got.dtype == np.int8
    assert np.array_equal(got, np.where(gauss @ vecs.T > 0, 1, -1))


def test_rounds_rejects_non_matrix():
    with pytest.raises(ValueError):
        reference_hyperplane_rounds(np.ones(3), 5, np.random.default_rng(0))


@pytest.mark.parametrize("kind", NOT_REAL)
def test_rounds_reject_vectors_that_are_not_real_numbers(kind):
    vecs = NOT_REAL[kind](np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match=f"^vectors has dtype {vecs.dtype}, expected real numbers"):
        reference_hyperplane_rounds(vecs, 5, np.random.default_rng(0))


@pytest.mark.parametrize("count, problem", [(2.5, "count = 2.5 must be an integer"),
                                            (-1, "count = -1 must be >= 0"),
                                            (True, "count = True must be an integer")])
def test_rounds_reject_a_count_that_is_not_a_non_negative_integer(count, problem):
    # numpy raised TypeError for 2.5 and "negative dimensions" for -1
    with pytest.raises(ValueError, match=re.escape(problem)):
        reference_hyperplane_rounds(np.ones((3, 2)), count, np.random.default_rng(0))


def test_rounds_of_count_zero_are_an_empty_batch():
    rounds = reference_hyperplane_rounds(np.ones((3, 2)), 0, np.random.default_rng(0))
    assert rounds.dtype == np.int8 and rounds.shape == (0, 3)


def test_rounds_build_int8_labels_without_a_wide_copy():
    # Traced memory is sampled at every call the oracle makes or returns from.
    # An int64 (count, n) label array cast down to int8 is alive at the cast
    # and holds 8 * count * n bytes by itself.
    count, n = 4096, 100
    vecs = np.random.default_rng(3).standard_normal((n, 4))
    reference_hyperplane_rounds(vecs, count, np.random.default_rng(4))
    live = []

    def probe(frame, event, arg):
        if frame.f_code is reference_hyperplane_rounds.__code__:
            live.append(tracemalloc.get_traced_memory()[0])

    previous = sys.getprofile()
    tracemalloc.start()
    sys.setprofile(probe)
    try:
        rounds = reference_hyperplane_rounds(vecs, count, np.random.default_rng(4))
    finally:
        sys.setprofile(previous)
        tracemalloc.stop()
    assert rounds.dtype == np.int8 and rounds.shape == (count, n)
    assert live and max(live) < 8 * count * n
