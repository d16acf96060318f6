import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import (
    Graph,
    SdpSolution,
    SolverConfig,
    brute_force_maxcut,
    generate_erdos_renyi,
    sdp_objective,
    solve_gw_sdp,
)
from neurocut.sdp import _colour_classes, effective_rank, format_solution, normalize_rows


def test_effective_rank_clamps_tiny_graphs():
    assert effective_rank(4, 2) == 2
    assert effective_rank(4, 3) == 3
    assert effective_rank(4, 4) == 4
    assert effective_rank(4, 100) == 4
    assert effective_rank(7, 3) == 3
    with pytest.raises(ValueError):
        effective_rank(1, 10)


def test_non_integer_rank_rejected(petersen):
    # 2.5 reached numpy's standard_normal and raised TypeError
    with pytest.raises(ValueError, match="^rank = 2.5 must be an integer"):
        solve_gw_sdp(petersen, 2.5)


def test_normalize_rows():
    w = np.array([[3.0, 4.0], [0.0, 2.0]])
    out = normalize_rows(w)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)
    # idempotent and scale invariant
    assert np.allclose(normalize_rows(out), out)
    assert np.allclose(normalize_rows(5.0 * w), out)
    with pytest.raises(ValueError):
        normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_k2_solution_antipodal(k2):
    sol = solve_gw_sdp(k2, config=SolverConfig())
    assert sol.converged
    assert sol.rank == 2  # clamped
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    assert float(sol.vectors[0] @ sol.vectors[1]) == pytest.approx(-1.0, abs=1e-5)


def test_k3_solution_120_degrees(k3):
    sol = solve_gw_sdp(k3)
    assert sol.converged
    assert sol.objective == pytest.approx(9.0 / 4.0, abs=1e-6)
    dots = [float(sol.vectors[i] @ sol.vectors[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert np.allclose(dots, -0.5, atol=1e-3)


def test_c4_objective_reaches_edge_count(c4):
    # bipartite: relaxation optimum equals m with antipodal sides
    sol = solve_gw_sdp(c4, config=SolverConfig())
    assert sol.converged
    assert sol.objective == pytest.approx(4.0, abs=1e-6)


def test_unit_rows_and_shapes(petersen):
    sol = solve_gw_sdp(petersen, rank=4)
    assert sol.vectors.shape == (10, 4)
    assert np.allclose(np.linalg.norm(sol.vectors, axis=1), 1.0, atol=1e-12)
    assert sol.n == 10
    assert sdp_objective(petersen, sol) == pytest.approx(sol.objective, abs=1e-9)


def test_objective_upper_bounds_exact_optimum():
    for seed in range(6):
        g = generate_erdos_renyi(10, 0.5, seed)
        if g.m == 0:
            continue
        sol = solve_gw_sdp(g, config=SolverConfig(seed=seed, max_iter=100000))
        opt = brute_force_maxcut(g).value
        assert sol.objective >= opt - 1e-6


def test_determinism_and_seed_sensitivity(petersen):
    a = solve_gw_sdp(petersen, config=SolverConfig(seed=3))
    b = solve_gw_sdp(petersen, config=SolverConfig(seed=3))
    assert np.array_equal(a.vectors, b.vectors)
    assert a.objective == b.objective
    c = solve_gw_sdp(petersen, config=SolverConfig(seed=4))
    # same optimum value, generally different vector realization
    assert c.objective == pytest.approx(a.objective, abs=1e-4)


def test_objective_monotone_in_sweeps(petersen):
    # the same start and class order, cut off after 0, 1, ..., 11 sweeps
    objectives = [solve_gw_sdp(petersen, config=SolverConfig(max_iter=k)).objective
                  for k in range(12)]
    assert np.all(np.diff(objectives) >= -1e-12)
    assert objectives[-1] > objectives[0]


def test_dense_baseline_graph_converges():
    # the ROADMAP baseline graph: n=200 p=0.5, ER seed 1, solver seed 0
    sol = solve_gw_sdp(generate_erdos_renyi(200, 0.5, 1), config=SolverConfig())
    assert sol.converged


@pytest.mark.parametrize("p, sweeps, objective", [
    (0.1, 252, 1393.229698347613), (0.5, 621, 5643.386309385709),
], ids=["p0.1", "p0.5"])
def test_sparse_baseline_graph_converges_in_few_sweeps(p, sweeps, objective):
    # the ROADMAP baseline graphs that the sdp benchmark solves: n=200, ER seed 1,
    # solver seed 0. Row by row in vertex order p=0.1 needed 2,495 sweeps; by colour
    # class, 252. Pinned sweeps keep a faster solve from coming from fewer sweeps.
    sol = solve_gw_sdp(generate_erdos_renyi(200, p, 1), config=SolverConfig())
    assert sol.converged
    assert sol.iterations == sweeps
    assert sol.objective == pytest.approx(objective, abs=1e-9)


@given(st.integers(1, 40), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_colour_classes_partition_into_independent_sets(n, p, seed):
    g = generate_erdos_renyi(n, p, seed)
    order, bounds = _colour_classes(g.adjacency)
    assert sorted(order.tolist()) == list(range(n))
    # the classes partition the vertices of positive degree; isolated ones follow them
    positive = np.flatnonzero(g.degrees > 0)
    assert bounds[0] == 0 and bounds[-1] == len(positive)
    assert sorted(order[:bounds[-1]].tolist()) == positive.tolist()
    assert np.all(np.diff(bounds) > 0)
    colour = np.empty(n, dtype=int)
    for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        colour[order[lo:hi]] = c
    # no edge inside a class
    for u, v in g.edges:
        assert colour[u] != colour[v]
    assert len(bounds) - 1 <= g.degrees.max() + 1
    if p == 0.0:
        assert len(bounds) == 1
    if p == 1.0:
        assert len(bounds) - 1 == (n if n > 1 else 0)


def _smallest_last_colouring(g):
    """_colour_classes written out on neighbour sets: the same order and bounds.

    Remove a vertex of least degree among those left, the lowest-numbered on a
    tie, until none is left; then colour in reverse removal order, each vertex
    with the least colour none of its neighbours has. Classes list their
    vertices in increasing order, and the isolated vertices follow the last.
    """
    neighbours = [set() for _ in range(g.n)]
    for u, v in g.edges.tolist():
        neighbours[u].add(v)
        neighbours[v].add(u)
    degree = [len(nb) for nb in neighbours]
    left = set(range(g.n))
    removal = []
    while left:
        v = min(left, key=lambda u: (degree[u], u))
        left.remove(v)
        removal.append(v)
        for u in neighbours[v]:
            degree[u] -= 1
    colour = {}
    for v in reversed(removal):
        taken = {colour[u] for u in neighbours[v] if u in colour}
        colour[v] = min(set(range(len(taken) + 1)) - taken)
    coloured = [v for v in range(g.n) if neighbours[v]]
    count = max((colour[v] for v in coloured), default=-1) + 1
    classes = [[v for v in coloured if colour[v] == c] for c in range(count)]
    order = [v for cls in classes for v in cls] + [v for v in range(g.n) if not neighbours[v]]
    bounds = [0]
    for cls in classes:
        bounds.append(bounds[-1] + len(cls))
    return order, bounds


@given(st.integers(1, 60), st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.integers(0, 2 ** 31),
       st.integers(0, 3), st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_colour_classes_match_smallest_last_written_out(n, p, seed, isolated, perm_seed):
    # the sweep counts depend on the order, so a faster colouring must keep it;
    # extra isolated vertices, shuffled in among the others, and the equal degrees
    # of sparse, complete and edgeless graphs exercise the tie rule
    er = generate_erdos_renyi(n, p, seed)
    perm = np.random.default_rng(perm_seed).permutation(n + isolated)
    g = Graph(n + isolated, perm[er.edges])
    order, bounds = _colour_classes(g.adjacency)
    want_order, want_bounds = _smallest_last_colouring(g)
    assert order.tolist() == want_order
    assert bounds.tolist() == want_bounds


def _row_sweep(g, w, order):
    """One mixing sweep row by row: w_i = -z / |z| with z = sum_j A_ij w_j."""
    w = w.copy()
    neighbours = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    for i in order:
        z = np.zeros(w.shape[1])
        for j in neighbours[i]:
            z += w[j]
        norm = np.sqrt(z @ z)
        if norm > 0.0:
            w[i] = -z / norm
    return w


@given(st.integers(2, 30), st.sampled_from([0.2, 0.5, 0.9]), st.integers(0, 2 ** 31),
       st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_class_sweep_equals_row_updates_in_class_order(n, p, graph_seed, solver_seed):
    g = generate_erdos_renyi(n, p, graph_seed)
    rng = np.random.default_rng(solver_seed)
    start = normalize_rows(rng.standard_normal((n, effective_rank(4, n))))
    cfg = SolverConfig(tol=0.0, max_iter=0, seed=solver_seed)
    assert np.array_equal(solve_gw_sdp(g, config=cfg).vectors, start)
    order, _ = _colour_classes(g.adjacency)
    expected = start
    for sweeps in (1, 2, 3):
        expected = _row_sweep(g, expected, order)
        got = solve_gw_sdp(g, config=SolverConfig(tol=0.0, max_iter=sweeps, seed=solver_seed))
        assert np.max(np.abs(got.vectors - expected)) <= 1e-12


def test_isolated_vertices_keep_their_start_rows():
    # a triangle and an edge, with isolated vertices 3, 6 and 7 between them
    g = Graph(8, [(0, 1), (1, 2), (0, 2), (4, 5)])
    start = normalize_rows(np.random.default_rng(0).standard_normal((8, 4)))
    sol = solve_gw_sdp(g, config=SolverConfig(seed=0))
    assert sol.converged and sol.iterations > 0
    isolated = [3, 6, 7]
    assert np.array_equal(sol.vectors[isolated], start[isolated])
    assert np.allclose(np.linalg.norm(sol.vectors, axis=1), 1.0, atol=1e-12)
    assert sol.objective == pytest.approx(9.0 / 4.0 + 1.0, abs=1e-6)


def test_exact_cancellation_keeps_the_row(monkeypatch):
    # rows 1 and 3 sit between row 0 = e1 and row 2 = -e1, so their z is exactly 0:
    # the sweep that meets them is replayed, and they keep their start rows
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    order, bounds = _colour_classes(c4.adjacency)
    assert order.tolist() == [1, 3, 0, 2] and bounds.tolist() == [0, 2, 4]
    e = np.eye(4)
    start = np.array([e[1], e[0], -e[1], e[0]])
    monkeypatch.setattr("neurocut.sdp.normalize_rows", lambda _: start.copy())
    sol = solve_gw_sdp(c4)
    assert sol.converged and sol.iterations == 1
    assert np.array_equal(sol.vectors, np.array([-e[0], e[0], -e[0], e[0]]))
    assert sol.objective == 4.0


def _solve_testing_before_every_sweep(g, config):
    """The mixing method with the full stop test before every sweep.

    The same colouring, start, products and divides as solve_gw_sdp, so the
    two agree bit for bit while no skipped test would have stopped the run. A
    sweep whose unmasked divide meets z_i = 0 is replayed masked, and a masked
    sweep equals the unmasked one on every other row, so this one divides
    masked throughout.
    """
    r = effective_rank(4, g.n)
    start = normalize_rows(np.random.default_rng(config.seed).standard_normal((g.n, r)))
    order, bounds = _colour_classes(g.adjacency)
    neg = -g.adjacency[np.ix_(order, order)]
    w = start[order]
    cap = config.max_iter if config.max_iter is not None else 50 * g.n
    sweeps = 0
    while True:
        grad = 0.5 * (neg @ w)
        grad -= np.vecdot(grad, w)[:, None] * w
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= config.tol or sweeps >= cap:
            break
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            z = neg[lo:hi] @ w
            norm = np.sqrt(np.vecdot(z, z))[:, None]
            np.divide(z, norm, out=w[lo:hi], where=norm > 0.0)
        sweeps += 1
    vectors = np.empty_like(w)
    vectors[order] = w
    return vectors, grad_norm, sweeps, grad_norm <= config.tol


@pytest.mark.parametrize("make, config", [
    (lambda: generate_erdos_renyi(200, 0.1, 1), SolverConfig()),
    (lambda: generate_erdos_renyi(200, 0.5, 1), SolverConfig()),
    (lambda: Graph(6, []), SolverConfig()),
    (lambda: Graph(8, [(0, 1), (1, 2), (0, 2), (4, 5)]), SolverConfig()),
    (lambda: generate_erdos_renyi(40, 0.3, 2), SolverConfig(max_iter=0)),
    (lambda: generate_erdos_renyi(40, 0.3, 2), SolverConfig(tol=0.0, max_iter=25, seed=4)),
], ids=["sdp-p0.1", "sdp-p0.5", "edgeless", "isolated", "no-sweep", "tol0-capped"])
def test_stop_test_skipped_only_where_it_cannot_stop_the_run(make, config):
    # class 0's share of the gradient norm bounds the whole, so solve_gw_sdp skips
    # the full test only while that share is above 2 tol, and below the cap
    g = make()
    vectors, grad_norm, sweeps, converged = _solve_testing_before_every_sweep(g, config)
    sol = solve_gw_sdp(g, config=config)
    assert sol.vectors.tobytes() == vectors.tobytes()
    assert (sol.grad_norm, sol.iterations, sol.converged) == (grad_norm, sweeps, converged)


def test_stop_test_at_exact_cancellation_matches_testing_every_sweep(monkeypatch):
    # the start of test_exact_cancellation_keeps_the_row: its one sweep is replayed masked
    e = np.eye(4)
    start = np.array([e[1], e[0], -e[1], e[0]])
    monkeypatch.setattr("neurocut.sdp.normalize_rows", lambda _: start.copy())
    monkeypatch.setattr(f"{__name__}.normalize_rows", lambda _: start.copy())
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    vectors, grad_norm, sweeps, converged = _solve_testing_before_every_sweep(c4, SolverConfig())
    sol = solve_gw_sdp(c4)
    assert sol.vectors.tobytes() == vectors.tobytes()
    assert (sol.grad_norm, sol.iterations, sol.converged) == (grad_norm, sweeps, converged) == (0.0, 1, True)


def test_iteration_cap_flags_not_converged(petersen):
    sol = solve_gw_sdp(petersen, config=SolverConfig(max_iter=2))
    assert not sol.converged
    assert sol.iterations == 2
    assert sol.grad_norm > 1e-6


@pytest.mark.parametrize("limits, problem", [
    (dict(tol=-1.0), "tol = -1.0 must be >= 0"), (dict(tol=float("nan")), "tol = nan must be >= 0"),
    (dict(tol="0.1"), "tol = '0.1' must be a real number"), (dict(max_iter=-5), "max_iter = -5 must be >= 0"),
], ids=["tol", "tol-nan", "tol-text", "max_iter"])
def test_negative_limits_rejected(limits, problem):
    # checked when the config is built, not when a solve first reads it
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}"):
        SolverConfig(**limits)


@pytest.mark.parametrize("max_iter", [2.5, 2.0, "3"])
def test_fractional_max_iter_rejected(max_iter):
    with pytest.raises(ValueError, match=r"max_iter = .* must be an integer"):
        SolverConfig(max_iter=max_iter)


@pytest.mark.parametrize("field", ["tol", "max_iter", "seed"])
def test_bool_solver_settings_rejected(field):
    # True is an int, but a flag, not a tolerance, a cap or a seed
    with pytest.raises(ValueError, match=f"^{field} = True must be"):
        SolverConfig(**{field: True})


@pytest.mark.parametrize("seed", [2.5, 2.0, "3", None])
def test_non_integer_solver_seed_rejected(seed):
    # 2.5 and "3" raised numpy's TypeError from the solve; None drew an unseeded start
    with pytest.raises(ValueError, match=r"seed = .* must be an integer"):
        SolverConfig(seed=seed)


def test_numpy_integer_solver_settings_solve_as_their_ints(petersen):
    a = solve_gw_sdp(petersen, config=SolverConfig(max_iter=5, seed=3))
    b = solve_gw_sdp(petersen, config=SolverConfig(max_iter=np.int64(5), seed=np.int64(3)))
    assert a.vectors.tobytes() == b.vectors.tobytes() and a.iterations == b.iterations == 5


@pytest.mark.parametrize("max_iter", [None, np.int64(2), np.int32(2), 2])
def test_integer_and_none_max_iter_accepted(petersen, max_iter):
    sol = solve_gw_sdp(petersen, config=SolverConfig(max_iter=max_iter))
    if max_iter is None:
        assert sol.converged
    else:
        assert sol.iterations == 2 and not sol.converged


def test_edgeless_graph_trivial_relaxation():
    sol = solve_gw_sdp(Graph(4, []))
    assert sol.objective == 0.0
    assert sol.converged and sol.iterations == 0 and sol.grad_norm == 0.0
    assert np.allclose(np.linalg.norm(sol.vectors, axis=1), 1.0, atol=1e-12)


def test_sdp_objective_checks_size(k3, c4):
    sol = solve_gw_sdp(k3)
    with pytest.raises(ValueError):
        sdp_objective(c4, sol)


@given(st.integers(2, 12), st.integers(0, 2 ** 31))
@settings(max_examples=15, deadline=None)
def test_objective_bounded_by_edge_count(n, seed):
    g = generate_erdos_renyi(n, 0.5, seed)
    if g.m == 0:
        return
    sol = solve_gw_sdp(g, config=SolverConfig(seed=0))
    assert -1e-9 <= sol.objective <= g.m + 1e-9


def test_save_load_round_trip(petersen):
    sol = solve_gw_sdp(petersen)
    head, *rows = format_solution(sol).splitlines()
    n, rank, objective = head.split()
    assert (int(n), int(rank)) == (petersen.n, sol.rank)
    assert float(objective) == sol.objective  # 17 digits: exact float64
    back = np.array([[float(tok) for tok in row.split()] for row in rows])
    assert np.array_equal(back, sol.vectors)


def test_solution_dataclass_n_property():
    # both sizes are read off the vectors, so they cannot disagree with them
    sol = SdpSolution(np.eye(5)[:, :3], 0.0, None, None, True)
    assert (sol.n, sol.rank) == (5, 3)
