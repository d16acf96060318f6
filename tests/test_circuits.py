import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import (
    CircuitConfig,
    DevicePool,
    GwCircuit,
    LifPopulation,
    NumericalDivergenceError,
    SolverConfig,
    TrevisanCircuit,
    checkpoint_schedule,
    cut_value,
    cut_values,
    generate_erdos_renyi,
    run_trajectory,
    solve_gw_sdp,
    spectral_cut,
    symmetric_eigen,
    trajectory_from_sampler,
    trevisan_matrix,
)
from neurocut.circuits import CutTrajectory


# --- GW circuit -------------------------------------------------------------

def test_gw_k2_always_cuts(k2):
    # force the relaxation all the way to antipodal vectors so the two
    # membranes are exact mirrors and every sample cuts the edge
    sol = solve_gw_sdp(k2, config=SolverConfig(max_iter=5000))
    circ = GwCircuit(k2, sol, seed=0)
    cuts = cut_values(k2, circ.sample_cuts(10000))
    assert (cuts == 1).mean() >= 0.999


def test_gw_c4_best_of_100_is_optimal(c4):
    sol = solve_gw_sdp(c4)
    circ = GwCircuit(c4, sol, seed=1)
    assert int(cut_values(c4, circ.sample_cuts(100)).max()) == 4


def test_gw_k3_edge_frequency_near_two_thirds(k3):
    sol = solve_gw_sdp(k3)
    circ = GwCircuit(k3, sol, seed=2)
    cuts = circ.sample_cuts(20000)
    se = np.sqrt((2.0 / 3.0) * (1.0 / 3.0) / 20000)
    for i, j in k3.edges:
        freq = (cuts[:, i] != cuts[:, j]).mean()
        assert abs(freq - 2.0 / 3.0) < 4 * se


def test_gw_epoch_matches_explicit_step_loop(c4):
    sol = solve_gw_sdp(c4)
    cfg = CircuitConfig()
    circ = GwCircuit(c4, sol, seed=7, config=cfg)
    membranes = circ.epoch_membranes(3)
    # replay: same device stream through the step recurrence, reset per epoch
    pool = DevicePool(sol.rank, seed=7)
    pop = LifPopulation(sol.vectors, alpha=cfg.alpha, C=cfg.capacitance, dt=cfg.dt)
    for epoch in range(3):
        pop.reset()
        for s in pool.sample_steps(cfg.epoch_steps):
            v = pop.step(s)
        assert np.allclose(membranes[epoch], v, atol=1e-10)


def test_gw_samples_are_stream_split_invariant(c4):
    sol = solve_gw_sdp(c4)
    a = GwCircuit(c4, sol, seed=5)
    b = GwCircuit(c4, sol, seed=5)
    batch = a.sample_cuts(8)
    singles = np.array([b.sample_cuts(1)[0] for _ in range(8)])
    assert np.array_equal(batch, singles)


def test_gw_sign_stats_invariant_to_weight_scale(k3):
    # positive rescaling of the weights cannot change any membrane sign
    sol = solve_gw_sdp(k3)
    a = GwCircuit(k3, sol, seed=3, config=CircuitConfig(gw_weight_scale=0.5))
    b = GwCircuit(k3, sol, seed=3, config=CircuitConfig(gw_weight_scale=2.0))
    assert np.array_equal(a.sample_cuts(2000), b.sample_cuts(2000))


def test_gw_reads_threshold_from_config(c4):
    # no membrane clears a huge threshold, so every vertex reads -1
    sol = solve_gw_sdp(c4)
    circ = GwCircuit(c4, sol, seed=1, config=CircuitConfig(threshold=1e9))
    assert np.all(circ.sample_cuts(16) == -1)


def test_gw_validates_solution_size(k3, c4):
    sol = solve_gw_sdp(k3)
    with pytest.raises(ValueError):
        GwCircuit(c4, sol, seed=0)
    with pytest.raises(ValueError):
        GwCircuit(k3, sol, seed=0, config=CircuitConfig(epoch_steps=0))


# --- Trevisan circuit -------------------------------------------------------

def test_trevisan_k2_converges_to_cut(k2):
    circ = TrevisanCircuit(k2, seed=11)
    circ.run_steps(100000)
    assert cut_value(k2, circ.read_cut()) == 1


def test_trevisan_c4_sign_pattern(c4):
    circ = TrevisanCircuit(c4, seed=11)
    circ.run_steps(100000)
    labels = tuple(circ.read_cut())
    assert labels in {(1, -1, 1, -1), (-1, 1, -1, 1)}


def test_trevisan_step_equals_run_steps(k3):
    a = TrevisanCircuit(k3, seed=4)
    b = TrevisanCircuit(k3, seed=4)
    for _ in range(50):
        a.step()
    b.run_steps(50)
    assert a.steps_taken == b.steps_taken == 50
    assert np.array_equal(a.oja.w, b.oja.w)
    assert np.array_equal(a.pop.V, b.pop.V)


def test_trevisan_run_steps_chunking_invariant(k3):
    a = TrevisanCircuit(k3, seed=9)
    b = TrevisanCircuit(k3, seed=9)
    a.run_steps(5000)
    b.run_steps(1)
    b.run_steps(4095)
    b.run_steps(904)
    assert np.array_equal(a.oja.w, b.oja.w)
    with pytest.raises(ValueError):
        a.run_steps(0)


def test_trevisan_read_cut_tie_convention(k3):
    circ = TrevisanCircuit(k3, seed=0)
    circ.oja.w = np.array([0.2, -0.1, 0.0])
    assert circ.read_cut().tolist() == [1, -1, -1]
    circ.oja.w = np.zeros(3)
    assert circ.read_cut().tolist() == [-1, -1, -1]
    assert cut_value(k3, circ.read_cut()) == 0


def test_trevisan_divergence_propagates(k3):
    circ = TrevisanCircuit(k3, seed=2, config=CircuitConfig(eta0=1e6))
    with pytest.raises(NumericalDivergenceError):
        circ.run_steps(5000)


def test_trevisan_divergence_raises_no_ieee_warning(k3):
    # overflow on the way to a divergence is reported by the exception alone
    for advance in (lambda c: c.run_steps(5000), lambda c: [c.step() for _ in range(5000)]):
        circ = TrevisanCircuit(k3, seed=2, config=CircuitConfig(eta0=1e6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDivergenceError):
                advance(circ)


def test_trevisan_input_scale_undoes_stationary_variance(petersen):
    circ = TrevisanCircuit(petersen, seed=0)
    kappa = circ.pop.kappa
    assert circ.oja.input_scale == pytest.approx(1.0 / np.sqrt(kappa))
    scaled = TrevisanCircuit(petersen, seed=0,
                             config=CircuitConfig(trevisan_weight_scale=3.0))
    assert scaled.oja.input_scale == pytest.approx(1.0 / (3.0 * np.sqrt(kappa)))


def test_trevisan_weight_scale_does_not_change_learning(petersen):
    a = TrevisanCircuit(petersen, seed=6)
    b = TrevisanCircuit(petersen, seed=6, config=CircuitConfig(trevisan_weight_scale=2.0))
    a.run_steps(500)
    b.run_steps(500)
    assert np.allclose(a.oja.w, b.oja.w, atol=1e-10)


@given(st.integers(2, 24), st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_squared_matrix_shares_minimum_eigenvector(n, seed):
    # the stationary covariance is proportional to the squared Trevisan
    # matrix; squaring keeps eigenvectors and, on a [0, 2] spectrum, the
    # position of the minimum eigenvalue
    g = generate_erdos_renyi(n, 0.4, seed)
    m = trevisan_matrix(g).matrix
    em = symmetric_eigen(m)
    e2 = symmetric_eigen(m @ m)
    if em.eigenvalues[1] - em.eigenvalues[0] <= 1e-8:
        return  # degenerate bottom space: individual vectors not comparable
    u, v = em.eigenvectors[:, 0], e2.eigenvectors[:, 0]
    assert abs(float(u @ v)) == pytest.approx(1.0, abs=1e-7)


# --- trajectories -----------------------------------------------------------

def test_checkpoint_schedule():
    assert checkpoint_schedule(1) == [1]
    assert checkpoint_schedule(2) == [1, 2]
    assert checkpoint_schedule(100) == [1, 2, 4, 8, 16, 32, 64]
    assert checkpoint_schedule(1024) == [2 ** k for k in range(11)]
    with pytest.raises(ValueError):
        checkpoint_schedule(0)


def test_trajectory_from_sampler_draw_budget(k3):
    drawn = []

    def sampler(b):
        drawn.append(b)
        return np.ones((b, 3), dtype=np.int8)

    traj = trajectory_from_sampler(k3, sampler, 100, "random", 0)
    assert sum(drawn) == 64  # nothing beyond the last power of two
    assert [s for s, _ in traj.checkpoints] == [1, 2, 4, 8, 16, 32, 64]
    assert len(traj.wall_times) == 7


def test_trajectory_final_best_property():
    traj = CutTrajectory("g", "random", 0, checkpoints=[(1, 3), (2, 5)])
    assert traj.final_best == 5


def test_run_trajectory_random_k3(k3):
    traj = run_trajectory("random", k3, 2 ** 10, seed=123)
    assert traj.final_best == 2
    assert traj.method == "random"
    bests = [b for _, b in traj.checkpoints]
    assert bests == sorted(bests)


def test_run_trajectory_gw_c4(c4):
    traj = run_trajectory("gw", c4, 256, seed=5)
    assert traj.final_best == 4


def test_run_trajectory_gw_accepts_presolved(c4):
    sol = solve_gw_sdp(c4)
    a = run_trajectory("gw", c4, 64, seed=5, solution=sol)
    b = run_trajectory("gw", c4, 64, seed=5, solution=sol)
    assert a.checkpoints == b.checkpoints


def test_run_trajectory_trevisan_reads_at_checkpoints(c4):
    traj = run_trajectory("trevisan", c4, 2 ** 12, seed=11)
    assert [s for s, _ in traj.checkpoints] == [2 ** k for k in range(13)]
    assert traj.final_best == 4
    bests = [b for _, b in traj.checkpoints]
    assert bests == sorted(bests)


def test_run_trajectory_unknown_method(k3):
    with pytest.raises(ValueError):
        run_trajectory("annealing", k3, 4, seed=0)


@pytest.mark.parametrize("method", ["random", "gw", "trevisan"])
def test_run_trajectory_bit_deterministic(method, petersen):
    a = run_trajectory(method, petersen, 128, seed=77)
    b = run_trajectory(method, petersen, 128, seed=77)
    assert a.checkpoints == b.checkpoints
    assert a.seed == b.seed == 77


def test_gw_median_best_dominates_random():
    # over 2^14 samples the rounded circuit should not lose to blind sampling
    gw_b, rd_b = [], []
    for k in range(10):
        g = generate_erdos_renyi(30, 0.25, 1000 + k)
        gw_b.append(run_trajectory("gw", g, 2 ** 14, seed=k).final_best)
        rd_b.append(run_trajectory("random", g, 2 ** 14, seed=k).final_best)
    assert np.median(gw_b) >= np.median(rd_b)
