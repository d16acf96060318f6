import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurocut import (
    CircuitConfig,
    DevicePool,
    ExperimentConfig,
    Graph,
    GwCircuit,
    NumericalDivergenceError,
    SdpSolution,
    SolverConfig,
    TrevisanCircuit,
    checkpoint_schedule,
    cut_value,
    cut_values,
    generate_erdos_renyi,
    reference_hyperplane_rounds,
    run_trajectory,
    solve_gw_sdp,
    spectral_cut,
    trajectory_from_sampler,
    trevisan_matrix,
)
from neurocut.circuits import _BATCH, _SLICE, _random_labels
from neurocut.seeding import derive_seed

from conftest import warm_peak_bytes


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
    # replay: the same bit-packed epochs, unpacked to ±1 and fed through the
    # recurrence v = (1 - alpha) v + W s one state at a time, from rest per epoch
    bits = np.unpackbits(DevicePool(sol.rank, seed=7).sample_epochs(3, cfg.epoch_steps),
                         axis=2, count=cfg.epoch_steps, bitorder="little")
    for epoch in range(3):
        v = np.zeros(c4.n)
        for s in 2.0 * bits[epoch].T - 1.0:
            v = (1 - cfg.alpha) * v + sol.vectors @ s
        assert np.allclose(membranes[epoch], v, atol=1e-10)


@given(st.integers(1, 130), st.integers(2, 6), st.floats(0.01, 0.9), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_gw_epoch_equals_decay_weighted_unpacked_bits(k, r, alpha, seed):
    n = 5
    vectors = np.random.default_rng(seed).standard_normal((n, r))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    sol = SdpSolution(vectors, rank=r, objective=0.0, grad_norm=None, iterations=None,
                      converged=True)
    circ = GwCircuit(Graph(n, []), sol, seed, CircuitConfig(alpha=alpha, epoch_steps=k))
    membranes = circ.epoch_membranes(9)
    bits = np.unpackbits(DevicePool(r, seed=seed).sample_epochs(9, k), axis=2, count=k,
                         bitorder="little")
    decay = (1.0 - alpha) ** np.arange(k - 1, -1, -1)
    expected = (2.0 * bits - 1.0) @ decay @ vectors.T
    assert np.max(np.abs(membranes - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


@given(st.integers(1, 130), st.integers(2, 7), st.integers(1, 300), st.integers(0, 2 ** 31))
@example(100, 4, 256, 0)
@settings(max_examples=60, deadline=None)
def test_gw_epoch_drive_adds_the_byte_lookups_in_byte_order(k, r, count, seed):
    # the drive is the sum, left to right from zero, of one table lookup per
    # byte of 8 steps; a pairwise or reordered sum moves its last bits
    n = 6
    vectors = np.random.default_rng(seed).standard_normal((n, r))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    sol = SdpSolution(vectors, rank=r, objective=0.0, grad_norm=None, iterations=None,
                      converged=True)
    circ = GwCircuit(Graph(n, []), sol, seed, CircuitConfig(epoch_steps=k))
    codes = DevicePool(r, seed=seed).sample_epochs(count, k)
    drive = sum(row.take(codes[..., j]) for j, row in enumerate(circ._table))
    expected = np.matmul(drive, circ._weights.T)
    assert circ.epoch_membranes(count).tobytes() == expected.tobytes()


def test_gw_samples_are_stream_split_invariant(c4):
    sol = solve_gw_sdp(c4)
    a = GwCircuit(c4, sol, seed=5)
    b = GwCircuit(c4, sol, seed=5)
    batch = a.sample_cuts(8)
    singles = np.array([b.sample_cuts(1)[0] for _ in range(8)])
    assert np.array_equal(batch, singles)


def test_gw_samples_ignore_later_edits_to_the_solution(c4):
    sol = solve_gw_sdp(c4)
    want = GwCircuit(c4, sol, seed=5).sample_cuts(64)
    circ = GwCircuit(c4, sol, seed=5)
    sol.vectors *= -1.0  # would flip every label of a circuit that shared the array
    assert np.array_equal(circ.sample_cuts(64), want)


@pytest.fixture(scope="module")
def gw_n100():
    g = generate_erdos_renyi(100, 0.5, 1)
    return g, solve_gw_sdp(g, config=SolverConfig(seed=3))


@pytest.mark.parametrize("count", [1, _SLICE - 1, _SLICE, _SLICE + 1, _BATCH, _BATCH + 1])
def test_gw_sample_cuts_are_the_membrane_signs(gw_n100, count):
    g, sol = gw_n100
    cuts = GwCircuit(g, sol, seed=4).sample_cuts(count)
    membranes = GwCircuit(g, sol, seed=4).epoch_membranes(count)
    assert cuts.dtype == np.int8 and cuts.shape == (count, g.n)
    assert np.array_equal(cuts, np.where(membranes > 0, 1, -1))


def test_gw_epoch_membranes_into_a_buffer_equals_a_fresh_block(c4):
    sol = solve_gw_sdp(c4)
    buffer = np.full((5, c4.n), np.nan)
    got = GwCircuit(c4, sol, seed=6).epoch_membranes(5, out=buffer)
    assert got is buffer
    assert np.array_equal(got, GwCircuit(c4, sol, seed=6).epoch_membranes(5))


@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (5,), (1, 5, 4)])
def test_gw_epoch_membranes_rejects_wrong_shaped_out(c4, shape):
    circ = GwCircuit(c4, solve_gw_sdp(c4), seed=6)
    with pytest.raises(ValueError, match="out has shape"):
        circ.epoch_membranes(5, out=np.empty(shape))


@pytest.mark.parametrize("value", [2.5, 2.0, "3", None, 0, -2])
def test_gw_counts_must_be_integers(c4, value):
    # below 1, epoch_membranes(0) named epochs, sample_cuts(0) returned no
    # rows and a negative count raised numpy's "negative dimensions" error
    problem = (f"count = {value} must be >= 1" if value in (0, -2)
               else "count = .* must be an integer")
    circ = GwCircuit(c4, solve_gw_sdp(c4), seed=6)
    with pytest.raises(ValueError, match=problem):
        circ.sample_cuts(value)
    with pytest.raises(ValueError, match=problem):
        circ.epoch_membranes(value)
    assert circ.sample_cuts(np.int64(3)).shape == (3, 4)
    assert circ.epoch_membranes(np.int64(3)).shape == (3, 4)


def test_gw_sample_cuts_allocates_no_float_block(gw_n100):
    # the (4096, 100) float64 membrane block alone would take 3.3 MB
    circ = GwCircuit(*gw_n100, seed=5)
    assert warm_peak_bytes(lambda: circ.sample_cuts(_BATCH)) < 1_000_000


def test_gw_validates_solution_size(k3, c4):
    sol = solve_gw_sdp(k3)
    with pytest.raises(ValueError):
        GwCircuit(c4, sol, seed=0)


@pytest.mark.parametrize("field, value", [
    ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5), ("alpha", float("nan")),
    ("epoch_steps", 0), ("eta0", 0.0), ("eta0", float("nan")), ("tau", -1.0),
    ("rank", 1), ("sdp_tol", -1e-9), ("sdp_tol", float("nan")), ("sdp_max_iter", -1),
    *[(f, v) for f in ("epoch_steps", "rank", "sdp_max_iter") for v in (2.5, 2.0, "3", None, True)
      if (f, v) != ("sdp_max_iter", None)],
    # values that are not real numbers raised TypeError from the range comparison
    ("alpha", "0.05"), ("eta0", None), ("tau", "1e5"), ("sdp_tol", "1e-6"), ("alpha", True),
])
def test_circuit_config_rejects_out_of_range(field, value):
    config = CircuitConfig
    if field.startswith("sdp_"):
        # the relaxation's stopping rule is no circuit field; SolverConfig owns and checks it
        with pytest.raises(TypeError, match=f"'{field}'"):
            CircuitConfig(**{field: value})
        config, field = SolverConfig, field.removeprefix("sdp_")
    with pytest.raises(ValueError, match=f"^{field} = "):
        config(**{field: value})


def test_circuit_config_accepts_boundary_values():
    CircuitConfig(epoch_steps=1, rank=2)
    CircuitConfig(epoch_steps=np.int64(1), rank=np.int64(2))


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


def assert_same_learner(a, b, rel=1e-12):
    """Weights and membranes within rel of b's largest entry, and the same cut."""
    assert a.oja.t == b.oja.t
    for x, y in ((a.oja.w, b.oja.w), (a.pop.V, b.pop.V)):
        assert np.max(np.abs(x - y)) <= rel * np.max(np.abs(y))
    assert np.array_equal(a.read_cut(), b.read_cut())


def test_trevisan_step_equals_run_steps(k3):
    # blocks split the rounding differently, so agreement is to 1e-12
    a = TrevisanCircuit(k3, seed=4)
    b = TrevisanCircuit(k3, seed=4)
    for _ in range(50):
        a.run_steps(1)
    b.run_steps(50)
    assert a.oja.t == b.oja.t == 50
    assert_same_learner(a, b)


def test_trevisan_run_steps_chunking_invariant(k3):
    a = TrevisanCircuit(k3, seed=9)
    b = TrevisanCircuit(k3, seed=9)
    a.run_steps(5000)
    b.run_steps(1)
    b.run_steps(4095)
    b.run_steps(904)
    assert_same_learner(a, b)
    with pytest.raises(ValueError):
        a.run_steps(0)


def test_trevisan_same_schedule_is_bit_identical(petersen):
    runs = []
    for _ in range(2):
        circ = TrevisanCircuit(petersen, seed=9)
        for count in (1, 4095, 904, 7000):
            circ.run_steps(count)
        runs.append((circ.oja.w.tobytes(), circ.pop.V.tobytes()))
    assert runs[0] == runs[1]


def assert_replays_bit_for_bit(g, blocks):
    """run_steps(sum(blocks)) equals pop.step/oja.update calls of those block sizes."""
    circ, replay = TrevisanCircuit(g, seed=3), TrevisanCircuit(g, seed=3)
    circ.run_steps(sum(blocks))
    for b in blocks:
        replay.oja.update(replay.pop.step(replay.pool.sample_steps(b)))
    assert circ.oja.t == replay.oja.t == sum(blocks)
    assert circ.oja.w.tobytes() == replay.oja.w.tobytes()
    assert circ.pop.V.tobytes() == replay.pop.V.tobytes()


def test_trevisan_run_steps_replays_its_block_calls_bit_for_bit():
    # at n=300 a row split of the drive GEMM can change its last bits (it
    # does with OpenBLAS 0.3.31), so the replay makes the same _SLICE-row calls
    count = 2 * _BATCH + 77
    blocks = [min(_SLICE, count - done) for done in range(0, count, _SLICE)]
    assert_replays_bit_for_bit(generate_erdos_renyi(300, 0.1, 5), blocks)


def test_trevisan_slice_blocks_replay_batch_blocks_bit_for_bit():
    # _SLICE is a multiple of the leak chunk and the Gram sub-block, and the
    # device stream is sequential, so at n=100 only the drive GEMM's row
    # split could tell _SLICE-row blocks from _BATCH-row ones
    g = generate_erdos_renyi(100, 0.5, 1)
    weights = TrevisanCircuit(g, seed=3).pop.weights
    s = DevicePool(g.n, seed=1).sample_steps(_BATCH)
    whole = s @ weights.T
    if any(not np.array_equal(s[i:i + _SLICE] @ weights.T, whole[i:i + _SLICE])
           for i in range(0, _BATCH, _SLICE)):
        pytest.skip("this BLAS rounds a row slice of the drive GEMM differently from the whole")
    assert_replays_bit_for_bit(g, [_BATCH, _BATCH, 77])


def test_trevisan_run_steps_allocates_no_block():
    # a (4096, 100) float64 block alone would take 3.3 MB
    circ = TrevisanCircuit(generate_erdos_renyi(100, 0.5, 1), seed=2)
    assert warm_peak_bytes(lambda: circ.run_steps(_BATCH)) < 1_000_000


def test_trevisan_memory_does_not_grow_with_the_block_count():
    # two (4096, 500) block buffers would take 33 MB; the (500, 500) weights
    # take 2 MB and the two (_SLICE, 500) buffers 2 MB together, and the
    # call peaked at 4.5 MB
    g = generate_erdos_renyi(500, 0.1, 1)
    config = CircuitConfig(eta0=1e-4)

    def build_and_run():
        TrevisanCircuit(g, seed=2, config=config).run_steps(2 ** 13)

    assert warm_peak_bytes(build_and_run) < 8_000_000


@pytest.mark.parametrize("value", [2.5, 2.0, "3", None])
def test_trevisan_run_steps_takes_integer_counts(k3, value):
    circ = TrevisanCircuit(k3, seed=1)
    with pytest.raises(ValueError, match="must be an integer"):
        circ.run_steps(value)
    circ.run_steps(np.int64(3))
    assert circ.oja.t == 3


def _vector_divergence_step(circ, steps):
    """Update count at which a one-step-at-a-time replay of circ diverges, or None.

    Written out from the leaky membrane step and the anti-Hebbian rule, on a
    fresh circuit's device stream, weights and start vector.
    """
    pop, oja = circ.pop, circ.oja
    q = 1.0 - pop.alpha
    v = np.zeros(pop.n)
    w = oja.w.copy()
    wnorm2 = float(w @ w)
    for t, s in enumerate(circ.pool.sample_steps(steps)):
        v = q * v + pop.weights @ s
        y = float(w @ v)
        eta = oja.eta0 / (1.0 + t / oja.tau)
        w = w * (1.0 + eta * (y * y + 1.0 - wnorm2)) - (eta * y) * v
        wnorm2 = float(w @ w)
        if not np.isfinite(wnorm2):
            return t + 1
    return None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trevisan_full_scale_divergence_step_matches_vector_loop(seed):
    # the full-scale learning rate diverges at n=500 (ROADMAP item 4)
    cfg = ExperimentConfig.full_scale().circuit
    g = generate_erdos_renyi(500, 0.75, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _vector_divergence_step(TrevisanCircuit(g, seed, cfg), 256)
    assert want is not None
    circ = TrevisanCircuit(g, seed, cfg)
    with pytest.raises(NumericalDivergenceError, match=f"after {want} updates "):
        circ.run_steps(256)
    assert circ.oja.t == want


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
    for advance in (lambda c: c.run_steps(5000), lambda c: [c.run_steps(1) for _ in range(5000)]):
        circ = TrevisanCircuit(k3, seed=2, config=CircuitConfig(eta0=1e6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDivergenceError):
                advance(circ)


def test_trevisan_input_scale_undoes_stationary_variance(petersen):
    # the sqrt(1 - q^2) input scale sits in the LIF weights W, so the membranes'
    # stationary covariance W W^T / (1 - q^2), with fair unit-variance
    # devices, is M^2 and not the leak's gain times M^2
    circ = TrevisanCircuit(petersen, seed=0)
    m = trevisan_matrix(petersen)
    w, q = circ.pop.weights, 1.0 - circ.pop.alpha
    assert np.max(np.abs(w @ w.T / (1.0 - q * q) - m @ m)) <= 1e-12


def _without_edges_at(g, isolated):
    return Graph(g.n, [(u, v) for u, v in g.edges.tolist() if u not in isolated and v not in isolated])


@pytest.mark.parametrize("make", [
    lambda: Graph(1, []),
    lambda: _without_edges_at(generate_erdos_renyi(20, 0.3, 2), {0, 7, 19}),
    lambda: _without_edges_at(generate_erdos_renyi(130, 0.5, 3), {5, 64, 129}),
    lambda: _without_edges_at(generate_erdos_renyi(500, 0.75, 4), {0, 250}),
], ids=["n1", "n20", "n130", "n500"])
@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_trevisan_weights_are_the_scaled_matrix_bit_for_bit(make, alpha):
    g = make()
    assert g.n == 1 or np.any(g.degrees == 0)
    q = 1.0 - alpha
    circ = TrevisanCircuit(g, seed=1, config=CircuitConfig(alpha=alpha))
    assert circ.pop.weights.tobytes() == (trevisan_matrix(g) * np.sqrt(1 - q * q)).tobytes()


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9])
def test_trevisan_membranes_have_covariance_m_squared_at_any_leak(alpha):
    # measured, not derived: the sqrt(1 - q^2) factor brings the membranes to
    # covariance M^2 whatever the leak; without it the worst entry is off by
    # 12.4 at alpha = 0.05 and 0.44 at 0.5 (0.02 at 0.9, where q^2 is 0.01)
    g = generate_erdos_renyi(10, 0.5, 4)
    circ = TrevisanCircuit(g, seed=1, config=CircuitConfig(alpha=alpha))
    trace = circ.pop.step(circ.pool.sample_steps(400 + 200_000))[400:]
    m = trevisan_matrix(g)
    assert np.max(np.abs(np.cov(trace.T, bias=True) - m @ m)) <= 0.1


@given(st.integers(2, 24), st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_squared_matrix_shares_minimum_eigenvector(n, seed):
    # the stationary covariance is the squared Trevisan matrix; squaring
    # keeps eigenvectors and, on a [0, 2] spectrum, the position of the
    # minimum eigenvalue
    g = generate_erdos_renyi(n, 0.4, seed)
    m = trevisan_matrix(g)
    vals, vecs = np.linalg.eigh(m)
    vecs2 = np.linalg.eigh(m @ m)[1]
    if vals[1] - vals[0] <= 1e-8:
        return  # degenerate bottom space: individual vectors not comparable
    u, v = vecs[:, 0], vecs2[:, 0]
    assert abs(float(u @ v)) == pytest.approx(1.0, abs=1e-7)


# --- trajectories -----------------------------------------------------------

def test_checkpoint_schedule():
    assert checkpoint_schedule(1) == [1]
    assert checkpoint_schedule(2) == [1, 2]
    assert checkpoint_schedule(100) == [1, 2, 4, 8, 16, 32, 64]
    assert checkpoint_schedule(1024) == [2 ** k for k in range(11)]
    with pytest.raises(ValueError):
        checkpoint_schedule(0)


@pytest.mark.parametrize("value", [2.5, 2.0, "3", None])
def test_checkpoint_schedule_takes_integer_budgets(value):
    with pytest.raises(ValueError, match="total_samples = .* must be an integer"):
        checkpoint_schedule(value)
    assert checkpoint_schedule(np.int64(3)) == [1, 2]


@pytest.mark.parametrize("method", ["random", "gw", "trevisan", "solver-rounding"])
@pytest.mark.parametrize("value", [16.0, 2.5, 2.0, "3", None])
def test_run_trajectory_takes_integer_budgets(c4, method, value):
    with pytest.raises(ValueError, match="total_samples = .* must be an integer"):
        run_trajectory(method, c4, value, seed=3)
    traj = run_trajectory(method, c4, np.int64(16), seed=3)
    assert [s for s, _ in traj.checkpoints] == [1, 2, 4, 8, 16]


@pytest.mark.parametrize("n, total", [(20, 2 ** 13), (100, _BATCH + 5)])
def test_random_trajectory_equals_the_whole_batch_expression(n, total):
    # the labels are built in place; the reference builds each batch the
    # old way, from the same stream, as two whole-batch expressions
    g = generate_erdos_renyi(n, 0.5, n)
    rng = np.random.default_rng(derive_seed(9, "random-cuts"))

    def reference(b):
        return rng.integers(0, 2, size=(b, n), dtype=np.int8) * 2 - 1

    want = trajectory_from_sampler(g, reference, total, "random", 9)
    assert run_trajectory("random", g, total, seed=9).checkpoints == want.checkpoints


@given(st.integers(1, 40), st.lists(st.integers(1, 64), min_size=1, max_size=8),
       st.integers(0, 2 ** 63))
# b·n mod 4 runs through 1, 2, 3, 0, 1 over draws of 1, 1, 1, 1 and 2 words;
# the first and third calls leave the buffered half of a 64-bit word, which
# the next call must read first
@example(n=1, batches=[1, 2, 3, 4, 5], seed=0)
# odd word counts in a row (3, 7, 5): the second call starts on a buffered
# half-word, and the last leaves one for the draw after the batches
@example(n=3, batches=[4, 9, 6], seed=1)
@settings(max_examples=200, deadline=None)
def test_random_labels_equal_the_int8_draw(n, batches, seed):
    ref = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    for b in batches:
        want = ref.integers(0, 2, size=(b, n), dtype=np.int8) * 2 - 1
        got = _random_labels(rng, b, n)
        assert got.dtype == np.int8 and got.shape == (b, n)
        np.testing.assert_array_equal(got, want)
    # a 32-bit draw reads the buffered half-word first, if there is one
    assert rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist() == \
        ref.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist()
    assert rng.integers(0, 1 << 63) == ref.integers(0, 1 << 63)


def test_trajectory_from_sampler_draw_budget(k3):
    drawn = []

    def sampler(b):
        drawn.append(b)
        return np.ones((b, 3), dtype=np.int8)

    traj = trajectory_from_sampler(k3, sampler, 100, "random", 0)
    assert sum(drawn) == 64  # nothing beyond the last power of two
    assert [s for s, _ in traj.checkpoints] == [1, 2, 4, 8, 16, 32, 64]
    assert type(traj.wall_time) is float and traj.wall_time >= 0


@pytest.mark.parametrize("extra", [1, -1], ids=["over-filling", "under-filling"])
def test_trajectory_from_sampler_rejects_a_batch_of_the_wrong_length(k3, extra):
    # b + 1 rows were scored whole, so the trajectory kept the best of more
    # samples than it reported; b - 1 rows undercounted the same way
    # (checkpoints 1, 2 and 4 ask for batches of 1, 1 and 2)
    def sampler(b):
        labels = np.ones((b + extra if b > 1 else b, 3), dtype=np.int8)
        labels[-1, 0] = -1  # the only row that cuts anything
        return labels

    with pytest.raises(ValueError, match=f"bad sampler returned {2 + extra} rows for a batch of 2"):
        trajectory_from_sampler(k3, sampler, 4, "bad", 0)


def test_run_trajectory_random_k3(k3):
    traj = run_trajectory("random", k3, 2 ** 10, seed=123)
    assert traj.checkpoints[-1][1] == 2
    assert traj.method == "random"
    bests = [b for _, b in traj.checkpoints]
    assert bests == sorted(bests)


def test_run_trajectory_gw_c4(c4):
    traj = run_trajectory("gw", c4, 256, seed=5)
    assert traj.checkpoints[-1][1] == 4


def test_run_trajectory_gw_accepts_presolved(c4):
    sol = solve_gw_sdp(c4)
    a = run_trajectory("gw", c4, 64, seed=5, solution=sol)
    b = run_trajectory("gw", c4, 64, seed=5, solution=sol)
    assert a.checkpoints == b.checkpoints


def _best_roundings(g, vectors, total, seed):
    """(checkpoint, best cut) pairs of direct roundings drawn from default_rng(seed),
    in at most _BATCH rows per draw, as the checkpoint schedule asks for them."""
    rng = np.random.default_rng(seed)
    best, done, want = -1, 0, []
    for cp in checkpoint_schedule(total):
        while done < cp:
            b = min(_BATCH, cp - done)
            best = max(best, int(cut_values(g, reference_hyperplane_rounds(vectors, b, rng)).max()))
            done += b
        want.append((cp, best))
    return want


def test_run_trajectory_solver_rounding_is_the_best_direct_rounding():
    g = generate_erdos_renyi(20, 0.5, 4)
    sol = solve_gw_sdp(g, config=SolverConfig(seed=1))
    traj = run_trajectory("solver-rounding", g, 2 ** 14, seed=8, solution=sol)
    assert traj.method == "solver-rounding" and traj.seed == 8
    assert traj.checkpoints == _best_roundings(g, sol.vectors, 2 ** 14, seed=8)


def test_run_trajectory_solver_rounding_solves_like_gw():
    # without a solution, the relaxation starts from derive_seed(seed, "sdp"), as for gw
    g = generate_erdos_renyi(30, 0.3, 6)
    cfg = CircuitConfig(rank=3)
    sol = solve_gw_sdp(g, 3, SolverConfig(seed=derive_seed(8, "sdp")))
    traj = run_trajectory("solver-rounding", g, 2 ** 10, seed=8, config=cfg)
    assert traj.checkpoints == _best_roundings(g, sol.vectors, 2 ** 10, seed=8)
    other = solve_gw_sdp(g, 3, SolverConfig(seed=derive_seed(9, "sdp")))
    assert traj.checkpoints != _best_roundings(g, other.vectors, 2 ** 10, seed=8)


def test_run_trajectory_trevisan_reads_at_checkpoints(c4):
    traj = run_trajectory("trevisan", c4, 2 ** 12, seed=11)
    assert [s for s, _ in traj.checkpoints] == [2 ** k for k in range(13)]
    assert traj.checkpoints[-1][1] == 4
    bests = [b for _, b in traj.checkpoints]
    assert bests == sorted(bests)


@pytest.mark.parametrize("method", ["random", "gw", "trevisan", "solver-rounding"])
@pytest.mark.parametrize("seed", [2.7, 2.5, "7"])
def test_run_trajectory_takes_integer_seeds(c4, method, seed):
    # 2.5 ran as seed 2, and solver-rounding with a solution raised numpy's TypeError
    sol = solve_gw_sdp(c4, 3, SolverConfig(tol=1e-6, seed=0))
    with pytest.raises(ValueError, match="seed = .* must be an integer"):
        run_trajectory(method, c4, 16, seed=seed, solution=sol)
    traj = run_trajectory(method, c4, 16, seed=np.int64(3), solution=sol)
    assert traj.seed == 3 and type(traj.seed) is int
    assert traj.checkpoints == run_trajectory(method, c4, 16, seed=3, solution=sol).checkpoints


@pytest.mark.parametrize("seed", [2.5, "3"])
def test_trajectory_entry_points_reject_non_integer_seeds(c4, seed):
    def sampler(b):
        return np.ones((b, 4), dtype=np.int8)

    sol = solve_gw_sdp(c4, 3, SolverConfig(tol=1e-6, seed=0))
    with pytest.raises(ValueError, match="seed = .* must be an integer"):
        trajectory_from_sampler(c4, sampler, 4, "x", seed)
    with pytest.raises(ValueError, match="seed = .* must be an integer"):
        GwCircuit(c4, sol, seed)
    traj = trajectory_from_sampler(c4, sampler, 4, "x", np.int64(3))
    assert traj.seed == 3 and type(traj.seed) is int


@pytest.mark.parametrize("method, cls", [("trevisan", TrevisanCircuit), ("gw", GwCircuit)])
def test_trajectory_clock_starts_after_the_circuit_is_built(c4, monkeypatch, method, cls):
    built = cls.__init__

    def slow_init(self, *args, **kwargs):
        built(self, *args, **kwargs)
        time.sleep(0.2)

    monkeypatch.setattr(cls, "__init__", slow_init)
    sol = solve_gw_sdp(c4, 3, SolverConfig(tol=1e-6, seed=0))
    traj = run_trajectory(method, c4, 16, seed=1, solution=sol)
    assert traj.wall_time < 0.1


def test_run_trajectory_unknown_method(k3):
    with pytest.raises(ValueError):
        run_trajectory("annealing", k3, 4, seed=0)


@pytest.mark.parametrize("method", ["random", "gw", "trevisan", "solver-rounding"])
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
        gw_b.append(run_trajectory("gw", g, 2 ** 14, seed=k).checkpoints[-1][1])
        rd_b.append(run_trajectory("random", g, 2 ** 14, seed=k).checkpoints[-1][1])
    assert np.median(gw_b) >= np.median(rd_b)
