import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import DevicePool, LifPopulation


def make_pop(n=3, r=2, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return LifPopulation(rng.standard_normal((n, r)), **kwargs)


def test_defaults_give_alpha_005():
    pop = make_pop()
    assert pop.alpha == pytest.approx(0.05)
    assert pop.kappa == pytest.approx(1.0 / (1.0 - 0.95 ** 2))


def test_step_recurrence_by_hand():
    pop = LifPopulation(np.array([[2.0]]), alpha=0.05)
    v1 = pop.step(np.array([1.0]))[0]
    assert v1 == pytest.approx(2.0)  # 0.95*0 + 1*2*1
    v2 = pop.step(np.array([-1.0]))[0]
    assert v2 == pytest.approx(0.95 * 2.0 - 2.0)


def test_step_validates_shape():
    pop = make_pop(3, 2)
    with pytest.raises(ValueError):
        pop.step(np.zeros(3))
    with pytest.raises(ValueError):
        pop.step(np.zeros((4, 3)))


def test_unstable_constants_rejected():
    with pytest.raises(ValueError):
        LifPopulation(np.ones((2, 2)), alpha=2.0)
    with pytest.raises(ValueError):
        LifPopulation(np.ones((2, 2)), alpha=1.0)
    with pytest.raises(ValueError):
        LifPopulation(np.ones(4))  # not a matrix


def assert_rel_close(got, want, rel=1e-12):
    """Agreement within rel of the reference's largest entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 200), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_simulate_equals_step_loop(n, r, steps, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, r))
    states = DevicePool(r, seed=seed).sample_steps(steps)
    traj = LifPopulation(w).simulate(states)
    pop = LifPopulation(w)
    stepped = np.array([pop.step(s).copy() for s in states])
    assert_rel_close(traj, stepped)


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 200), st.integers(0, 2 ** 31),
       st.floats(0.01, 0.9))
@settings(max_examples=40, deadline=None)
def test_step_block_equals_row_loop(n, r, steps, seed, alpha):
    # a block from a non-zero membrane, across the leak-chunk boundary
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, r))
    v0 = rng.standard_normal(n)
    states = DevicePool(r, seed=seed).sample_steps(steps)
    block, rows = LifPopulation(w, alpha=alpha), LifPopulation(w, alpha=alpha)
    block.V[:] = v0
    rows.V[:] = v0
    live = block.V
    out = block.step(states)
    stepped = np.array([rows.step(s).copy() for s in states])
    assert_rel_close(out, stepped)
    assert block.V is live
    assert np.array_equal(block.V, out[-1])


def test_step_block_into_a_buffer_equals_a_fresh_block():
    states = DevicePool(2, seed=3).sample_steps(150)
    into, fresh = make_pop(5, 2), make_pop(5, 2)
    buf = np.full((150, 5), np.nan)
    got = into.step(states, out=buf)
    assert got is buf
    assert np.array_equal(got, fresh.step(states))
    assert np.array_equal(into.V, fresh.V)
    assert not np.shares_memory(into.V, buf)
    with pytest.raises(ValueError, match="shape"):
        into.step(states, out=buf[:149])
    with pytest.raises(ValueError, match="block"):
        into.step(states[0], out=buf[:1])


def test_simulate_does_not_touch_live_state():
    pop = make_pop()
    pop.step(np.ones(2))
    before = pop.V.copy()
    pop.simulate(np.ones((10, 2)))
    assert np.array_equal(pop.V, before)


def test_stationary_covariance_formula():
    pop = make_pop(4, 3, seed=2)
    cov = np.diag([4.0, 1.0, 0.25])
    expect = pop.kappa * pop.weights @ cov @ pop.weights.T
    assert np.allclose(pop.stationary_covariance(cov), expect)
    with pytest.raises(ValueError):
        pop.stationary_covariance(np.eye(2))
    asym = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        pop.stationary_covariance(asym)


def test_empirical_variance_approaches_kappa():
    # single unit, single fair device, weight 1: Var(V) -> kappa * 4 * b(1-b) = kappa
    pop = LifPopulation(np.array([[1.0]]))
    states = DevicePool(1, seed=3).sample_steps(120000)
    v = pop.simulate(states)[200:, 0]
    assert np.var(v) == pytest.approx(pop.kappa, rel=0.05)


def test_membrane_scale_invariance_of_signs():
    # scaling W scales V linearly, so sign reads are unchanged
    rng = np.random.default_rng(8)
    w = rng.standard_normal((5, 3))
    states = DevicePool(3, seed=8).sample_steps(64)
    a = LifPopulation(w).simulate(states)
    b = LifPopulation(2.5 * w).simulate(states)
    assert np.allclose(2.5 * a, b, atol=1e-9)
    assert np.array_equal(a[-1] > 0, b[-1] > 0)
