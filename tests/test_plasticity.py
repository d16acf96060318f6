import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import NumericalDivergenceError, OjaState


def test_state_validation():
    with pytest.raises(ValueError):
        OjaState([1.0, 0.0], eta0=0.0)
    with pytest.raises(ValueError):
        OjaState([1.0, 0.0], tau=-1.0)
    with pytest.raises(ValueError):
        OjaState([1.0, 0.0], input_scale=0.0)
    with pytest.raises(ValueError):
        OjaState(np.ones((2, 2)))
    st1 = OjaState([1.0, 0.0])
    with pytest.raises(ValueError):
        st1.update(np.ones(3))


def test_eta_schedule():
    state = OjaState([1.0, 0.0], eta0=0.01, tau=100.0)
    assert state.eta == pytest.approx(0.01)
    for _ in range(100):
        state.update(np.zeros(2))
    assert state.t == 100
    assert state.eta == pytest.approx(0.005)  # eta0 / (1 + t/tau) at t = tau


def test_spherical_init_unit_norm_and_seeded():
    a = OjaState.spherical_init(6, np.random.default_rng(5))
    b = OjaState.spherical_init(6, np.random.default_rng(5))
    assert np.linalg.norm(a.w) == pytest.approx(1.0)
    assert np.array_equal(a.w, b.w)


def test_update_mutates_in_place_and_returns_live():
    state = OjaState([0.5, 0.5], eta0=0.01)
    out = state.update(np.array([1.0, -1.0]))
    assert out is state.w


def test_anti_rule_expected_fixed_point_at_unit_eigenvector():
    # deterministic inputs +/- e1 alternating: covariance = diag(1, 0);
    # w = e2 is a unit eigenvector of eigenvalue 0, and the update leaves it
    # unchanged because y = 0 and |w| = 1
    state = OjaState([0.0, 1.0], eta0=0.05)
    state.update(np.array([1.0, 0.0]))
    state.update(np.array([-1.0, 0.0]))
    assert np.allclose(state.w, [0.0, 1.0])


def test_single_update_by_hand():
    state = OjaState([1.0, 0.0], eta0=0.1, tau=1e9)
    state.update(np.array([1.0, 1.0]))
    # y = 1, |w|^2 = 1: w <- w*(1 + 0.1*(1 + 1 - 1)) - 0.1*1*x = (1.1, 0) - (0.1, 0.1)
    assert np.allclose(state.w, [1.0, -0.1])


def test_input_scale_applied_inside_update():
    a = OjaState([0.6, 0.8], eta0=0.01, input_scale=0.5)
    b = OjaState([0.6, 0.8], eta0=0.01)
    x = np.array([2.0, -1.0])
    a.update(x)
    b.update(0.5 * x)
    assert np.allclose(a.w, b.w)


def test_anti_rule_converges_to_min_eigenvector():
    rng = np.random.default_rng(123)
    state = OjaState.spherical_init(2, rng, eta0=2e-3, tau=1e5)
    scale = np.array([np.sqrt(3.0), 1.0])
    for x in rng.standard_normal((60000, 2)) * scale:
        state.update(x)
    cos = abs(state.w[1]) / np.linalg.norm(state.w)
    assert cos > 0.99


def test_divergence_raises():
    # gigantic eta blows the norm-control feedback up within a few steps
    state = OjaState([1.0, 0.0], eta0=50.0, tau=1e9)
    with pytest.raises(NumericalDivergenceError), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1000):
            state.update(np.array([1.0, 0.5]))


def test_divergence_message_names_schedule():
    state = OjaState([1.0, 0.0], eta0=50.0, tau=1e9)
    with (pytest.raises(NumericalDivergenceError, match="eta0=50.0"),
          np.errstate(over="ignore", invalid="ignore")):
        for _ in range(1000):
            state.update(np.array([1.0, 0.5]))


@given(st.integers(2, 6), st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_norm_stays_controlled_for_bounded_inputs(n, seed):
    # with eta0 <= 0.05 and inputs of norm <= 1 the squared norm stays in a
    # fixed band around 1 for thousands of steps
    rng = np.random.default_rng(seed)
    state = OjaState.spherical_init(n, rng, eta0=0.05)
    for _ in range(2000):
        x = rng.standard_normal(n)
        x /= max(1.0, np.linalg.norm(x))
        state.update(x)
    assert 0.25 <= float(state.w @ state.w) <= 4.0
