import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import NumericalDivergenceError, OjaState
from neurocut.plasticity import _SUB

from conftest import NOT_REAL


@pytest.mark.parametrize("field", ["eta0", "tau"])
def test_state_rejects_nan_rates(field):
    with pytest.raises(ValueError, match=f"^{field} = nan must be positive"):
        OjaState([1.0, 0.0], **{field: float("nan")})


def test_state_validation():
    with pytest.raises(ValueError):
        OjaState([1.0, 0.0], eta0=0.0)
    with pytest.raises(ValueError):
        OjaState([1.0, 0.0], tau=-1.0)
    with pytest.raises(ValueError, match="^eta0 = '1e-3' must be a real number"):
        OjaState([1.0, 0.0], eta0="1e-3")  # raised TypeError from the comparison
    with pytest.raises(ValueError):
        OjaState(np.ones((2, 2)))
    st1 = OjaState([1.0, 0.0])
    with pytest.raises(ValueError):
        st1.update(np.ones(3))
    with pytest.raises(ValueError):
        st1.update(np.ones((4, 3)))


@pytest.mark.parametrize("w", [[np.nan, 1.0], [1.0, np.inf], [0.0, 0.0], [-0.0]])
def test_state_rejects_a_start_it_cannot_learn_from(w):
    # a NaN start would surface as a divergence after one update, and a zero
    # start never moves
    with pytest.raises(ValueError, match="^w must be finite and not all zero"):
        OjaState(w)


@pytest.mark.parametrize("kind", NOT_REAL)
def test_start_must_be_real_numbers(kind):
    w = NOT_REAL[kind](np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match=f"^w has dtype {w.dtype}, expected real numbers"):
        OjaState(w)


@pytest.mark.parametrize("kind", NOT_REAL)
def test_inputs_must_be_real_numbers(kind):
    # an input of ["1.0", "-1.0"] trained as ±1, True as 1, None as nan and
    # 1+1j as 1 with only a ComplexWarning
    state = OjaState([0.6, 0.8])
    for x in (np.array([1.0, -1.0]), np.array([[1.0, -1.0], [-1.0, 1.0]])):
        bad = NOT_REAL[kind](x)
        with pytest.raises(ValueError, match=f"^x has dtype {bad.dtype}, expected real numbers"):
            state.update(bad)
    assert state.t == 0 and state.w.tolist() == [0.6, 0.8]


def test_float32_block_updates_as_its_float64_values():
    # a float32 block is taken as float64 once, so it trains bit for bit as
    # the same values in float64, and w stays float64
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3 * _SUB + 5, 6)).astype(np.float32)
    single, double = OjaState(np.ones(6)), OjaState(np.ones(6))
    single.update(x)
    double.update(x.astype(float))
    assert single.w.dtype == np.float64
    assert single.w.tobytes() == double.w.tobytes()


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


def _vector_divergence(state, inputs):
    """(t, message) at which one-vector updates raise, or None."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for x in inputs:
                state.update(x)
    except NumericalDivergenceError as err:
        return state.t, str(err)
    return None


@pytest.mark.parametrize("quiet", [0, _SUB - 1, 45])
def test_block_divergence_matches_vector_loop(quiet):
    # zero inputs leave a unit w unchanged, so the blow-up starts after
    # `quiet` rows: inside the first sub-block, at its last row, or later
    inputs = np.vstack([np.zeros((quiet, 2)), np.tile([1.0, 0.5], (100, 1))])
    want = _vector_divergence(OjaState([1.0, 0.0], eta0=50.0, tau=1e9), inputs)
    assert want is not None and want[0] > quiet
    block = OjaState([1.0, 0.0], eta0=50.0, tau=1e9)
    with (pytest.raises(NumericalDivergenceError) as err,
          np.errstate(over="ignore", invalid="ignore")):
        block.update(inputs)
    assert (block.t, str(err.value)) == want


@given(st.integers(1, 8), st.integers(1, 100), st.integers(0, 2 ** 31),
       st.sampled_from([0.5, 1.0, 2.5]), st.sampled_from([1e-3, 5e-3, 0.02]))
@settings(max_examples=40, deadline=None)
def test_block_update_equals_vector_updates(n, rows, seed, magnitude, eta0):
    # across _SUB-row sub-block boundaries, from a mid-schedule start; inputs
    # of norm <= magnitude <= 2.5 keep eta |x|^2 in the stable range
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    w /= np.linalg.norm(w)
    inputs = rng.standard_normal((rows, n))
    inputs /= np.maximum(1.0, np.linalg.norm(inputs, axis=1))[:, None]
    inputs *= magnitude
    block = OjaState(w, eta0=eta0, tau=50.0)
    vector = OjaState(w, eta0=eta0, tau=50.0)
    block.t = vector.t = 7
    live = block.w
    assert block.update(inputs) is live
    for x in inputs:
        vector.update(x)
    assert block.t == vector.t == 7 + rows
    err = np.max(np.abs(block.w - vector.w))
    assert err <= 1e-12 * np.max(np.abs(vector.w))
    assert block._wnorm2 == float(block.w @ block.w)


def _gram_steps_left_to_right(w0, x, eta0, tau, t0, wnorm2):
    """One Gram-form sub-block, step by step, each sum taken left to right."""
    p = (x @ w0).tolist()
    gram = (x @ x.T).tolist()
    s = 1.0
    g = []
    for t in range(len(p)):
        eta = eta0 / (1.0 + (t0 + t) / tau)
        acc = 0.0
        for k in range(t):
            acc += g[k] * gram[t][k]
        y = s * (p[t] - acc)
        a = 1.0 + eta * (y * y + 1.0 - wnorm2)
        b = eta * y
        wnorm2 = a * a * wnorm2 - 2.0 * a * b * y + b * b * gram[t][t]
        s *= a
        g.append(b / s)
    w = w0 - np.asarray(g) @ x
    w *= s
    return w, t0 + len(p), float(w @ w)


@given(st.integers(1, 40), st.integers(1, _SUB), st.integers(0, 2 ** 31),
       st.sampled_from([0.5, 1.0, 2.5]), st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_gram_sub_block_is_a_plain_left_to_right_sum(n, rows, seed, magnitude, t0):
    # bit for bit: a compensated sum (Python 3.12's sum() of floats) or any
    # other order would move w, and with it every lif-trevisan row
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal(n)
    w0 /= np.linalg.norm(w0)
    x = rng.standard_normal((rows, n))
    x /= np.maximum(1.0, np.linalg.norm(x, axis=1))[:, None]
    x *= magnitude
    state = OjaState(w0, eta0=5e-3, tau=1e4)
    state.t = t0
    want_w, want_t, want_norm2 = _gram_steps_left_to_right(
        w0, x, state.eta0, state.tau, t0, state._wnorm2)
    state._update_gram(x)
    assert state.w.tobytes() == want_w.tobytes()
    assert state.t == want_t
    assert state._wnorm2 == want_norm2


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
