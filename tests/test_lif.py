import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import DevicePool, LifPopulation
from neurocut.lif import _CHUNK

from conftest import NOT_REAL

U32 = 2.0 ** -24  # float32's unit roundoff


def gamma32(k):
    """Higham's gamma_k = k u / (1 - k u) in float32: the relative error bound of a k-term dot."""
    return k * U32 / (1.0 - k * U32)


def make_pop(n=3, r=2, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return LifPopulation(rng.standard_normal((n, r)), **kwargs)


def test_defaults_give_alpha_005():
    pop = make_pop()
    assert pop.alpha == pytest.approx(0.05)


def test_step_recurrence_by_hand():
    pop = LifPopulation(np.array([[2.0]]), alpha=0.05)
    v1, v2 = pop.step(np.array([[1.0], [-1.0]]))[:, 0]
    assert v1 == pytest.approx(2.0)  # 0.95*0 + 1*2*1
    assert v2 == pytest.approx(0.95 * 2.0 - 2.0)


def test_step_validates_shape():
    pop = make_pop(3, 2)
    with pytest.raises(ValueError):
        pop.step(np.zeros(3))
    with pytest.raises(ValueError):
        pop.step(np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"expected \(T, 2\)"):
        pop.step(np.zeros(2))  # a single state is a (1, r) block


def test_unstable_constants_rejected():
    with pytest.raises(ValueError):
        LifPopulation(np.ones((2, 2)), alpha=2.0)
    with pytest.raises(ValueError):
        LifPopulation(np.ones((2, 2)), alpha=1.0)
    with pytest.raises(ValueError, match="^alpha = None must be a real number"):
        LifPopulation(np.ones((2, 2)), alpha=None)  # raised TypeError from the comparison
    with pytest.raises(ValueError):
        LifPopulation(np.ones(4))  # not a matrix


def recurrence(w, states, alpha=0.05, v0=None):
    """The membranes after each step of v = (1 - alpha) v + w s, one row at a time."""
    v = np.zeros(len(w)) if v0 is None else v0
    rows = []
    for s in states:
        v = (1 - alpha) * v + w @ s
        rows.append(v)
    return np.array(rows)


def assert_follows_the_float64_recurrence(pop, states, out, v0):
    """out, pop's block from v0, within the float32 bound of the float64 row recurrence.

    The reference is the float64 row recurrence on pop's own float32 weights
    and on the float32 start, so only the float32 arithmetic is measured. A
    membrane is a leak-weighted sum of drives of at most rho = max_i sum_j
    |W_ij| each, plus the decayed start: at most rho / alpha + max |V0|.
    Within a chunk, every entry is rounded by the drive's r-term dot, the
    leak product's dot of at most _CHUNK terms, the rounded kernel and carry
    entries, and the carry's multiply and add: at most gamma(r + _CHUNK + 4)
    of that scale. The carry hands a chunk's last-row error on at most
    q^_CHUNK smaller, and a row at most q smaller, so the errors sum to at
    most 2 / (1 - q^_CHUNK) chunk errors.
    """
    w, v0 = pop.weights.astype(float), v0.astype(float)
    want = recurrence(w, states, pop.alpha, v0)
    q = 1.0 - pop.alpha
    scale = np.abs(w).sum(axis=1).max() / pop.alpha + np.abs(v0).max(initial=0.0)
    bound = gamma32(pop.r + _CHUNK + 4) * scale * 2.0 / (1.0 - q ** _CHUNK)
    assert out.shape == want.shape and out.dtype == np.float32
    assert np.max(np.abs(out - want)) <= bound


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 200), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_fresh_block_equals_step_loop(n, r, steps, seed):
    # float64 weights are rounded to float32 once; the block starts from V = 0
    rng = np.random.default_rng(seed)
    pop = LifPopulation(rng.standard_normal((n, r)))
    states = DevicePool(r, seed=seed).sample_steps(steps)
    assert_follows_the_float64_recurrence(pop, states, pop.step(states), np.zeros(n, np.float32))


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 200), st.integers(0, 2 ** 31),
       st.floats(0.01, 0.9))
@settings(max_examples=40, deadline=None)
def test_step_block_equals_row_loop(n, r, steps, seed, alpha):
    # a block from a non-zero membrane, across the leak-chunk boundary
    rng = np.random.default_rng(seed)
    block = LifPopulation(rng.standard_normal((n, r)), alpha=alpha)
    block.V[:] = rng.standard_normal(n)
    v0 = block.V.copy()
    live = block.V
    states = DevicePool(r, seed=seed).sample_steps(steps)
    out = block.step(states)
    assert_follows_the_float64_recurrence(block, states, out, v0)
    assert block.V is live
    assert np.array_equal(block.V, out[-1])


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 300), st.integers(0, 2 ** 31),
       st.floats(0.01, 0.9))
@settings(max_examples=40, deadline=None)
def test_float32_block_follows_the_float64_recurrence(n, r, steps, seed, alpha):
    # float32 weights and start are taken as they are, at larger sizes
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, r)).astype(np.float32)
    v0 = rng.standard_normal(n).astype(np.float32)
    states = DevicePool(r, seed=seed).sample_steps(steps)
    pop = LifPopulation(w, alpha=alpha)
    assert np.array_equal(pop.weights, w)
    pop.V[:] = v0
    out = pop.step(states)
    assert out.dtype == pop.V.dtype == pop.weights.dtype == np.float32
    assert np.array_equal(pop.V, out[-1])
    assert_follows_the_float64_recurrence(pop, states, out, v0)


def test_weights_set_the_dtype():
    # any real weights are rounded to float32 once, and the population
    # integrates in float32 whatever the states' dtype
    for weights in ([[1, 2]], np.ones((1, 2), dtype=np.int32), np.ones((1, 2), dtype=np.float16),
                    np.ones((1, 2))):
        pop = LifPopulation(weights)
        assert pop.weights.dtype == pop.V.dtype == pop.step(np.ones((3, 2))).dtype == np.float32
    v = pop.V.copy()
    with pytest.raises(ValueError, match="dtype float64, expected float32"):
        pop.step(np.ones((3, 2)), out=np.empty((3, 1)))
    assert np.array_equal(pop.V, v)


@given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 300), st.integers(0, 2 ** 31),
       st.floats(0.01, 0.9))
@settings(max_examples=20, deadline=None)
def test_float64_weights_integrate_as_their_float32_rounding(n, r, steps, seed, alpha):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, r)) * 10.0 ** rng.integers(-3, 4, size=(n, r))
    states = DevicePool(r, seed=seed).sample_steps(steps)
    double, single = LifPopulation(w, alpha), LifPopulation(w.astype(np.float32), alpha)
    assert double.step(states).tobytes() == single.step(states).tobytes()
    assert double.V.tobytes() == single.V.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_non_finite_weights_are_rejected(bad, dtype):
    # they would integrate into NaN membranes
    weights = np.ones((2, 3), dtype=dtype)
    weights[1, 2] = bad
    with pytest.raises(ValueError, match="^weights must be finite"):
        LifPopulation(weights)


@pytest.mark.parametrize("big", [3.5e38, -1e39, 1e300, np.finfo(np.float64).max])
def test_weights_beyond_float32_range_are_rejected(big):
    # finite in float64, but inf once rounded to float32, so they integrated as inf
    with pytest.raises(ValueError, match=r"^weights must be finite in float32.*3\.4e38"):
        LifPopulation(np.array([[1.0, big]]))
    assert LifPopulation(np.array([[np.finfo(np.float32).max]])).weights[0, 0] < np.inf


@pytest.mark.parametrize("kind", NOT_REAL)
def test_weights_must_be_real_numbers(kind):
    weights = NOT_REAL[kind](np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ValueError, match=f"^weights has dtype {weights.dtype}, expected real"):
        LifPopulation(weights)


@pytest.mark.parametrize("kind", NOT_REAL)
def test_states_must_be_real_numbers(kind):
    # [["1", "-1"]] was read as ±1, True as 1, None as a nan membrane, and
    # 1+1j as 1 with only a ComplexWarning
    pop = make_pop(3, 2)
    states = NOT_REAL[kind](np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ValueError, match=f"^states has dtype {states.dtype}, expected real"):
        pop.step(states)
    assert not pop.V.any()


def test_step_block_into_a_buffer_equals_a_fresh_block():
    states = DevicePool(2, seed=3).sample_steps(150)
    into, fresh = make_pop(5, 2), make_pop(5, 2)
    buf = np.full((150, 5), np.nan, np.float32)
    got = into.step(states, out=buf)
    assert got is buf
    assert np.array_equal(got, fresh.step(states))
    assert np.array_equal(into.V, fresh.V)
    assert not np.shares_memory(into.V, buf)
    with pytest.raises(ValueError, match="shape"):
        into.step(states, out=buf[:149])
    with pytest.raises(ValueError, match="out has dtype float64, expected float32"):
        into.step(states, out=buf.astype(float))
    assert np.array_equal(into.V, fresh.V)


def test_empirical_variance_approaches_kappa():
    # single unit, single fair device, weight 1: Var(V) -> kappa = 1 / (1 - q^2), q = 0.95
    pop = LifPopulation(np.array([[1.0]]))
    states = DevicePool(1, seed=3).sample_steps(120000)
    v = pop.step(states)[200:, 0]
    assert np.var(v) == pytest.approx(1.0 / (1.0 - 0.95 ** 2), rel=0.05)


def test_membrane_scale_invariance_of_signs():
    # scaling W scales V linearly, so sign reads are unchanged
    rng = np.random.default_rng(8)
    w = rng.standard_normal((5, 3))
    states = DevicePool(3, seed=8).sample_steps(64)
    a = LifPopulation(w).step(states)
    b = LifPopulation(2.5 * w).step(states)
    assert np.allclose(2.5 * a, b, atol=1e-9)
    assert np.array_equal(a[-1] > 0, b[-1] > 0)
