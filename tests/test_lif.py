import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import DevicePool, LifPopulation
from neurocut.lif import _CHUNK

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


def assert_rel_close(got, want, rel=1e-12):
    """Agreement within rel of the reference's largest entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 200), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_fresh_block_equals_step_loop(n, r, steps, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, r))
    states = DevicePool(r, seed=seed).sample_steps(steps)
    assert_rel_close(LifPopulation(w).step(states), recurrence(w, states))


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 200), st.integers(0, 2 ** 31),
       st.floats(0.01, 0.9))
@settings(max_examples=40, deadline=None)
def test_step_block_equals_row_loop(n, r, steps, seed, alpha):
    # a block from a non-zero membrane, across the leak-chunk boundary
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, r))
    v0 = rng.standard_normal(n)
    states = DevicePool(r, seed=seed).sample_steps(steps)
    block = LifPopulation(w, alpha=alpha)
    block.V[:] = v0
    live = block.V
    out = block.step(states)
    assert_rel_close(out, recurrence(w, states, alpha, v0))
    assert block.V is live
    assert np.array_equal(block.V, out[-1])


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 300), st.integers(0, 2 ** 31),
       st.floats(0.01, 0.9))
@settings(max_examples=40, deadline=None)
def test_float32_block_follows_the_float64_recurrence(n, r, steps, seed, alpha):
    # The reference is the float64 row recurrence on the same float32 weights
    # and start, so only the float32 arithmetic is measured. A membrane is a
    # leak-weighted sum of drives of at most rho = max_i sum_j |W_ij| each,
    # plus the decayed start: at most rho / alpha + max |V0|. Within a chunk,
    # every entry is rounded by the drive's r-term dot, the leak product's
    # dot of at most _CHUNK terms, the rounded kernel and carry entries, and
    # the carry's multiply and add: at most gamma(r + _CHUNK + 4) of that
    # scale. The carry hands a chunk's last-row error on at most q^_CHUNK
    # smaller, and a row at most q smaller, so the errors sum to at most
    # 2 / (1 - q^_CHUNK) chunk errors.
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, r)).astype(np.float32)
    v0 = rng.standard_normal(n).astype(np.float32)
    states = DevicePool(r, seed=seed).sample_steps(steps)
    pop = LifPopulation(w, alpha=alpha)
    pop.V[:] = v0
    out = pop.step(states)
    assert out.dtype == pop.V.dtype == pop.weights.dtype == np.float32
    assert np.array_equal(pop.V, out[-1])
    want = recurrence(w.astype(float), states, alpha, v0.astype(float))
    q = 1.0 - alpha
    scale = np.abs(w.astype(float)).sum(axis=1).max() / alpha + np.abs(v0).max()
    bound = gamma32(r + _CHUNK + 4) * scale * 2.0 / (1.0 - q ** _CHUNK)
    assert np.max(np.abs(out - want)) <= bound


def test_weights_set_the_dtype():
    for weights in ([[1, 2]], np.ones((1, 2), dtype=np.int32), np.ones((1, 2), dtype=np.float16)):
        pop = LifPopulation(weights)
        assert pop.weights.dtype == pop.V.dtype == pop.step(np.ones((3, 2))).dtype == np.float64
    pop = LifPopulation(np.ones((1, 2), dtype=np.float32))
    # float64 states are taken as float32, which holds ±1 exactly
    assert pop.step(np.ones((3, 2))).dtype == np.float32
    with pytest.raises(ValueError, match="dtype float64, expected float32"):
        pop.step(np.ones((3, 2)), out=np.empty((3, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_non_finite_weights_are_rejected(bad, dtype):
    # they would integrate into NaN membranes
    weights = np.ones((2, 3), dtype=dtype)
    weights[1, 2] = bad
    with pytest.raises(ValueError, match="^weights must be finite"):
        LifPopulation(weights)


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
