import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocut import DevicePool


def test_centered_states_are_pm_one():
    pool = DevicePool(5, seed=1)
    s = pool.sample_steps(100)
    assert s.shape == (100, 5)
    assert set(np.unique(s)) <= {-1.0, 1.0}


def test_stream_split_invariance():
    # batched draws equal the same draws taken one step at a time
    a = DevicePool(7, seed=42)
    b = DevicePool(7, seed=42)
    batch = a.sample_steps(13)
    singles = np.array([b.sample_steps(1)[0] for _ in range(13)])
    assert np.array_equal(batch, singles)
    # and two uneven batches continue the same stream
    c = DevicePool(7, seed=42)
    two = np.vstack([c.sample_steps(4), c.sample_steps(9)])
    assert np.array_equal(batch, two)


def test_distinct_seeds_distinct_streams():
    a = DevicePool(16, seed=0).sample_steps(50)
    b = DevicePool(16, seed=1).sample_steps(50)
    assert not np.array_equal(a, b)


def test_fair_coin_frequency():
    pool = DevicePool(4, seed=9)
    s = pool.sample_steps(20000)
    freq = (s > 0).mean(axis=0)
    se = 0.5 / np.sqrt(20000)
    assert np.all(np.abs(freq - 0.5) < 4 * se)


def test_empirical_covariance_matches_analytic():
    pool = DevicePool(4, seed=17)
    s = pool.sample_steps(40000)
    emp = np.cov(s.T, bias=True)
    assert np.max(np.abs(emp - pool.covariance())) < 0.02


def test_validation():
    with pytest.raises(ValueError):
        DevicePool(0)
    with pytest.raises(ValueError):
        DevicePool(2).sample_steps(0)


@given(st.integers(1, 8), st.integers(0, 2 ** 31), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_stream_is_pure_function_of_seed_and_position(count, seed, k):
    a = DevicePool(count, seed=seed)
    a.sample_steps(k)
    b = DevicePool(count, seed=seed)
    b.sample_steps(k)
    assert np.array_equal(a.sample_steps(1), b.sample_steps(1))
