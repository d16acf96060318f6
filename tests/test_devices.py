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


@pytest.mark.parametrize("steps", [1, 77, 4096])
def test_sample_steps_into_a_buffer_equals_a_fresh_draw(steps):
    # the same states and generator position, buffered or not, and the pool
    # keeps nothing between calls
    buf = np.full((4096, 9), np.nan, np.float32)
    pool, ref = DevicePool(9, seed=31), DevicePool(9, seed=31)
    for k in (steps, 3, steps):
        got = pool.sample_steps(k, out=buf[:k])
        assert np.shares_memory(got, buf)
        assert np.array_equal(got, ref.sample_steps(k))
        assert pool._rng.bit_generator.state == ref._rng.bit_generator.state
    # the stream continues from the buffered draws as from fresh ones
    assert np.array_equal(pool.sample_steps(5), ref.sample_steps(5))
    assert vars(pool).keys() == {"count", "_rng"}
    with pytest.raises(ValueError, match="shape"):
        pool.sample_steps(steps, out=buf[:steps, :8])


@pytest.mark.parametrize("dtype", [np.float32, None])  # None: a fresh array
@pytest.mark.parametrize("count", [1, 7, 100])
def test_sample_steps_is_the_uniform_stream_below_one_half(count, dtype):
    # each state is one generator word's top bit, which is exactly whether
    # default_rng's uniform from that word is below 1/2; blocks of 1, 255,
    # 256 and 257 rows continue one stream, and leave the generator where the
    # reference's uniforms leave it
    pool, ref = DevicePool(count, seed=2024), np.random.default_rng(2024)
    for steps in (1, 255, 256, 257):
        out = None if dtype is None else np.full((steps, count), np.nan, dtype=dtype)
        got = pool.sample_steps(steps, out=out)
        want = np.where(ref.random(steps * count) < 0.5, 1, -1).reshape(steps, count)
        assert got.dtype == np.float32
        assert np.array_equal(got, want)
        assert pool._rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int8, np.int64, np.complex128])
def test_sample_steps_rejects_other_dtypes(dtype):
    pool = DevicePool(3, seed=1)
    with pytest.raises(ValueError, match="dtype"):
        pool.sample_steps(4, out=np.zeros((4, 3), dtype=dtype))
    assert np.array_equal(pool.sample_steps(2), DevicePool(3, seed=1).sample_steps(2))


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
    assert np.max(np.abs(emp - np.eye(4))) < 0.02  # independent fair ±1 devices


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


# --- bit-packed epochs --------------------------------------------------------

def test_epochs_are_split_invariant():
    whole = DevicePool(3, seed=11).sample_epochs(8, 21)
    pool = DevicePool(3, seed=11)
    parts = np.concatenate([pool.sample_epochs(3, 21), pool.sample_epochs(5, 21)])
    pool = DevicePool(3, seed=11)
    singles = np.concatenate([pool.sample_epochs(1, 21) for _ in range(8)])
    assert whole.shape == (8, 3, 3) and whole.dtype == np.uint8
    assert np.array_equal(whole, parts)
    assert np.array_equal(whole, singles)


@pytest.mark.parametrize("count, steps", [(1, 1), (3, 21), (4, 100), (5, 64), (2, 130)])
def test_epoch_bytes_are_the_generator_words(count, steps):
    # each epoch takes whole 64-bit words, reads its count * width bytes from
    # them in little-endian order, device-major, and drops the rest
    width = (steps + 7) // 8
    per_epoch = (count * width + 7) // 8
    epochs = 6
    words = np.random.default_rng(23).bit_generator.random_raw(epochs * per_epoch)
    expected = np.empty((epochs, count, width), dtype=np.uint8)
    for e in range(epochs):
        stream = b"".join(int(w).to_bytes(8, "little")
                          for w in words[e * per_epoch:(e + 1) * per_epoch])
        for d in range(count):
            expected[e, d] = list(stream[d * width:(d + 1) * width])
    assert np.array_equal(DevicePool(count, seed=23).sample_epochs(epochs, steps), expected)


def test_epoch_bits_are_fair_at_every_position():
    epochs, steps = 5000, 16
    bits = np.unpackbits(DevicePool(4, seed=5).sample_epochs(epochs, steps), axis=2,
                         bitorder="little")
    freq = bits.mean(axis=0)  # one frequency per (device, step)
    se = 0.5 / np.sqrt(epochs)
    assert freq.shape == (4, steps)
    assert np.all(np.abs(freq - 0.5) < 4 * se)


@pytest.mark.parametrize("value", [2.7, 2.0, "3", None, float("nan")])
def test_non_integer_sizes_are_rejected(value):
    with pytest.raises(ValueError, match="must be an integer"):
        DevicePool(value)
    with pytest.raises(ValueError, match="seed = .* must be an integer"):
        DevicePool(2, seed=value)
    with pytest.raises(ValueError, match="must be an integer"):
        DevicePool(2).sample_epochs(value, 8)
    with pytest.raises(ValueError, match="must be an integer"):
        DevicePool(2).sample_epochs(4, value)
    with pytest.raises(ValueError, match="must be an integer"):
        DevicePool(2).sample_steps(value)


def test_numpy_integer_seed_draws_as_the_int():
    pool, ref = DevicePool(3, seed=np.int64(7)), DevicePool(3, seed=7)
    assert np.array_equal(pool.sample_steps(5), ref.sample_steps(5))
    assert np.array_equal(pool.sample_epochs(2, 9), ref.sample_epochs(2, 9))


def test_epoch_validation():
    assert DevicePool(np.int64(3)).count == 3
    assert DevicePool(2).sample_steps(np.int64(3)).shape == (3, 2)
    with pytest.raises(ValueError):
        DevicePool(2).sample_epochs(0, 8)
    with pytest.raises(ValueError):
        DevicePool(2).sample_epochs(4, 0)
