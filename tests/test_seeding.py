import numpy as np
import pytest

from neurocut import RNG_ALGORITHM, derive_seed


def test_algorithm_name():
    assert RNG_ALGORITHM == "numpy-PCG64"


def test_derived_seeds_are_63_bit_nonnegative():
    for base in (0, 1, 2 ** 62):
        for tags in ((), ("a",), ("a", 3), (1.5,)):
            s = derive_seed(base, *tags)
            assert 0 <= s < 2 ** 63


def test_stable_values():
    # frozen so recorded experiment metadata stays decodable
    assert derive_seed(0) == derive_seed(0)
    assert derive_seed(2022, "er", 20, 0.1, 0) == derive_seed(2022, "er", 20, 0.1, 0)
    assert derive_seed(5, "gw") != derive_seed(5, "trevisan")
    assert derive_seed(5, "gw") != derive_seed(6, "gw")
    assert derive_seed(5) != derive_seed(5, "")


def test_tag_order_matters():
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


def test_integer_bases_hash_as_their_value():
    assert derive_seed(np.int64(5), "x") == derive_seed(5, "x")


@pytest.mark.parametrize("base", [2.7, 2.0, "7", None, True])
def test_non_integer_base_is_rejected(base):
    # 2.7 used to hash as base 2, "7" as base 7 and True as base 1
    with pytest.raises(ValueError, match="base seed = .* must be an integer"):
        derive_seed(base, "x")
