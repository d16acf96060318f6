import tracemalloc

import numpy as np
import pytest

from neurocut import Graph


@pytest.fixture
def k2():
    return Graph(2, [(0, 1)])


@pytest.fixture
def k3():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def c4():
    # 4-cycle 0-1-2-3-0, bipartite, optimum cut 4
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


# Each turns a float array into one a float cast would misread: True as 1.0,
# 1+1j as 1.0 (with only a ComplexWarning), "1.0" as 1.0 and None as nan.
NOT_REAL = {
    "bool": lambda a: a > 0,
    "complex": lambda a: a + 1j,
    "object": lambda a: np.where(a > 0, None, a),
    "str": lambda a: a.astype(str),
}


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def tmp_edge_list(tmp_path):
    """Writer for throwaway edge-list files; returns the path as str."""

    def _write(lines, name="g.txt"):
        return write_lines(tmp_path / name, lines)

    return _write


@pytest.fixture
def tmp_mtx(tmp_path):
    def _write(lines, name="g.mtx"):
        return write_lines(tmp_path / name, lines)

    return _write


def assert_pm_one(labels, n):
    arr = np.asarray(labels)
    assert arr.shape == (n,)
    assert set(np.unique(arr)).issubset({-1, 1})


def warm_peak_bytes(call):
    """Peak bytes traced during call() after one untraced warm-up call.

    numpy reports its array buffers to tracemalloc, so this counts the arrays
    a call makes whatever the C allocator does with them.
    """
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
