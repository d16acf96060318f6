"""Golden outputs: a small benchmark config and three `run` commands, checked byte for byte.

The files under tests/golden/ were written by this module's generator. They
are exact only for the environment in tests/golden/environment.txt: the
relaxation solve and the learner round their BLAS products per library
build, version and CPU kernel. Where any recorded field differs, the exact
test skips and names the fields, and the portable test still compares what
no BLAS can move: the random method's rows and `run --method random`
output, which are pure integer draws and exact cut counts, and every row's
key columns (graph, size, density, method, seed, checkpoint).

A change that moves an output regenerates the files in the same commit:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import ctypes
import io
import platform
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from neurocut import BENCH_METHODS, ExperimentConfig, run_experiment
from neurocut.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
GRAPH = GOLDEN / "file30.mtx"
EDGELESS = GOLDEN / "edgeless.mtx"
OUTPUTS = ("results.csv", "summary.csv")
RUN_METHODS = ("gw", "trevisan", "random")
# results.csv: graph_id, n, p, method, seed, samples; best_cut is portable for random only
KEY_COLUMNS = 6


def golden_config(out_dir) -> ExperimentConfig:
    """Desk preset on a 2 x 2 ER grid, two graphs per cell, 2^12 samples, plus two file graphs."""
    return ExperimentConfig.desk_scale(
        er_n=(20, 50), er_p=(0.1, 0.5), er_graphs_per_cell=2, samples=2 ** 12,
        methods=BENCH_METHODS, graph_files=(str(GRAPH), str(EDGELESS)), out_dir=str(out_dir))


def run_argv(method: str) -> list:
    return ["run", str(GRAPH), "--method", method, "--samples", "1024", "--seed", "7"]


def _blas_core() -> str:
    """The OpenBLAS kernel picked at run time (SkylakeX, Haswell, ...), or '' if unreadable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ""
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return ""


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": str(blas.get("name")), "blas_version": str(blas.get("version")),
            "blas_core": _blas_core()}


def _read_env(path) -> dict:
    pairs = (line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {key: value for key, value in pairs}


def produce(out_dir) -> dict:
    """{file name: bytes} for every golden output, computed by the code under test."""
    run_experiment(golden_config(out_dir))
    outputs = {name: (Path(out_dir) / name).read_bytes() for name in OUTPUTS}
    for method in RUN_METHODS:
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main(run_argv(method)) == 0
        outputs[f"run_{method}.txt"] = stdout.getvalue().encode()
    return outputs


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def _csv(data) -> list:
    return list(csv.reader(io.StringIO(data.decode(), newline="")))


def _portable_results(data) -> list:
    return [row if row[3] in ("method", "random") else row[:KEY_COLUMNS] for row in _csv(data)]


def _portable_summary(data) -> list:
    # grid lines drop mean_ratio and sem; file lines keep best_cut for random only
    rows = []
    for row in _csv(data):
        if len(row) == 7:
            row = row[:4] + row[6:]
        elif len(row) == 3 and row[1] not in ("method", "random"):
            row = row[:2]
        rows.append(row)
    return rows


def _portable_run(method, data) -> list:
    lines = data.decode().splitlines()
    return lines if method == "random" else [lines[0]] + [ln.split()[0] for ln in lines[1:]]


def test_golden_portable_columns(produced):
    for name, portable in (("results.csv", _portable_results),
                           ("summary.csv", _portable_summary)):
        assert portable(produced[name]) == portable((GOLDEN / name).read_bytes()), name
    for method in RUN_METHODS:
        name = f"run_{method}.txt"
        golden = (GOLDEN / name).read_bytes()
        assert _portable_run(method, produced[name]) == _portable_run(method, golden), name


def test_golden_bytes_in_the_recorded_environment(produced):
    recorded, here = _read_env(GOLDEN / "environment.txt"), environment()
    differ = [f"{k}: {recorded.get(k)} -> {here[k]}" for k in here if recorded.get(k) != here[k]]
    if differ:
        pytest.skip("golden bytes need the recorded environment; differs in " + "; ".join(differ))
    for name, data in produced.items():
        assert data == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = produce(tmp)
    for name, data in outputs.items():
        (GOLDEN / name).write_bytes(data)
    (GOLDEN / "environment.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in environment().items()), encoding="utf-8")
    print(f"wrote {len(outputs) + 1} files to {GOLDEN}")
