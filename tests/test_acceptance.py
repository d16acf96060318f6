"""Acceptance gate: one test per release criterion, run at full protocol size.

Each test prints a single ``[criterion N] name: PASS|FAIL|SKIP (elapsed)``
line on the terminal (bypassing capture) so a plain ``pytest
tests/test_acceptance.py`` run doubles as the sign-off checklist.  Every
protocol below is frozen — seeds, sizes, and tolerances — so reruns are
deterministic; the wall-clock budgets are asserted, not just documented.
"""

import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import neurocut as nc
from neurocut import (
    CircuitConfig,
    DevicePool,
    ExperimentConfig,
    Graph,
    LifPopulation,
    NumericalDivergenceError,
    OjaState,
    SolverConfig,
    run_experiment,
    summarize,
)


@contextlib.contextmanager
def _criterion(capsys, num, name, budget_s):
    """Time a criterion body, enforce its runtime budget, report one line."""
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed <= budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s:.0f}s budget"
        status = "PASS"
    except BaseException as exc:
        if isinstance(exc, pytest.skip.Exception):
            status = "SKIP"
        raise
    finally:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"[criterion {num}] {name}: {status} ({elapsed:.1f}s)")


# --- 1: stationary membrane correlations track the weight Gram matrix -------


def test_criterion_1_covariance_fidelity(capsys):
    # 10 random weight matrices (n=10, r=4), fair devices, 2e5 stationary
    # steps after a 400-step burn-in (transient decays as 0.95^t).
    with _criterion(capsys, 1, "covariance fidelity", 30.0):
        worst = 0.0
        for k in range(10):
            rng = np.random.default_rng(3000 + k)
            weights = rng.standard_normal((10, 4))
            pop = LifPopulation(weights)
            pool = DevicePool(4, seed=4000 + k)
            states = pool.sample_steps(400 + 200_000)
            trace = pop.step(states)[400:]
            empirical = np.corrcoef(trace.T)
            # fair devices have unit covariance, and the leak's gain
            # 1/(1 - q^2) cancels in a correlation, so W W^T is the reference
            cov = weights @ weights.T
            scale = np.sqrt(np.diag(cov))
            analytic = cov / np.outer(scale, scale)
            worst = max(worst, float(np.max(np.abs(empirical - analytic))))
        assert worst <= 0.05, f"max correlation error {worst:.4f}"


# --- 2: the spiking sampler realizes hyperplane rounding ---------------------


def test_criterion_2_rounding_equivalence(capsys):
    # On the triangle the relaxation optimum has pairwise inner products
    # -1/2, so every edge must be cut with frequency arccos(-1/2)/pi = 2/3.
    # The circuit frequencies must sit within 3 SE of 2/3 and within 3
    # combined SE of a direct Gaussian-rounding reference.
    with _criterion(capsys, 2, "rounding equivalence", 60.0):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        sol = nc.solve_gw_sdp(k3)
        assert sol.converged
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert float(sol.vectors[i] @ sol.vectors[j]) == pytest.approx(-0.5, abs=1e-3)

        n_samples = 100_000
        edges = [(0, 1), (0, 2), (1, 2)]
        circ = nc.GwCircuit(k3, sol, seed=2025)
        labels = circ.sample_cuts(n_samples)
        freq_circ = np.array([(labels[:, i] != labels[:, j]).mean() for i, j in edges])

        ref = nc.reference_hyperplane_rounds(sol.vectors, n_samples, np.random.default_rng(2026))
        freq_ref = np.array([(ref[:, i] != ref[:, j]).mean() for i, j in edges])

        p = 2.0 / 3.0
        se = np.sqrt(p * (1.0 - p) / n_samples)
        assert np.all(np.abs(freq_circ - p) <= 3.0 * se), freq_circ
        assert np.all(np.abs(freq_circ - freq_ref) <= 3.0 * np.sqrt(2.0) * se), (freq_circ, freq_ref)


# --- 3: the relaxation upper-bounds the exact optimum and rounds well --------


def test_criterion_3_sdp_soundness(capsys):
    # 50 random graphs with 6 <= n <= 14; enumeration is the ground truth.
    # The solver runs to gradient tolerance (the iteration cap is lifted so
    # slow flat-face tails cannot stop it early) and must land above OPT up
    # to 1e-6; mean cut over 1e4 rounding draws must reach 0.85*OPT.
    with _criterion(capsys, 3, "sdp soundness", 300.0):
        rng = np.random.default_rng(777)
        accepted = 0
        attempt = 0
        while accepted < 50:
            n = int(rng.integers(6, 15))
            p = float(rng.choice([0.3, 0.5, 0.7]))
            g = nc.generate_erdos_renyi(n, p, 10_000 + attempt)
            attempt += 1
            if g.m == 0:
                continue
            opt = nc.brute_force_maxcut(g).value
            sol = nc.solve_gw_sdp(g, config=SolverConfig(max_iter=200_000, seed=accepted))
            assert sol.objective >= opt - 1e-6, (
                f"graph {attempt - 1}: objective {sol.objective:.8f} below OPT {opt}")
            rounds = nc.reference_hyperplane_rounds(
                sol.vectors, 10_000, np.random.default_rng(20_000 + accepted))
            mean_cut = nc.cut_values(g, rounds).mean()
            assert mean_cut >= 0.85 * opt, (
                f"graph {attempt - 1}: mean rounded cut {mean_cut:.2f} vs OPT {opt}")
            accepted += 1


# --- 4: the anti-Hebbian rule finds the minimum eigenvector ------------------


def test_criterion_4_oja_convergence(capsys):
    # Zero-mean inputs with covariance diag(3, 1): the minimum eigenvector
    # is e2.  Ten seeded restarts, 1e5 updates each; at least nine must end
    # with |cos(w, e2)| >= 0.99.  A divergent restart counts as a miss.
    with _criterion(capsys, 4, "anti-Hebbian convergence", 30.0):
        hits = 0
        for k in range(10):
            rng = np.random.default_rng(500 + k)
            state = OjaState.spherical_init(2, rng, eta0=2e-3, tau=1e5)
            inputs = rng.standard_normal((100_000, 2)) * np.array([np.sqrt(3.0), 1.0])
            try:
                for x in inputs:
                    state.update(x)
            except NumericalDivergenceError:
                continue
            cosine = abs(state.w[1]) / np.linalg.norm(state.w)
            hits += cosine >= 0.99
        assert hits >= 9, f"only {hits}/10 restarts aligned with e2"


# --- 5: the learning circuit reproduces the spectral cut exactly -------------


def test_criterion_5_spectral_circuit_end_to_end(capsys):
    # K2, C4, and ten ER(16, 0.4) instances screened for a clean spectral
    # target (non-degenerate minimum eigenvalue, no near-zero eigenvector
    # entries).  After 2^18 annealed steps the read-out labels must equal
    # the oracle labels up to a global flip.
    with _criterion(capsys, 5, "spectral circuit end-to-end", 600.0):
        graphs = [Graph(2, [(0, 1)]), Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])]
        graphs += [nc.generate_erdos_renyi(16, 0.4, s)
                   for s in (2, 5, 16, 25, 29, 36, 48, 62, 71, 92)]
        cfg = CircuitConfig(tau=2e4)
        for g in graphs:
            oracle = nc.spectral_cut(g)
            assert not oracle.degenerate
            circ = nc.TrevisanCircuit(g, seed=7, config=cfg)
            circ.run_steps(2 ** 18)
            got = circ.read_cut()
            assert (np.array_equal(got, oracle.labels)
                    or np.array_equal(got, -oracle.labels)), (
                f"n={g.n} m={g.m}: circuit cut {nc.cut_value(g, got)} "
                f"vs oracle {nc.cut_value(g, oracle.labels)}")


# --- 6: method ordering on the desk-scale grid -------------------------------


def test_criterion_6_desk_grid_method_ordering(capsys):
    # Full desk grid: n in {20,50,100} x p in {0.1,0.25,0.5}, 5 graphs per
    # cell, 2^16 samples.  At the final checkpoint the mean ratios must
    # order lif-gw >= lif-trevisan >= random in at least 8 of 9 cells, and
    # lif-gw must clear 0.98 in every cell.
    with _criterion(capsys, 6, "desk-grid method ordering", 1800.0):
        cfg = ExperimentConfig.desk_scale(base_seed=20240817)
        result = run_experiment(cfg)
        assert not result.failures, result.failures
        summary = summarize(result.rows)
        final = {(r.n, r.p, r.method): r.mean_ratio
                 for r in summary.grid if r.samples == cfg.samples}
        ordered = 0
        for n in cfg.er_n:
            for p in cfg.er_p:
                gw = final[(n, p, "lif-gw")]
                tr = final[(n, p, "lif-trevisan")]
                rnd = final[(n, p, "random")]
                ordered += gw >= tr >= rnd
                assert gw >= 0.98, f"n={n} p={p}: lif-gw ratio {gw:.4f}"
        assert ordered >= 8, f"only {ordered}/9 cells ordered"


# --- 7: best cuts on named benchmark graphs (conditional on files) -----------

_NAMED_BEST = {"soc-dolphins": 122, "road-chesapeake": 126}


def _find_graph_file(stem):
    roots = []
    env_dir = os.environ.get("NEUROCUT_GRAPH_DIR")
    if env_dir:
        roots.append(Path(env_dir))
    roots.append(Path(__file__).resolve().parents[1] / "data")
    for root in roots:
        for ext in (".mtx", ".txt", ".edges"):
            candidate = root / f"{stem}{ext}"
            if candidate.is_file():
                return candidate
    return None


def test_criterion_7_named_graph_spot_checks(capsys):
    # Requires user-supplied graph files (data/ or $NEUROCUT_GRAPH_DIR);
    # skipped when absent.  Best lif-gw cut within 2^16 samples must match
    # the recorded integer exactly.
    with _criterion(capsys, 7, "named-graph spot checks", 600.0):
        found = {stem: _find_graph_file(stem) for stem in _NAMED_BEST}
        if not any(found.values()):
            pytest.skip("benchmark graph files not present; "
                        "place them in data/ or set NEUROCUT_GRAPH_DIR")
        for stem, path in found.items():
            if path is None:
                continue
            cfg = ExperimentConfig(er_n=(), er_p=(), graph_files=(str(path),),
                                   methods=("lif-gw",), custom_grid=True)
            result = run_experiment(cfg)
            assert not result.failures, result.failures
            best = max(r.best_cut for r in result.rows if r.samples == cfg.samples)
            assert best == _NAMED_BEST[stem], f"{stem}: best {best}"


# --- 8: repeated CLI invocations are byte-identical --------------------------

_C4_MTX = """%%MatrixMarket matrix coordinate pattern symmetric
4 4 4
2 1
3 2
4 3
4 1
"""

_BENCH_CFG = """er_n = 10
er_p = 0.5
er_graphs_per_cell = 2
samples = 64
base_seed = 5
custom_grid = true
"""


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "neurocut", *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _strip_wall_times(text):
    return "\n".join(line for line in text.splitlines() if "wall_time" not in line)


def test_criterion_8_cli_determinism(capsys, tmp_path):
    with _criterion(capsys, 8, "CLI determinism", 120.0):
        graph_path = tmp_path / "c4.mtx"
        graph_path.write_text(_C4_MTX)

        # stdout-producing commands, invoked twice each
        invocations = [
            ("gen-er", "-n", "12", "-p", "0.3", "--seed", "5"),
            ("exact", str(graph_path)),
            ("spectral", str(graph_path)),
            ("solve-sdp", str(graph_path), "--max-iter", "2000"),
            ("run", str(graph_path), "--method", "random", "--samples", "256", "--seed", "3"),
            ("run", str(graph_path), "--method", "gw", "--samples", "256", "--seed", "3"),
            ("run", str(graph_path), "--method", "trevisan", "--samples", "4096", "--seed", "3"),
        ]
        for args in invocations:
            assert _cli(*args) == _cli(*args), f"stdout differs for {args}"

        # file-producing commands
        out_a, out_b = tmp_path / "a.mtx", tmp_path / "b.mtx"
        _cli("gen-er", "-n", "30", "-p", "0.2", "--seed", "9", "--out", str(out_a))
        _cli("gen-er", "-n", "30", "-p", "0.2", "--seed", "9", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(_BENCH_CFG)
        bench_dir = tmp_path / "bench"
        snapshots = []
        for _ in range(2):  # identical flags both times, second run overwrites
            _cli("bench", "--config", str(cfg_path), "--out-dir", str(bench_dir))
            snapshots.append({name: (bench_dir / name).read_bytes()
                              for name in ("results.csv", "summary.csv", "metadata.txt")})
        first, second = snapshots
        assert first["results.csv"] == second["results.csv"]
        assert first["summary.csv"] == second["summary.csv"]
        meta = [_strip_wall_times(s["metadata.txt"].decode()) for s in snapshots]
        assert meta[0] == meta[1]
