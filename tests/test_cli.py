import subprocess
import sys

import pytest

from neurocut import cli, load_graph
from neurocut.cli import main

K3_MTX = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"
C4_MTX = "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 4\n2 1\n3 2\n4 3\n4 1\n"


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "neurocut", *args],
                          capture_output=True, text=True, timeout=300, **kwargs)


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.mtx"
    p.write_text(K3_MTX, encoding="utf-8")
    return str(p)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.mtx"
    p.write_text(C4_MTX, encoding="utf-8")
    return str(p)


# --- subprocess end-to-end --------------------------------------------------

def test_version_banner():
    res = run_cli("--version")
    assert res.returncode == 0
    assert res.stdout.strip() == "neurocut 0.1.0 (rng=numpy-PCG64)"


def test_usage_errors_exit_1():
    assert run_cli().returncode == 1                      # no subcommand
    assert run_cli("frobnicate").returncode == 1          # unknown subcommand
    assert run_cli("gen-er", "-n", "x", "-p", "0.5").returncode == 1
    assert run_cli("gen-er", "-n", "5").returncode == 1   # missing -p


def test_gen_er_round_trips(tmp_path):
    out = tmp_path / "g.mtx"
    res = run_cli("gen-er", "-n", "12", "-p", "0.4", "--seed", "3", "--out", str(out))
    assert res.returncode == 0
    g = load_graph(out)
    assert g.n == 12
    again = run_cli("gen-er", "-n", "12", "-p", "0.4", "--seed", "3")
    assert again.stdout == out.read_text(encoding="utf-8")


def test_gen_er_rejects_bad_p():
    res = run_cli("gen-er", "-n", "5", "-p", "1.5")
    assert res.returncode == 1
    assert "error" in res.stderr.lower()


def test_exact_subcommand(k3_file):
    res = run_cli("exact", k3_file)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "opt 2"
    assert lines[1].startswith("labels ")
    assert set(lines[1].split()[1:]) <= {"-1", "1"}


def test_spectral_subcommand(c4_file):
    res = run_cli("spectral", c4_file)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "cut 4"
    assert lines[2] == "degenerate 0"


def test_run_random_output_shape(k3_file):
    res = run_cli("run", k3_file, "--method", "random", "--samples", "16", "--seed", "9")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "# method=random seed=9 samples=16"
    assert len(lines) == 1 + 5  # checkpoints 1,2,4,8,16
    final = lines[-1].split()
    assert final[0] == "16" and final[1] == "2"


def test_run_divergence_exits_2(k3_file):
    res = run_cli("run", k3_file, "--method", "trevisan", "--samples", "4096",
                  "--eta0", "1e6")
    assert res.returncode == 2
    assert "numerical failure" in res.stderr


def test_missing_graph_file_exits_1(tmp_path):
    res = run_cli("exact", str(tmp_path / "absent.mtx"))
    assert res.returncode == 1


def test_malformed_graph_exits_1(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("3 3\n", encoding="utf-8")
    res = run_cli("exact", str(p))
    assert res.returncode == 1
    assert "error" in res.stderr


# --- in-process paths -------------------------------------------------------

def test_solve_sdp_stdout_and_file(k3_file, tmp_path, capsys):
    assert main(["solve-sdp", k3_file, "--seed", "2"]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()[0].split()
    assert head[0] == "3" and head[1] == "3"
    assert float(head[2]) == pytest.approx(2.25, abs=1e-5)

    path = tmp_path / "sol.txt"
    assert main(["solve-sdp", k3_file, "--seed", "2", "--out", str(path)]) == 0
    head = path.read_text(encoding="utf-8").splitlines()[0].split()
    assert float(head[2]) == pytest.approx(2.25, abs=1e-5)


def test_solve_sdp_warns_when_capped(k3_file, capsys):
    assert main(["solve-sdp", k3_file, "--max-iter", "1"]) == 0
    assert "not converged" in capsys.readouterr().err


def test_solve_sdp_negative_limits_exit_1(k3_file, capsys):
    for flag, value in (("--max-iter", "-5"), ("--tol", "-1")):
        assert main(["solve-sdp", k3_file, flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "must be >= 0" in err


def test_run_gw_reaches_optimum(c4_file, capsys):
    assert main(["run", c4_file, "--method", "gw", "--samples", "64", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "64 4"


def test_run_solver_rounding(c4_file, capsys):
    argv = ["run", c4_file, "--method", "solver-rounding", "--samples", "64", "--seed", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# method=solver-rounding seed=1 samples=64"
    assert [ln.split()[0] for ln in lines[1:]] == [str(2 ** k) for k in range(7)]
    assert lines[-1] == "64 4"
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_run_writes_out_file(k3_file, tmp_path):
    out = tmp_path / "traj.txt"
    assert main(["run", k3_file, "--method", "random", "--samples", "8",
                 "--seed", "0", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("# method=random")


def test_zero_indexed_edge_list(tmp_path, capsys):
    p = tmp_path / "z.txt"
    p.write_text("0 1\n1 2\n", encoding="utf-8")
    assert main(["exact", str(p)]) == 1  # ids below one-indexed base
    capsys.readouterr()
    assert main(["exact", str(p), "--zero-indexed"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "opt 2"


def test_bench_subcommand(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "er_n = 10\ner_p = 0.5\ner_graphs_per_cell = 1\nsamples = 32\n"
        "methods = lif-gw, random\ncustom_grid = true\nbase_seed = 3\n",
        encoding="utf-8")
    out_dir = tmp_path / "res"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "n=10 p=0.5 lif-gw samples=32" in stdout
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "metadata.txt").exists()


def test_bench_jobs_zero_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("er_n = 10\ner_p = 0.5\ner_graphs_per_cell = 1\nsamples = 8\n"
                   "methods = random\ncustom_grid = true\n", encoding="utf-8")
    assert main(["bench", "--config", str(cfg), "--jobs", "0"]) == 1
    assert "jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("lines, problem", [
    ("er_n = 20\nmethods = random, random\n", "method 'random' is listed twice"),
    ("er_n = 0\ncustom_grid = true\n", "er_n must hold positive vertex counts, not 0"),
    ("er_n = 10, -3\ncustom_grid = true\n", "er_n must hold positive vertex counts, not -3"),
], ids=["repeated-method", "zero-n", "negative-n"])
def test_bench_rejects_repeated_method_and_non_positive_n(lines, problem, tmp_path, capsys):
    # rejected before any job runs: a repeated method doubled its rows and a
    # zero n failed every job while bench still exited 0
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("er_p = 0.5\ner_graphs_per_cell = 1\nsamples = 16\n" + lines,
                   encoding="utf-8")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "res")]) == 1
    captured = capsys.readouterr()
    assert f"error: {problem}" in captured.err
    assert "failed" not in captured.err and captured.out == ""
    assert not (tmp_path / "res").exists()


def test_bench_missing_config_exits_1(tmp_path):
    assert main(["bench", "--config", str(tmp_path / "none.cfg")]) == 1


def test_bench_out_of_range_circuit_value_exits_1(tmp_path, capsys):
    # rejected before any job runs, naming the line, instead of one
    # 'failed' line per job and exit 0
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("er_n = 10\ner_p = 0.5\ner_graphs_per_cell = 1\nsamples = 8\n"
                   "custom_grid = true\nalpha = 1.5\n", encoding="utf-8")
    assert main(["bench", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "error: line 6: alpha = 1.5 outside (0, 1)" in captured.err
    assert "failed" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [["gen-er", "-n", "5", "-p", "0.5"],
                                  ["solve-sdp", "K3"],
                                  ["run", "K3", "--method", "random", "--samples", "4"]],
                         ids=["gen-er", "solve-sdp", "run"])
def test_empty_out_path_exits_1(argv, k3_file, capsys):
    # an empty --out names no file; it does not mean stdout
    argv = [k3_file if a == "K3" else a for a in argv]
    assert main([*argv, "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, work", [
    (["solve-sdp", "K3"], "solve_gw_sdp"),
    (["run", "K3", "--method", "random", "--samples", "4"], "run_trajectory"),
], ids=["solve-sdp", "run"])
def test_unwritable_out_fails_before_the_work(argv, work, k3_file, tmp_path, monkeypatch,
                                              capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was opened")

    monkeypatch.setattr(cli, work, must_not_run)
    argv = [k3_file if a == "K3" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "missing" / "x.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_bad_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # an unknown key, and 'none' for a field that is not optional
    for text, line in (("frobs = 3\n", 1), ("samples = 8\nepoch_steps = none\n", 2)):
        cfg.write_text(text, encoding="utf-8")
        assert main(["bench", "--config", str(cfg)]) == 1
        assert f"error: line {line}" in capsys.readouterr().err
