import os
import stat
import subprocess
import sys
import threading
from dataclasses import fields

import pytest

from neurocut import CircuitConfig, SolverConfig, cli, load_graph, parse_config_file
from neurocut.bench import _key_parsers
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
    # a 0-based list loads as it is: ids are relabelled, so no flag sets a base
    p = tmp_path / "z.txt"
    p.write_text("0 1\n1 2\n", encoding="utf-8")
    assert main(["exact", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "opt 2"


@pytest.mark.parametrize("argv", [["solve-sdp"], ["run", "--method", "random"],
                                  ["exact"], ["spectral"]], ids=lambda argv: argv[0])
def test_graph_format_flag_is_a_usage_error(k3_file, capsys, argv):
    # a file's format is read off its name or its banner, so no flag sets it
    assert main([*argv, k3_file, "--graph-format", "matrix-market"]) == 1
    assert "unrecognized arguments: --graph-format" in capsys.readouterr().err


def test_bench_subcommand(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "er_n = 10\ner_p = 0.5\ner_graphs_per_cell = 1\nsamples = 32\n"
        "methods = lif-gw, random\nbase_seed = 3\n",
        encoding="utf-8")
    out_dir = tmp_path / "res"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "n=10 p=0.5 lif-gw samples=32" in stdout
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "metadata.txt").exists()


def test_bench_with_no_rows_writes_header_only_files(tmp_path, capsys):
    # the only job fails, so there is nothing to summarize: still exit 0
    missing = tmp_path / "missing.mtx"
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"er_graphs_per_cell = 0\ngraph_files = {missing}\nsamples = 8\n",
                   encoding="utf-8")
    out_dir = tmp_path / "res"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failed missing: ")
    assert (out_dir / "results.csv").read_text(encoding="utf-8").splitlines() == [
        "graph_id,n,p,method,seed,samples,best_cut,solver_cut,ratio"]
    assert (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines() == [
        "n,p,method,samples,mean_ratio,sem,graphs"]


def test_bench_jobs_zero_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("er_n = 10\ner_p = 0.5\ner_graphs_per_cell = 1\nsamples = 8\n"
                   "methods = random\n", encoding="utf-8")
    assert main(["bench", "--config", str(cfg), "--jobs", "0"]) == 1
    assert "error: jobs = 0 must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("lines, problem", [
    ("er_n = 20\nmethods = random, random\n", "line 5: method 'random' is listed twice"),
    ("er_n = 0\n", "line 4: er_n item = 0 must be >= 1"),
    ("er_n = 10, -3\n", "line 4: er_n item = -3 must be >= 1"),
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
                   "alpha = 1.5\n", encoding="utf-8")
    assert main(["bench", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "error: line 5: alpha = 1.5 outside (0, 1)" in captured.err
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


@pytest.mark.parametrize("argv, status", [
    (["run", "K3", "--method", "trevisan", "--eta0", "1000", "--samples", "64"], 2),
    (["solve-sdp", "K3", "--rank", "1"], 1),
], ids=["run-diverges", "solve-sdp-bad-rank"])
def test_failed_command_leaves_out_as_it_was(argv, status, k3_file, tmp_path, capsys):
    # both fail after --out is opened; they used to leave it truncated to 0 bytes
    argv = [k3_file if a == "K3" else a for a in argv]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    keep = out_dir / "keep.txt"
    keep.write_text("keep\n", encoding="utf-8")
    assert main([*argv, "--out", str(keep)]) == status
    assert main([*argv, "--out", str(out_dir / "new.txt")]) == status
    # an --out that did not exist is not left behind
    assert [p.name for p in out_dir.iterdir()] == ["keep.txt"]
    assert keep.read_text(encoding="utf-8") == "keep\n"


def test_out_written_in_place_keeps_its_inode_mode_and_symlink(k3_file, tmp_path):
    # --out is written over, not replaced: a hard link still shares it, its
    # mode is kept, and a symlinked --out has its target written
    target = tmp_path / "sol.txt"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    inode = target.stat().st_ino
    (tmp_path / "hard.txt").hardlink_to(target)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(["solve-sdp", k3_file, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_text(encoding="utf-8").startswith("3 3 ")
    assert target.stat().st_ino == inode and target.stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "hard.txt").read_text(encoding="utf-8") == target.read_text(encoding="utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.txt", "k3.mtx", "link.txt", "sol.txt"]


def test_fifo_out_is_opened_once_and_stays_a_fifo(k3_file, tmp_path):
    # a reader of a FIFO sees end of file at the first close, so a
    # non-regular --out gets one open, no probe and no replacement
    fifo = tmp_path / "sol.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text(encoding="utf-8")))
    reader.start()
    assert main(["solve-sdp", k3_file, "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert got and got[0].startswith("3 3 ")
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_bench_bad_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # an unknown key, and 'none' for a field that is not optional
    for text, line in (("frobs = 3\n", 1), ("samples = 8\nepoch_steps = none\n", 2)):
        cfg.write_text(text, encoding="utf-8")
        assert main(["bench", "--config", str(cfg)]) == 1
        assert f"error: line {line}" in capsys.readouterr().err


# --- config flags: one schema with the config files --------------------------

# (command, flag, its dataclass, its field, the config key that sets the field or None)
_CONFIG_FLAGS = [
    ("run", "--rank", CircuitConfig, "rank", "rank"),
    ("run", "--alpha", CircuitConfig, "alpha", "alpha"),
    ("run", "--epoch-steps", CircuitConfig, "epoch_steps", "epoch_steps"),
    ("run", "--eta0", CircuitConfig, "eta0", "eta0"),
    ("run", "--tau", CircuitConfig, "tau", "tau"),
    ("solve-sdp", "--rank", CircuitConfig, "rank", "rank"),
    ("solve-sdp", "--tol", SolverConfig, "tol", None),
    ("solve-sdp", "--max-iter", SolverConfig, "max_iter", None),
    ("solve-sdp", "--seed", SolverConfig, "seed", None),
]


def _parse(command, *flags):
    extra = ["--method", "gw"] if command == "run" else []
    return cli.build_parser().parse_args([command, "g.mtx", *extra, *flags])


@pytest.mark.parametrize("command, flag, cls, name, key", _CONFIG_FLAGS,
                         ids=[c + f for c, f, *_ in _CONFIG_FLAGS])
def test_config_flag_defaults_to_its_dataclass_default(command, flag, cls, name, key):
    value, default = getattr(_parse(command), name), getattr(cls(), name)
    assert value == default and type(value) is type(default)


@pytest.mark.parametrize("command, flag, text, want", [
    ("run", "--rank", "3", 3), ("run", "--alpha", "0.5", 0.5),
    ("run", "--epoch-steps", "64", 64), ("run", "--eta0", "1e-3", 1e-3),
    ("run", "--tau", "2e4", 2e4), ("solve-sdp", "--rank", "5", 5),
    ("solve-sdp", "--tol", "1e-4", 1e-4), ("solve-sdp", "--max-iter", "7", 7),
    ("solve-sdp", "--max-iter", "none", None), ("solve-sdp", "--max-iter", "None", None),
    ("solve-sdp", "--max-iter", "", None),
])
def test_config_flag_parses_text_as_its_config_key(command, flag, text, want, tmp_path):
    (_, _, cls, name, key), = [f for f in _CONFIG_FLAGS if f[:2] == (command, flag)]
    from_flag = getattr(_parse(command, flag, text), name)
    assert from_flag == want and type(from_flag) is type(want)
    assert getattr(cls(**{name: from_flag}), name) == want
    if key is not None:  # SolverConfig's fields are flags only, not config keys
        p = tmp_path / "key.cfg"
        p.write_text(f"{key} = {text}\n", encoding="utf-8")
        assert getattr(parse_config_file(p).circuit, key) == from_flag


@pytest.mark.parametrize("command, cls", [("run", CircuitConfig), ("solve-sdp", SolverConfig)])
def test_every_config_field_is_a_flag_of_its_command(command, cls):
    # the flags are read off the dataclass, so a new field needs no CLI edit;
    # "3" is no field's default, and every field type here reads it
    parsers = _key_parsers(cls)
    for f in fields(cls):
        value = getattr(_parse(command, "--" + f.name.replace("_", "-"), "3"), f.name)
        want = parsers[f.name]("3")
        assert value == want and type(value) is type(want)
        assert value != getattr(cls(), f.name)


def test_solve_sdp_max_iter_none_runs_uncapped(k3_file, capsys):
    assert main(["solve-sdp", k3_file, "--seed", "2"]) == 0
    uncapped = capsys.readouterr().out
    assert main(["solve-sdp", k3_file, "--seed", "2", "--max-iter", "none"]) == 0
    assert capsys.readouterr().out == uncapped


@pytest.mark.parametrize("argv, flag", [
    (["run", "K3", "--method", "gw", "--rank", "2.5"], "--rank"),
    (["solve-sdp", "K3", "--max-iter", "x"], "--max-iter"),
    (["solve-sdp", "K3", "--rank", "none"], "--rank"),
    (["run", "K3", "--method", "gw", "--alpha", "fast"], "--alpha"),
], ids=["rank-2.5", "max-iter-x", "rank-none", "alpha-text"])
def test_bad_config_flag_exits_1_naming_the_flag(argv, flag, k3_file, capsys):
    argv = [k3_file if a == "K3" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: invalid" in captured.err
