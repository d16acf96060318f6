import csv
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from neurocut import (
    BENCH_METHODS,
    CSV_HEADER,
    CircuitConfig,
    ExperimentConfig,
    SolverConfig,
    brute_force_maxcut,
    generate_erdos_renyi,
    parse_config_file,
    run_experiment,
    solve_gw_sdp,
    summarize,
)
from neurocut.bench import ResultRow, Summary, _config_metadata, write_results_csv
from neurocut.seeding import derive_seed

# one small cell keeps the harness tests quick
TINY = dict(er_n=(10,), er_p=(0.5,), er_graphs_per_cell=2, samples=64, base_seed=5)


def tiny_config(**overrides):
    cfg = ExperimentConfig(**TINY)
    return replace(cfg, **overrides)


def test_rows_cover_grid_and_checkpoints():
    res = run_experiment(tiny_config())
    assert not res.failures
    gids = {r.graph_id for r in res.rows}
    assert gids == {"er-n10-p0.5-0", "er-n10-p0.5-1"}
    methods = {r.method for r in res.rows}
    assert methods == {"lif-gw", "lif-trevisan", "random"}
    # 2 graphs x 3 methods x 7 checkpoints (1..64)
    assert len(res.rows) == 2 * 3 * 7
    for r in res.rows:
        assert 0 <= r.best_cut
        assert r.ratio is None or r.ratio == pytest.approx(r.best_cut / r.solver_cut)


def test_er_graphs_reproducible_from_metadata_seeds():
    cfg = tiny_config()
    res = run_experiment(cfg)
    g = generate_erdos_renyi(10, 0.5, derive_seed(5, "er", 10, 0.5, 0))
    top = max(r.best_cut for r in res.rows if r.graph_id == "er-n10-p0.5-0")
    assert top <= brute_force_maxcut(g).value


def test_methods_see_distinct_seeds():
    res = run_experiment(tiny_config())
    seeds = {(r.graph_id, r.method): r.seed for r in res.rows}
    assert seeds[("er-n10-p0.5-0", "lif-gw")] != seeds[("er-n10-p0.5-0", "lif-trevisan")]
    assert seeds[("er-n10-p0.5-0", "lif-gw")] != seeds[("er-n10-p0.5-1", "lif-gw")]


def test_determinism_across_runs_and_workers():
    a = run_experiment(tiny_config())
    b = run_experiment(tiny_config())
    strip = lambda rows: [(r.graph_id, r.method, r.samples, r.best_cut, r.solver_cut) for r in rows]
    assert strip(a.rows) == strip(b.rows)
    c = run_experiment(tiny_config(jobs=2))
    assert strip(c.rows) == strip(a.rows)


def test_solver_rounding_method_rows():
    res = run_experiment(tiny_config(methods=("solver-rounding",)))
    for r in res.rows:
        assert r.best_cut == r.solver_cut
        assert r.ratio == pytest.approx(1.0)


def test_edgeless_cell_flat_zero_baseline(tmp_path):
    from neurocut import Graph, save_graph

    empty = tmp_path / "empty.mtx"
    with open(empty, "w", encoding="utf-8") as fh:
        save_graph(Graph(5, []), fh)
    cfg = ExperimentConfig(er_n=(10,), er_p=(0.0,), er_graphs_per_cell=1, samples=8,
                           graph_files=(str(empty),), methods=BENCH_METHODS)
    res = run_experiment(cfg)
    assert not res.failures
    assert {(r.graph_id, r.method) for r in res.rows} == {
        (gid, m) for gid in ("er-n10-p0.0-0", "empty") for m in BENCH_METHODS}
    for r in res.rows:
        assert r.best_cut == 0 and r.solver_cut == 0 and r.ratio is None


def test_file_graph_jobs(tmp_path, petersen):
    from neurocut import save_graph

    p = tmp_path / "petersen.mtx"
    with open(p, "w", encoding="utf-8") as fh:
        save_graph(petersen, fh)
    cfg = ExperimentConfig(er_n=(), er_p=(), graph_files=(str(p),),
                           methods=("lif-gw", "random"), samples=128, base_seed=1)
    res = run_experiment(cfg)
    assert not res.failures
    assert {r.graph_id for r in res.rows} == {"petersen"}
    assert all(r.p is None for r in res.rows)
    best = max(r.best_cut for r in res.rows if r.method == "lif-gw")
    assert best == 12  # exact optimum, reached fast on a 10-vertex graph


def test_missing_file_is_recorded_not_fatal(tmp_path):
    cfg = ExperimentConfig(er_n=(), er_p=(), graph_files=(str(tmp_path / "nope.mtx"),),
                           samples=8)
    res = run_experiment(cfg)
    assert res.rows == []
    assert len(res.failures) == 1
    assert res.failures[0][0] == "nope"
    assert "failure.nope" in res.metadata


def test_diverging_method_keeps_other_methods_rows():
    cfg = tiny_config(er_graphs_per_cell=1, methods=BENCH_METHODS,
                      circuit=CircuitConfig(eta0=50.0))
    res = run_experiment(cfg)
    gid = "er-n10-p0.5-0"
    assert len(res.failures) == 1
    failed_gid, message = res.failures[0]
    assert failed_gid == gid
    assert message.startswith("lif-trevisan: weight norm diverged after ")
    assert res.metadata[f"failure.{gid}"] == message
    by_method = {}
    for r in res.rows:
        by_method.setdefault(r.method, []).append(r.samples)
    assert by_method == {m: [2 ** k for k in range(7)]
                         for m in ("lif-gw", "solver-rounding", "random")}


def test_failed_baseline_fails_the_whole_job(monkeypatch):
    # every row's solver_cut comes from the baseline, so without it no method reports
    import neurocut.bench as bench

    run = bench.run_trajectory

    def baseline_fails(method, *args, **kwargs):
        if method == "solver-rounding":
            raise ValueError("rounding broke")
        return run(method, *args, **kwargs)

    monkeypatch.setattr(bench, "run_trajectory", baseline_fails)
    res = run_experiment(tiny_config(er_graphs_per_cell=1, methods=BENCH_METHODS))
    gid = "er-n10-p0.5-0"
    assert res.rows == []
    assert res.failures == [(gid, "rounding broke")]
    assert res.metadata[f"failure.{gid}"] == "rounding broke"


def test_validate_rejects_bad_config():
    # the config checks itself when it is built; there is no validate() to forget
    for overrides in (dict(methods=("simulated-annealing",)), dict(samples=0), dict(jobs=0)):
        with pytest.raises(ValueError):
            tiny_config(**overrides)
    # any n >= 1 and p in [0, 1] make a grid: no flag opens values off the presets
    assert ExperimentConfig(er_n=(13,), er_p=(0.3,)).er_n == (13,)
    assert not hasattr(ExperimentConfig, "validate")


def test_config_is_frozen_and_every_replace_checks():
    cfg = tiny_config()
    with pytest.raises(FrozenInstanceError):
        cfg.samples = 0
    with pytest.raises(ValueError, match=r"^samples = 0 must be >= 1"):
        replace(cfg, samples=0)
    with pytest.raises(ValueError, match=r"^jobs = 0 must be >= 1"):
        ExperimentConfig.desk_scale(jobs=0)


def test_parse_config_rejects_a_bad_value_before_any_job(tmp_path):
    # before, the file parsed and the error waited for run_experiment
    p = tmp_path / "bad.cfg"
    p.write_text("er_n = 10\ner_p = 0.5\nsamples = 0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^line 3: samples = 0 must be >= 1"):
        parse_config_file(p)


def test_parse_config_applies_lines_in_order(tmp_path):
    # each line was tried against the preset's grid, so the graph file's id
    # collided with the n=20 cells that line 2 had already dropped
    p = tmp_path / "order.cfg"
    p.write_text("scale = desk\ner_n = 50\ngraph_files = data/er-n20-p0.1-0.mtx\n",
                 encoding="utf-8")
    assert parse_config_file(p) == ExperimentConfig.desk_scale(
        er_n=(50,), graph_files=("data/er-n20-p0.1-0.mtx",))
    # the other way round, line 2's config already holds the duplicate
    p.write_text("scale = desk\ngraph_files = data/er-n20-p0.1-0.mtx\ner_n = 50\n",
                 encoding="utf-8")
    with pytest.raises(ValueError, match=r"^line 2: duplicate graph id 'er-n20-p0.1-0'"):
        parse_config_file(p)


def test_parse_config_takes_a_grid_off_the_presets(tmp_path):
    p = tmp_path / "grid.cfg"
    p.write_text("er_n = 13\ner_p = 0.3\n", encoding="utf-8")
    assert parse_config_file(p) == ExperimentConfig(er_n=(13,), er_p=(0.3,))


@pytest.mark.parametrize("overrides, problem", [
    (dict(er_n=(12.5,)), "er_n item = 12.5 must be an integer"),
    (dict(er_n=(20, "50")), "er_n item = '50' must be an integer"),
    (dict(samples=8.0), "samples = 8.0 must be an integer"),
    (dict(er_graphs_per_cell=1.0), "er_graphs_per_cell = 1.0 must be an integer"),
    (dict(jobs=1.5), "jobs = 1.5 must be an integer"),
    (dict(jobs=2.0), "jobs = 2.0 must be an integer"),
    # (True,) ran n = 1 graphs under graph id er-nTrue-p0.5-0
    (dict(er_n=(True,)), "er_n item = True must be an integer"),
    (dict(samples=True), "samples = True must be an integer"),
    # 5 failed in Path(5) only after every job had run
    (dict(out_dir=5), "out_dir = 5 must be None or a path"),
    # "" wrote the output files into the working directory
    (dict(out_dir=""), "out_dir = '' must be None or a path"),
], ids=["er_n", "er_n-text", "samples", "graphs-per-cell", "jobs", "whole-float-jobs",
        "er_n-bool", "samples-bool", "out_dir-int", "out_dir-empty"])
def test_validate_rejects_non_integer_sizes(overrides, problem):
    # caught before any job runs: each job failed on it, or the process pool raised TypeError
    with pytest.raises(ValueError, match=re.escape(problem)):
        tiny_config(**overrides)


@pytest.mark.parametrize("base_seed", [2.7, "7"])
def test_validate_rejects_non_integer_base_seed(base_seed):
    # 2.7 ran as base seed 2, "7" as 7
    with pytest.raises(ValueError, match="base_seed = .* must be an integer"):
        tiny_config(base_seed=base_seed)


@pytest.mark.parametrize("er_p", [("0.5",), (True,), (0.5, None)], ids=["text", "bool", "none"])
def test_validate_rejects_probabilities_that_are_not_real_numbers(er_p):
    # "0.5" raised TypeError; (True,) ran as p = 1 under graph id er-n10-pTrue-0
    with pytest.raises(ValueError, match="must be a real number in"):
        tiny_config(er_p=er_p)


@pytest.mark.parametrize("overrides", [dict(er_n="20"), dict(er_p="0.5"),
                                       dict(graph_files="g.mtx"), dict(methods="random")],
                         ids=["er_n", "er_p", "graph_files", "methods"])
def test_validate_rejects_a_bare_string_for_a_sequence(overrides):
    # graph_files="g.mtx" became five file jobs g, "", m, t and x; methods="random" read as "r"
    (name, value), = overrides.items()
    with pytest.raises(ValueError, match=f"{name} must be a sequence, not the string '{value}'"):
        tiny_config(**overrides)


@pytest.mark.parametrize("overrides", [dict(er_n=20), dict(er_n=None), dict(er_p=5),
                                       dict(graph_files=None), dict(methods=None)],
                         ids=["er_n-int", "er_n-none", "er_p-int", "graph_files-none",
                              "methods-none"])
def test_validate_rejects_a_list_field_that_is_not_a_sequence(overrides):
    # each raised TypeError from iterating it; methods=None read as "must not be empty"
    (name, value), = overrides.items()
    with pytest.raises(ValueError, match=f"^{name} must be a sequence, not {value!r}$"):
        tiny_config(**overrides)


def test_validate_accepts_lists_for_list_fields():
    cfg = tiny_config(er_n=[10], er_p=[0.5], graph_files=[], methods=["random"])
    assert _config_metadata(cfg)["config.methods"] == "random"


def test_validate_rejects_a_graph_file_with_a_comma():
    # config.graph_files=data/a,b.mtx would read back as the two files data/a and b.mtx
    with pytest.raises(ValueError, match=r"graph file 'data/a,b\.mtx' holds a comma"):
        ExperimentConfig(er_n=(), er_p=(), graph_files=("data/g.mtx", "data/a,b.mtx"))


@pytest.mark.parametrize("overrides, problem", [
    # a dict ran until run_experiment, which raised AttributeError in every job
    (dict(circuit={"alpha": 0.1}), "circuit = {'alpha': 0.1} must be a CircuitConfig"),
    # 5 raised TypeError from Path(5)
    (dict(graph_files=(5,)), "graph file 5 must be a path"),
    (dict(graph_files=("g.mtx", None)), "graph file None must be a path"),
], ids=["circuit-dict", "graph-file-int", "graph-file-none"])
def test_validate_rejects_a_circuit_or_graph_file_of_the_wrong_type(overrides, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        ExperimentConfig(er_n=(), er_p=(), **overrides)


def test_validate_accepts_path_objects_as_graph_files():
    cfg = ExperimentConfig(er_n=(), er_p=(), graph_files=(Path("data/g.mtx"),))
    assert _config_metadata(cfg)["config.graph_files"] == "data/g.mtx"


def test_parse_config_splits_graph_files_on_commas(tmp_path):
    p = tmp_path / "files.cfg"
    p.write_text("er_n =\ner_p =\ngraph_files = data/a.mtx, b.mtx,c.txt\n", encoding="utf-8")
    assert parse_config_file(p).graph_files == ("data/a.mtx", "b.mtx", "c.txt")


@pytest.mark.parametrize("overrides, gid", [
    (dict(er_n=(20, 20), er_p=(0.5,), er_graphs_per_cell=1), "er-n20-p0.5-0"),
    (dict(er_n=(20,), er_p=(0.1, 0.1), er_graphs_per_cell=2), "er-n20-p0.1-0"),
    (dict(er_n=(), er_p=(), graph_files=("a/g.mtx", "b/g.mtx")), "g"),
    (dict(er_n=(20,), er_p=(0.5,), er_graphs_per_cell=1,
          graph_files=("er-n20-p0.5-0.txt",)), "er-n20-p0.5-0"),
], ids=["er_n", "er_p", "file-stem", "file-and-grid"])
def test_validate_rejects_duplicate_graph_ids(overrides, gid):
    # two jobs with one id would share seeds and overwrite each other's metadata
    with pytest.raises(ValueError, match=f"duplicate graph id '{gid}'"):
        ExperimentConfig(**overrides)


def test_known_grid_values_need_no_flag():
    ExperimentConfig(er_n=(20, 500), er_p=(0.75,))


def test_output_files(tmp_path):
    out = tmp_path / "results"
    cfg = tiny_config(out_dir=str(out))
    run_experiment(cfg)
    text = (out / "results.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["graph_id"] == "er-n10-p0.5-0"
    assert rows[0]["samples"] == "1"
    meta = (out / "metadata.txt").read_text(encoding="utf-8")
    assert "rng_algorithm=numpy-PCG64" in meta
    assert "config.base_seed=5" in meta
    assert "config.circuit.eta0=0.005" in meta
    assert (out / "summary.csv").exists()


def test_metadata_records_solver_diagnostics(tmp_path):
    out = tmp_path / "results"
    res = run_experiment(tiny_config(out_dir=str(out)))
    meta = (out / "metadata.txt").read_text(encoding="utf-8").splitlines()
    for i, gid in enumerate(("er-n10-p0.5-0", "er-n10-p0.5-1")):
        g = generate_erdos_renyi(10, 0.5, derive_seed(5, "er", 10, 0.5, i))
        seed = int(res.metadata[f"job.{gid}.sdp_seed"])
        sol = solve_gw_sdp(g, CircuitConfig().rank, SolverConfig(seed=seed))
        assert res.metadata[f"job.{gid}.sdp_iterations"] == str(sol.iterations)
        assert res.metadata[f"job.{gid}.sdp_converged"] == str(sol.converged)
        for key in ("sdp_objective", "sdp_grad_norm", "sdp_converged", "sdp_iterations"):
            assert f"job.{gid}.{key}={res.metadata[f'job.{gid}.{key}']}" in meta


def test_csv_formatting_rules(tmp_path):
    rows = [
        ResultRow("g", 4, None, "lif-gw", 1, 2, 3, 4, 0.75, 0.0),
        ResultRow("h", 4, 0.5, "random", 1, 2, 0, 0, None, 0.0),
    ]
    path = tmp_path / "r.csv"
    write_results_csv(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "g,4,file,lif-gw,1,2,3,4,0.750000"
    assert lines[2] == "h,4,0.5,random,1,2,0,0,"


def test_summarize_grid_and_files():
    rows = [
        ResultRow("er-a", 10, 0.5, "random", 1, 4, 6, 8, 0.75, 0.0),
        ResultRow("er-b", 10, 0.5, "random", 2, 4, 8, 8, 1.0, 0.0),
        ResultRow("dolphins", 62, None, "lif-gw", 3, 4, 120, 118, 120 / 118, 0.0),
        ResultRow("dolphins", 62, None, "lif-gw", 3, 8, 122, 119, 122 / 119, 0.0),
    ]
    summ = summarize(rows)
    cell = [r for r in summ.grid if r.samples == 4][0]
    assert cell.mean_ratio == pytest.approx(0.875)
    assert cell.graphs == 2
    assert cell.sem == pytest.approx(np.std([0.75, 1.0], ddof=1) / np.sqrt(2))
    assert summ.files == [type(summ.files[0])("dolphins", "lif-gw", 122)]
    assert summarize([]) == Summary([], [])


def test_summarize_single_graph_sem_none():
    rows = [ResultRow("er-a", 10, 0.5, "random", 1, 4, 6, 8, 0.75, 0.0)]
    assert summarize(rows).grid[0].sem is None


# --- config files -----------------------------------------------------------

def test_parse_config_file_full(tmp_path):
    p = tmp_path / "bench.cfg"
    p.write_text(
        "# comment\n"
        "scale = desk\n"
        "er_n = 20, 50\n"
        "er_p = 0.1\n"
        "er_graphs_per_cell = 3\n"
        "methods = lif-gw, random\n"
        "samples = 4096\n"
        "base_seed = 99\n"
        "eta0 = 0.004\n"
        "rank = 6\n"
        "out_dir = results\n",
        encoding="utf-8")
    cfg = parse_config_file(p)
    assert cfg.er_n == (20, 50)
    assert cfg.er_p == (0.1,)
    assert cfg.er_graphs_per_cell == 3
    assert cfg.methods == ("lif-gw", "random")
    assert cfg.samples == 4096
    assert cfg.base_seed == 99
    assert cfg.circuit.eta0 == 0.004
    assert cfg.circuit.rank == 6
    assert cfg.circuit.tau == 4000.0  # desk preset schedule survives overrides
    assert cfg.out_dir == "results"


def test_parse_config_scale_presets(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("scale = full\n", encoding="utf-8")
    cfg = parse_config_file(p)
    assert cfg.samples == 2 ** 20
    assert cfg.er_n == (50, 100, 200, 350, 500)
    assert cfg.circuit.tau == 1e5
    p.write_text("scale = desk\n", encoding="utf-8")
    assert parse_config_file(p).circuit.tau == 4000.0
    p.write_text("scale = galactic\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config_file(p)


def test_parse_config_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("samples = 64\nwat = 7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        parse_config_file(p)
    p.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_file(p)
    p.write_text("samples = many\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_file(p)
    # 'none' is no value of a field that cannot be None
    p.write_text("samples = 64\nepoch_steps = none\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        parse_config_file(p)
    p.write_text("rank = none\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_file(p)


def test_empty_out_dir_line_means_no_output(tmp_path):
    # ExperimentConfig(out_dir="") raises, but an empty config value reads as None
    p = tmp_path / "c.cfg"
    p.write_text("out_dir = results\nout_dir =\n", encoding="utf-8")
    assert parse_config_file(p).out_dir is None


# a non-default value for every config key; a new config field needs one here
_EVERY_KEY = {
    "er_n": (20, 350), "er_p": (0.25, 0.75), "er_graphs_per_cell": 3,
    "graph_files": ("a.mtx", "b.txt"), "methods": ("random", "solver-rounding"),
    "samples": 4096, "base_seed": 99, "out_dir": "results", "jobs": 2,
    "alpha": 0.08, "epoch_steps": 60, "eta0": 0.004, "tau": 3000.0,
    "rank": 3,
}


@pytest.mark.parametrize("key", ["dt", "capacitance", "threshold",
                                 "gw_weight_scale", "trevisan_weight_scale", "self_test",
                                 "sdp_tol", "sdp_max_iter", "custom_grid"])
def test_removed_circuit_keys_are_unknown(tmp_path, key):
    # positive drive scales and a zero threshold cannot move a sign read,
    # so the circuit keys are no longer settable; exact optima come from
    # `neurocut exact`, not from a self_test key; the relaxation's stopping
    # rule is SolverConfig's, at its defaults; any grid value runs, so no
    # custom_grid key opens the values off the presets
    p = tmp_path / "old.cfg"
    p.write_text(f"samples = 64\n{key} = 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"line 2: unknown config key '{key}'"):
        parse_config_file(p)


def test_parse_config_sets_every_field(tmp_path):
    top = [f.name for f in fields(ExperimentConfig) if f.name != "circuit"]
    circuit = [f.name for f in fields(CircuitConfig)]
    assert sorted(top + circuit) == sorted(_EVERY_KEY)
    expected = ExperimentConfig(circuit=CircuitConfig(**{k: _EVERY_KEY[k] for k in circuit}),
                                **{k: _EVERY_KEY[k] for k in top})
    for cfg, default, names in ((expected, ExperimentConfig(), top),
                                (expected.circuit, CircuitConfig(), circuit)):
        for name in names:
            assert getattr(cfg, name) != getattr(default, name), name

    def text(value):
        if isinstance(value, tuple):
            return ", ".join(str(v) for v in value)
        return str(value)

    p = tmp_path / "every.cfg"
    p.write_text("".join(f"{k} = {text(v)}\n" for k, v in _EVERY_KEY.items()), encoding="utf-8")
    assert parse_config_file(p) == expected


def _config_lines(metadata):
    return [f"{k}={v}" for k, v in metadata.items() if k.startswith("config.")]


def _reparsed(lines, tmp_path):
    """The config that metadata.txt's config lines give, read as a config file."""
    p = tmp_path / "reparsed.cfg"
    p.write_text("".join(ln.removeprefix("config.circuit.").removeprefix("config.") + "\n"
                         for ln in lines), encoding="utf-8")
    return parse_config_file(p)


def test_desk_run_metadata_parses_back_to_its_config(tmp_path):
    out = str(tmp_path / "run")
    cfg = ExperimentConfig.desk_scale(er_n=(20,), er_p=(0.5,), er_graphs_per_cell=1,
                                      samples=16, methods=("random",), out_dir=out)
    run_experiment(cfg)
    written = [ln for ln in Path(out, "metadata.txt").read_text(encoding="utf-8").splitlines()
               if ln.startswith("config.")]
    assert [ln.partition("=")[0] for ln in written] == [
        "config.er_n", "config.er_p", "config.er_graphs_per_cell", "config.graph_files",
        "config.methods", "config.samples", "config.base_seed", "config.circuit.alpha",
        "config.circuit.epoch_steps", "config.circuit.eta0", "config.circuit.tau",
        "config.circuit.rank", "config.out_dir", "config.jobs"]
    rebuilt = _reparsed(written, tmp_path)
    assert rebuilt == cfg
    assert _config_lines(_config_metadata(rebuilt)) == written


def test_every_key_metadata_parses_back_to_its_config(tmp_path):
    circuit = {f.name for f in fields(CircuitConfig)}
    cfg = ExperimentConfig(
        circuit=CircuitConfig(**{k: v for k, v in _EVERY_KEY.items() if k in circuit}),
        **{k: v for k, v in _EVERY_KEY.items() if k not in circuit})
    lines = _config_lines(_config_metadata(cfg))
    assert len(lines) == len(_EVERY_KEY)
    assert _reparsed(lines, tmp_path) == cfg


def test_scale_presets():
    desk = ExperimentConfig.desk_scale()
    assert desk.er_n == (20, 50, 100)
    assert desk.samples == 2 ** 16
    assert desk.circuit.tau == 4000.0
    full = ExperimentConfig.full_scale(jobs=4)
    assert full.er_graphs_per_cell == 10
    assert full.jobs == 4


# the configs README.md shows, by the file name on each block's first line
_README_CONFIGS = {
    "desk.cfg": ExperimentConfig.desk_scale(jobs=2, out_dir="desk-results"),
    "spot.cfg": ExperimentConfig(er_n=(), er_p=(), graph_files=("data/g14.mtx", "data/torus.txt"),
                                 methods=("lif-gw",), out_dir="spot-results"),
}


def test_readme_example_configs_parse_to_their_presets(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    names = [re.match(r"# (\S+):", block).group(1) for block in blocks]
    assert names == list(_README_CONFIGS)
    for name, block in zip(names, blocks):
        p = tmp_path / name
        p.write_text(block, encoding="utf-8")
        cfg = parse_config_file(p)
        assert cfg == _README_CONFIGS[name], name
