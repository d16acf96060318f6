"""Benchmark harness: ER grids and file graphs, four methods, CSV + metadata out.

Every run row reports the best cut a method reached at a power-of-two sample
checkpoint next to a solver baseline: the best of the same number of direct
hyperplane roundings of the relaxation solved for that graph, which the
job's sdp_converged metadata describes. The results CSV and the summary are
bit-reproducible for a fixed config; wall-clock times go to a separate
metadata file so they never perturb the primary outputs.
"""

from __future__ import annotations

import csv
import os
import typing
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .circuits import CircuitConfig, run_trajectory
from .devices import _check_probability, _whole
from .graphs import generate_erdos_renyi, load_graph
from .sdp import SolverConfig, solve_gw_sdp
from .seeding import RNG_ALGORITHM, derive_seed

CSV_HEADER = "graph_id,n,p,method,seed,samples,best_cut,solver_cut,ratio"

_METHOD_MAP = {"lif-gw": "gw", "lif-trevisan": "trevisan",
               "solver-rounding": "solver-rounding", "random": "random"}
BENCH_METHODS = tuple(_METHOD_MAP)

# Grid values used by the standard experiment scales; anything else needs the
# custom_grid flag so accidental typos do not silently change the protocol.
_KNOWN_N = {20, 50, 100, 200, 350, 500}
_KNOWN_P = {0.1, 0.25, 0.5, 0.75}


@dataclass(frozen=True)
class ExperimentConfig:
    """A benchmark run's grid, files, methods and budget, checked when it is built."""

    er_n: tuple[int, ...] = (20, 50, 100)
    er_p: tuple[float, ...] = (0.1, 0.25, 0.5)
    er_graphs_per_cell: int = 5
    graph_files: tuple[str, ...] = ()
    methods: tuple[str, ...] = ("lif-gw", "lif-trevisan", "random")
    samples: int = 2 ** 16
    base_seed: int = 2022
    circuit: CircuitConfig = CircuitConfig()
    out_dir: str | None = None
    jobs: int = 1
    custom_grid: bool = False

    @classmethod
    def desk_scale(cls, **overrides) -> "ExperimentConfig":
        """Laptop-sized grid: n in {20,50,100}, p in {0.1,0.25,0.5}, 2^16 samples.

        The learning-rate horizon shrinks with the sample budget (tau 4000
        instead of the free-running default 1e5) so the learner is about as
        annealed at the final checkpoint as a full-scale run is at 2^20.
        """
        cfg = cls(circuit=CircuitConfig(tau=4000.0))
        return replace(cfg, **overrides)

    @classmethod
    def full_scale(cls, **overrides) -> "ExperimentConfig":
        """Full grid: n up to 500, p up to 0.75, 10 graphs per cell, 2^20 samples."""
        cfg = cls(er_n=(50, 100, 200, 350, 500), er_p=(0.1, 0.25, 0.5, 0.75),
                  er_graphs_per_cell=10, samples=2 ** 20)
        return replace(cfg, **overrides)

    def __post_init__(self):
        for name in ("er_n", "er_p", "graph_files", "methods"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)):  # a str would be read character by character
                what = "the string " if isinstance(value, str) else ""
                raise ValueError(f"{name} must be a sequence, not {what}{value!r}")
        for path in self.graph_files:
            if not isinstance(path, (str, os.PathLike)):
                raise ValueError(f"graph file {path!r} must be a path")
            if "," in str(path):  # config files and metadata.txt split lists on commas
                raise ValueError(f"graph file {str(path)!r} holds a comma, which a config list cannot")
        if not self.methods:
            raise ValueError("methods must not be empty")
        for k, m in enumerate(self.methods):
            if m not in BENCH_METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {BENCH_METHODS}")
            if m in self.methods[:k]:
                raise ValueError(f"method {m!r} is listed twice; each method runs once per graph")
        # sizes that are not integers would fail every job, or the process pool
        _whole(self.samples, "samples", least=1)
        _whole(self.er_graphs_per_cell, "er_graphs_per_cell", least=0)
        _whole(self.jobs, "jobs", least=1)
        _whole(self.base_seed, "base_seed")
        for n in self.er_n:
            _whole(n, "er_n item", least=1)
        for p in self.er_p:
            _check_probability(p)
        if not isinstance(self.circuit, CircuitConfig):  # a dict fails every job with AttributeError
            raise ValueError(f"circuit = {self.circuit!r} must be a CircuitConfig")
        if not isinstance(self.custom_grid, bool):  # "false" is truthy
            raise ValueError(f"custom_grid = {self.custom_grid!r} must be a bool")
        # "" would write the outputs into the working directory
        if self.out_dir is not None and (self.out_dir == "" or not isinstance(self.out_dir, (str, os.PathLike))):
            raise ValueError(f"out_dir = {self.out_dir!r} must be None or a path")
        if not self.custom_grid:
            bad_n = [n for n in self.er_n if n not in _KNOWN_N]
            bad_p = [p for p in self.er_p if p not in _KNOWN_P]
            if bad_n or bad_p:
                raise ValueError(
                    f"ER grid values {bad_n or bad_p} are outside the preset scales; "
                    "set custom_grid=true to run them anyway")
        seen = set()
        for gid, _, _ in _job_list(self):
            if gid in seen:
                raise ValueError(f"duplicate graph id {gid!r}: a repeated grid value "
                                 "or two graph files with the same file stem")
            seen.add(gid)


@dataclass
class ResultRow:
    graph_id: str
    n: int
    p: float | None  # None for file graphs
    method: str
    seed: int
    samples: int
    best_cut: int
    solver_cut: int
    ratio: float | None  # best/solver at the same checkpoint; None when solver_cut == 0
    wall_time: float     # seconds of its method's whole checkpoint loop; not in the CSV


@dataclass
class ExperimentResult:
    rows: list
    failures: list      # (graph_id, message) pairs
    metadata: dict


def _config_metadata(cfg: ExperimentConfig) -> dict:
    meta = {"artifact": "neurocut", "rng_algorithm": RNG_ALGORITHM}
    for key, (_, in_circuit) in _KEYS.items():
        owner, prefix = (cfg.circuit, "config.circuit.") if in_circuit else (cfg, "config.")
        meta[prefix + key] = _fmt(getattr(owner, key))
    return meta


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if value is None:
        return ""
    return str(value)


def _job_list(cfg: ExperimentConfig) -> list:
    """(graph_id, p, build) per job in canonical order; p is None for file graphs.

    build() returns the job's graph. It is a partial of a module function, so
    it pickles into worker processes.
    """
    jobs = []
    for n in cfg.er_n:
        for p in cfg.er_p:
            for k in range(cfg.er_graphs_per_cell):
                seed = derive_seed(cfg.base_seed, "er", n, p, k)
                jobs.append((f"er-n{n}-p{p}-{k}", p, partial(generate_erdos_renyi, n, p, seed)))
    for path in cfg.graph_files:
        jobs.append((Path(path).stem, None, partial(load_graph, str(path))))
    return jobs


def _run_graph_job(args) -> tuple:
    """One graph, all methods. Returns (rows, meta, failures).

    failures holds (graph_id, message) pairs. The solver baseline runs first:
    if it or the relaxation fails, the job loses every row. Any other method
    that raises loses only its own rows, and its message names it.
    """
    cfg, graph_id, p, build = args
    meta: dict = {}

    def trajectory(method):
        return run_trajectory(_METHOD_MAP[method], g, cfg.samples,
                              derive_seed(cfg.base_seed, graph_id, method), cfg.circuit,
                              solution=solution, graph_id=graph_id)

    try:
        g = build()
        sdp_seed = derive_seed(cfg.base_seed, graph_id, "sdp")
        solution = solve_gw_sdp(g, cfg.circuit.rank, SolverConfig(seed=sdp_seed))
        meta[f"job.{graph_id}.sdp_seed"] = str(sdp_seed)
        meta[f"job.{graph_id}.sdp_objective"] = f"{solution.objective:.6f}"
        meta[f"job.{graph_id}.sdp_grad_norm"] = f"{solution.grad_norm:.3e}"
        meta[f"job.{graph_id}.sdp_converged"] = str(solution.converged)
        meta[f"job.{graph_id}.sdp_iterations"] = str(solution.iterations)
        baseline = trajectory("solver-rounding")
    except (ValueError, OSError) as err:
        return [], meta, [(graph_id, str(err))]
    solver_at = dict(baseline.checkpoints)

    rows = []
    failures = []
    for method in cfg.methods:
        try:
            traj = baseline if method == "solver-rounding" else trajectory(method)
        except (RuntimeError, ValueError) as err:
            failures.append((graph_id, f"{method}: {err}"))
            continue
        meta[f"job.{graph_id}.{method}.seed"] = str(traj.seed)
        meta[f"job.{graph_id}.{method}.wall_time"] = f"{traj.wall_time:.3f}"
        for samples, best in traj.checkpoints:
            solver_cut = solver_at[samples]
            ratio = best / solver_cut if solver_cut > 0 else None
            rows.append(ResultRow(graph_id, g.n, p, method, traj.seed, samples,
                                  best, solver_cut, ratio, traj.wall_time))
    return rows, meta, failures


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured grid and files; optionally write CSV and metadata.

    Jobs are one graph each and may run in worker processes (cfg.jobs > 1);
    results are assembled in the canonical job order either way.
    """
    jobs = [(cfg, *job) for job in _job_list(cfg)]
    if cfg.jobs > 1 and len(jobs) > 1:
        # imported here: the pool machinery costs import time and RSS that jobs = 1 never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(_run_graph_job, jobs))
    else:
        outcomes = [_run_graph_job(j) for j in jobs]

    rows: list = []
    failures: list = []
    metadata = _config_metadata(cfg)
    for job_rows, meta, job_failures in outcomes:
        rows.extend(job_rows)
        metadata.update(meta)
        failures.extend(job_failures)
        if job_failures:
            metadata[f"failure.{job_failures[0][0]}"] = "; ".join(m for _, m in job_failures)

    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_results_csv(rows, out / "results.csv")
        write_summary_csv(summarize(rows), out / "summary.csv")
        write_metadata(metadata, out / "metadata.txt")
    return ExperimentResult(rows, failures, metadata)


def write_results_csv(rows, path) -> None:
    with open(os.fspath(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in rows:
            writer.writerow([
                r.graph_id, r.n, "file" if r.p is None else r.p, r.method, r.seed,
                r.samples, r.best_cut, r.solver_cut,
                "" if r.ratio is None else f"{r.ratio:.6f}",
            ])


def write_metadata(metadata: dict, path) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        for key, value in metadata.items():
            fh.write(f"{key}={value}\n")


@dataclass
class GridSummaryRow:
    n: int
    p: float
    method: str
    samples: int
    mean_ratio: float
    sem: float | None  # None with a single graph: standard error undefined
    graphs: int


@dataclass
class FileSummaryRow:
    graph_id: str
    method: str
    best_cut: int


@dataclass
class Summary:
    grid: list
    files: list


def summarize(rows) -> Summary:
    """Mean ratio and standard error per ER cell/method/checkpoint, plus the
    best cut per file graph and method; no rows give an empty Summary."""
    grid_groups: dict = {}
    file_groups: dict = {}
    for r in rows:
        if r.p is None:
            key = (r.graph_id, r.method)
            file_groups[key] = max(file_groups.get(key, 0), r.best_cut)
        elif r.ratio is not None:
            grid_groups.setdefault((r.n, r.p, r.method, r.samples), []).append(r.ratio)
    grid = []
    for (n, p, method, samples), ratios in sorted(grid_groups.items()):
        arr = np.asarray(ratios)
        sem = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size >= 2 else None
        grid.append(GridSummaryRow(n, p, method, samples, float(arr.mean()), sem, arr.size))
    files = [FileSummaryRow(gid, method, best)
             for (gid, method), best in sorted(file_groups.items())]
    return Summary(grid, files)


def write_summary_csv(summary: Summary, path) -> None:
    with open(os.fspath(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "p", "method", "samples", "mean_ratio", "sem", "graphs"])
        for row in summary.grid:
            writer.writerow([row.n, row.p, row.method, row.samples,
                             f"{row.mean_ratio:.6f}",
                             "" if row.sem is None else f"{row.sem:.6f}", row.graphs])
        if summary.files:
            writer.writerow([])
            writer.writerow(["graph_id", "method", "best_cut"])
            for frow in summary.files:
                writer.writerow([frow.graph_id, frow.method, frow.best_cut])


# --- flat key=value config files -------------------------------------------

def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0"):
        raise ValueError(f"bad boolean {text!r}")
    return text.lower() in ("true", "1")


def _value_parser(hint):
    """text -> value for one field annotation.

    tuple[T, ...] takes comma-separated items. An optional field (T | None)
    reads empty text as None, as metadata.txt writes it, and 'none' too
    unless T is str.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        item = _value_parser(args[0])
        return lambda text: tuple(item(v.strip()) for v in text.split(",") if v.strip())
    if type(None) in args:
        item = _value_parser(args[0])
        unset = ("",) if args[0] is str else ("", "none")

        def optional(text):
            return None if text.lower() in unset else item(text)
        optional.__name__ = item.__name__  # argparse: "invalid int value: 'x'"
        return optional
    return _parse_bool if hint is bool else hint


def _key_parsers(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: _value_parser(hints[f.name]) for f in fields(cls)}


# The config schema, in metadata.txt's order: key -> (parser, in_circuit) for
# every ExperimentConfig field, with CircuitConfig's fields in circuit's place.
_KEYS = {key: (parse, name == "circuit")
         for name, parser in _key_parsers(ExperimentConfig).items()
         for key, parse in (_key_parsers(CircuitConfig).items() if name == "circuit"
                            else [(name, parser)])}


def parse_config_file(path) -> ExperimentConfig:
    """Build an ExperimentConfig from flat 'key = value' lines.

    Keys are the field names of ExperimentConfig (except circuit) and of
    CircuitConfig. Lists are comma-separated; 'scale = desk|full' selects a
    preset before other keys override it; later lines win; unknown keys are
    input errors. A value that a config rejects names its line; the rules
    across keys (the preset grid, duplicate graph ids) are checked last.
    """
    entries = []
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"line {lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            entries.append((lineno, key.strip(), value.strip()))

    cfg = ExperimentConfig()
    presets = {"desk": ExperimentConfig.desk_scale, "full": ExperimentConfig.full_scale}
    for lineno, key, value in entries:
        if key == "scale":
            if value not in presets:
                raise ValueError(f"line {lineno}: unknown scale {value!r}")
            cfg = presets[value]()
    experiment: dict = {}
    circuit = cfg.circuit
    for lineno, key, value in entries:
        # one key at a time, so a value the configs reject names its line; the
        # preset grid rule waits for every key, so it is off until the end
        if key == "scale":
            continue
        try:
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r}")
            parse, in_circuit = _KEYS[key]
            if in_circuit:
                circuit = replace(circuit, **{key: parse(value)})
            else:
                experiment[key] = parse(value)
                replace(cfg, **{"custom_grid": True, key: experiment[key]})
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    return replace(cfg, **experiment, circuit=circuit)
