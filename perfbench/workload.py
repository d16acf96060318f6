"""One benchmark workload, run in a process of its own.

run.py starts this file with the checkout's ``src`` on PYTHONPATH. With
--setup-only it imports neurocut, builds the workload's inputs and prints the
set-up times as JSON. Otherwise it goes on to the measured phase (untraced,
with the output checks hooked in): whole rounds of the workload's units, at
least one. Then come the checks and, with --trace 1, a traced replay of
set-up and one round. It prints one JSON object with everything run.py
reports, including each unit's job times and fingerprint, which run.py
compares across processes.

All three workloads are closed-loop: one client, one process, jobs=1. The
benchmark generates every input, from --seed or from the fixed seeds below;
neurocut receives only the generated graphs and configs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter

_STEP = re.compile(r"after (\d+) updates")


def derive(seed: int, *tags) -> int:
    """Input seed for one workload item, independent of neurocut's own derivation."""
    text = ":".join(["perfbench", str(int(seed))] + [str(t) for t in tags])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def error_record(err: BaseException) -> dict:
    step = _STEP.search(str(err))
    return {"type": type(err).__name__, "message": str(err),
            "learner_step": int(step.group(1)) if step else None}


@dataclass
class Op:
    """One (graph, method) operation and what it produced."""

    graph: str
    method: str
    m: int
    samples: int
    seconds: float | None = None
    checkpoints: list = field(default_factory=list)
    error: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Solve:
    """One relaxation solve; graph and solution are kept for the checks."""

    label: str
    g: object
    solution: object
    seconds: float

    @property
    def per_edge(self) -> float:
        return self.solution.objective / self.g.m


@dataclass
class Unit:
    """One loop iteration: a graph job (desk, dense) or a pair of solves (sdp)."""

    ops: list
    solves: list
    job_seconds: list
    objectives: list = field(default_factory=list)  # relaxation objectives it reached

    def fingerprint(self) -> list:
        return ([(o.graph, o.method, o.checkpoints, o.error and o.error["type"],
                  o.error and o.error["learner_step"]) for o in self.ops] + self.objectives)


class Hooks:
    """Check hooks of the untraced phase.

    They keep a sample of scored label rows, and the solves and errors that
    happen inside the harness, where the benchmark cannot see them directly.
    Each costs one Python call per wrapped call.
    """

    def __init__(self, checks):
        from tracer import Patches

        self.scores = checks.ScoreSampler()
        self.solves: list = []
        self.errors: list = []
        self._patches = Patches()

    def install(self) -> None:
        import neurocut.bench as bench
        import neurocut.circuits as circuits

        self._patches.wrap_function(circuits.cut_values, self.scores.wrap_batch(circuits.cut_values))
        self._patches.wrap_function(circuits.cut_value, self.scores.wrap_single(circuits.cut_value))
        solve, run = bench.solve_gw_sdp, bench.run_trajectory

        def timed_solve(g, *args, **kwargs):
            start = clock()
            solution = solve(g, *args, **kwargs)
            self.solves.append(Solve("harness", g, solution, clock() - start))
            return solution

        def recorded_run(method, *args, **kwargs):
            try:
                return run(method, *args, **kwargs)
            except Exception as err:
                self.errors.append({**error_record(err), "raised_by": method})
                raise

        # Only the harness's bindings: the benchmark times its own direct calls.
        self._patches.wrap_attr(bench, "solve_gw_sdp", timed_solve)
        self._patches.wrap_attr(bench, "run_trajectory", recorded_run)

    def uninstall(self) -> None:
        self._patches.undo()

    def take(self) -> tuple:
        """Solves and errors seen since the last call."""
        taken = self.solves, self.errors
        self.solves, self.errors = [], []
        return taken


# The relaxation solver's run time is chaotic in its graph and start: on a
# 2-core x86-64 VM, over 15 seeds, n=100 p=0.5 solves took 0.22-1.65 s and a
# third hit the 50*n cap;
# over 5 seeds, some n=200 p=0.5 solves converged early instead of hitting it.
# Timings over seed-drawn inputs would spread by 30-100 % from run to run, so
# the inputs of every solve that runs to the default stopping rule (desk, sdp)
# are fixed, and --seed drives the inputs whose cost does not depend on the
# draw (dense, whose solve stops after a fixed 100 iterations).
FIXED_SEED = 2022  # the harness's default base seed


class Desk:
    """ROADMAP desk job: harness graph jobs at n=100 p=0.5, four methods, 2^16 samples.

    The harness derives graph, solver start and circuit streams from one base
    seed, so every desk input is fixed: job k uses base seed FIXED_SEED + k.
    """

    name = "desk"
    round_units = 3
    samples = 2 ** 16

    def setup(self, nc, seed):
        return None, [], []

    def unit(self, nc, inputs, seed, k, hooks) -> Unit:
        cfg = nc.ExperimentConfig.desk_scale(
            er_n=(100,), er_p=(0.5,), er_graphs_per_cell=1, methods=nc.BENCH_METHODS,
            samples=self.samples, base_seed=FIXED_SEED + k, jobs=1)
        start = clock()
        result = nc.run_experiment(cfg)
        seconds = clock() - start
        solves, errors = hooks.take() if hooks else ([], [])
        m = solves[0].g.m if solves else 0
        failure = None
        if result.failures:
            failure = errors[0] if errors else {"type": "HarnessFailure", "learner_step": None}
            failure = {**failure, "message": result.failures[0][1]}
        ops = []
        for method in cfg.methods:
            rows = [r for r in result.rows if r.method == method]
            op = Op(f"desk-{k}", method, m, self.samples, rows[-1].wall_time if rows else None,
                    [(r.samples, r.best_cut) for r in rows])
            if failure is not None:
                # The harness drops every row of a job when one of its methods fails.
                op.error = failure
            ops.append(op)
        for s in solves:
            s.label = f"desk-{k}"
        gid = result.rows[0].graph_id if result.rows else result.failures[0][0]
        return Unit(ops, solves, [seconds], [result.metadata.get(f"job.{gid}.sdp_objective")])


class Dense:
    """ROADMAP heavy cell: n=500 p=0.75, gw, random and trevisan at 2^14 samples."""

    name = "dense"
    round_units = 1
    samples = 2 ** 14
    methods = ("gw", "random", "trevisan")

    def setup(self, nc, seed):
        g = nc.generate_erdos_renyi(500, 0.75, derive(seed, "dense", "graph"))
        circuit = nc.ExperimentConfig.full_scale().circuit
        start = clock()
        # The default cap of 50*n iterations takes minutes at this size.
        solution = nc.solve_gw_sdp(g, circuit.rank,
                                   nc.SolverConfig(max_iter=100, seed=derive(seed, "dense", "sdp")))
        solve = Solve("dense-setup", g, solution, clock() - start)
        return (g, solution, circuit), [g], [solve]

    def unit(self, nc, inputs, seed, k, hooks) -> Unit:
        g, solution, circuit = inputs
        ops = []
        start = clock()
        for method in self.methods:
            op = Op("dense", method, g.m, self.samples)
            t0 = clock()
            try:
                traj = nc.run_trajectory(method, g, self.samples,
                                         derive(seed, "dense", k, method),
                                         circuit, solution=solution if method == "gw" else None,
                                         graph_id="dense")
                op.checkpoints = list(traj.checkpoints)
            except Exception as err:  # a failed operation is counted, not fatal
                op.error = error_record(err)
            op.seconds = clock() - t0
            ops.append(op)
        return Unit(ops, [], [clock() - start])


class Sdp:
    """solve-sdp path with the default SolverConfig on n=200 graphs at p=0.1 and p=0.5.

    The inputs are the ROADMAP baseline's: ER seed 1 and solver seed 0, the
    solve-sdp default. The p=0.1 solve converges (2643 iterations) and the
    p=0.5 solve hits the 50*n cap.
    """

    name = "sdp"
    round_units = 1
    densities = (0.1, 0.5)

    def setup(self, nc, seed):
        graphs = [nc.generate_erdos_renyi(200, p, 1) for p in self.densities]
        return list(zip(self.densities, graphs)), graphs, []

    def _solve(self, nc, p, g) -> Solve:
        start = clock()
        solution = nc.solve_gw_sdp(g, 4, nc.SolverConfig(seed=0))
        return Solve(f"sdp-p{p}", g, solution, clock() - start)

    def unit(self, nc, inputs, seed, k, hooks) -> Unit:
        solves = [self._solve(nc, p, g) for p, g in inputs]
        return Unit([Op(s.label, "solve", s.g.m, 0, s.seconds) for s in solves], solves,
                    [s.seconds for s in solves], [s.solution.objective for s in solves])


WORKLOADS = {w.name: w for w in (Desk, Dense, Sdp)}


def _fingerprint(graphs, solves) -> str:
    """Digest of the generated graphs and set-up relaxations."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(g.edges.tobytes())
    for s in solves:
        h.update(s.solution.vectors.tobytes())
    return h.hexdigest()


def _check(checks, wl, setup_solves, units, hooks) -> tuple:
    """Runs every output check; returns (failure messages, check counts)."""
    failures = checks.Failures()
    trajectories = relaxations = 0
    for unit in [Unit([], setup_solves, [])] + units:
        for op in unit.ops:
            if op.ok and op.samples:
                checks.check_checkpoints(failures, f"{op.graph}/{op.method}", op.checkpoints,
                                         op.samples, op.m)
                trajectories += 1
        for s in unit.solves:
            checks.check_relaxation(failures, s.label, s.g, s.solution)
            relaxations += 1
    rows = hooks.scores.check(failures) if wl.name != "sdp" else 0
    for i, unit in enumerate(units[wl.round_units:], start=wl.round_units):
        failures.expect(unit.fingerprint() == units[i % wl.round_units].fingerprint(),
                        f"unit {i} differs from the same unit of the first round: "
                        "a repeat gave other trajectories or relaxations")
    return failures, {"trajectories": trajectories, "relaxations": relaxations,
                      "recounted_rows": rows}


def _rate(ops) -> float | None:
    rates = [o.samples / o.seconds for o in ops if o.ok and o.seconds]
    return statistics.median(rates) if rates else None


def _summary(wl, units, setup_solves) -> tuple:
    """End-to-end values measured here, and the workload's other figures."""
    ops = [o for u in units for o in u.ops]
    failed = [o for o in ops if not o.ok]
    solves = setup_solves + [s for u in units for s in u.solves]
    fixed = units[:wl.round_units]
    quality = setup_solves + [s for u in fixed for s in u.solves]
    end_to_end = {"sdp_objective_per_edge": statistics.fmean(s.per_edge for s in quality)}
    by = {}
    for o in ops:
        by.setdefault(o.method, []).append(o)
    extra = {
        "solve_seconds": [s.seconds for s in solves],
        "sdp_converged_share": statistics.fmean(bool(s.solution.converged) for s in solves),
        "sdp_iterations": [s.solution.iterations for s in solves],
    }
    names = {"desk": {"lif-gw": "gw", "random": "random", "lif-trevisan": "trevisan",
                      "solver-rounding": "rounding"},
             "dense": {"gw": "gw", "random": "random", "trevisan": "trevisan"}}.get(wl.name, {})
    for method, short in names.items():
        unit = "steps" if short == "trevisan" else "samples"
        extra[f"{short}_{unit}_per_s"] = _rate(by.get(method, []))
    if wl.name == "desk":
        for method, short in (("lif-gw", "gw"), ("lif-trevisan", "trevisan")):
            ratios = []
            for u in fixed:
                at = {o.method: o for o in u.ops}
                if at[method].ok and at["solver-rounding"].ok:
                    ratios.append(at[method].checkpoints[-1][1]
                                  / at["solver-rounding"].checkpoints[-1][1])
            extra[f"{short}_ratio"] = statistics.fmean(ratios) if ratios else None
    return end_to_end, extra, [{"graph": o.graph, "method": o.method, **o.error} for o in failed]


def environment() -> dict:
    import ctypes
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    start = clock()
    import neurocut as nc
    import_s = clock() - start

    wl = WORKLOADS[args.workload]()
    start = clock()
    inputs, graphs, setup_solves = wl.setup(nc, args.seed)
    inputs_s = clock() - start
    setup = {"import_s": import_s, "inputs_s": inputs_s,
             "solve_s": [s.seconds for s in setup_solves],
             "fingerprint": _fingerprint(graphs, setup_solves)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import checks

    hooks = Hooks(checks)
    hooks.install()
    try:
        # Whole rounds of the same units, so every run times the same jobs.
        units = []
        start = clock()
        while not units or len(units) % wl.round_units or clock() - start < args.seconds:
            units.append(wl.unit(nc, inputs, args.seed, len(units) % wl.round_units, hooks))
        measured_s = clock() - start
    finally:
        hooks.uninstall()
    failures, counts = _check(checks, wl, setup_solves, units, hooks)
    end_to_end, extra, op_failures = _summary(wl, units, setup_solves)

    per_layer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            start = clock()
            t_inputs, t_graphs, t_solves = wl.setup(nc, args.seed)
            traced = [wl.unit(nc, t_inputs, args.seed, k, None) for k in range(wl.round_units)]
            traced_s = clock() - start
        finally:
            tracer.uninstall()
        failures.expect(_fingerprint(t_graphs, t_solves) == setup["fingerprint"]
                        and [u.fingerprint() for u in traced]
                        == [u.fingerprint() for u in units[:wl.round_units]],
                        "traced replay differs from the untraced run")
        # Untraced time of the same work: set-up plus the same units.
        untraced_s = inputs_s + sum(sum(u.job_seconds) for u in units[:wl.round_units])
        per_layer = tracer.metrics(untraced_s, traced_s)
        sampled = sum(o.seconds or 0.0 for u in traced for o in u.ops
                      if o.method not in ("lif-trevisan", "trevisan", "solve"))
        if sampled:
            extra["traced_cut_values_share_of_sampling"] = per_layer["graphs.cut_values.s"] / sampled
        if args.spans:
            tracer.write(args.spans)

    ops = [o for u in units for o in u.ops]
    result = {
        "setup": setup,
        "workload": wl.name,
        "units": len(units),
        "round_units": wl.round_units,
        "measured_s": measured_s,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o.ok),
        "failures": op_failures,
        "end_to_end": end_to_end,
        "job_seconds": [u.job_seconds for u in units],
        "fingerprints": [u.fingerprint() for u in units],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "extra": extra,
        "per_layer": per_layer,
        "checks": counts,
        "check_failures": list(failures),
        "env": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
