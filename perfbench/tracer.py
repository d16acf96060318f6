"""Spans and counters around the calls into each neurocut layer.

The traced run wraps public callables at every module attribute and class
attribute that binds them, so a name imported by value (``circuits.cut_values``,
``bench.solve_gw_sdp``) is timed where it is called from. Each wrapped call
records one span (name, start, end, parent) in memory. The per-step callables
of the learner loop fire once per sample, so they only accumulate time and a
call count, charged to the enclosing span as child time.

A layer's self time is the time its spans and accumulators cover minus the
part covered by their children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("graphs", "devices", "lif", "plasticity", "circuits", "sdp", "oracles", "bench")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Patches:
    """Replaces a callable at every binding and puts the originals back on undo."""

    def __init__(self):
        self._undo = []

    def wrap_function(self, original, wrapper) -> None:
        """Rebinds every neurocut module attribute that holds original."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "neurocut" or mod_name.startswith("neurocut.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def wrap_attr(self, owner, attr, wrapper) -> None:
        """Rebinds one attribute of a class or module."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@dataclass(frozen=True)
class Target:
    """One traced callable: a module function, or a method when cls is set."""

    name: str            # span name, "<layer>.<call>"
    module: str
    attr: str
    cls: str | None = None
    per_step: bool = False
    count: object = None  # count(counters, args, kwargs, result) -> None
    errors: str | None = None  # counter of the RuntimeErrors the call raises


def _count_cut_values(c, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    rows = int(_arg(args, kwargs, 1, "labels").shape[0])
    c["graphs.cut_values.rows"] += rows
    c["graphs.cut_values.edge_rows"] += rows * g.m


def _count_draws(c, args, kwargs, result):
    pool = args[0]
    c["devices.draws"] += int(_arg(args, kwargs, 1, "steps")) * pool.count


def _count_epochs(c, args, kwargs, result):
    c["circuits.epochs"] += int(_arg(args, kwargs, 1, "count"))


def _count_solve(c, args, kwargs, result):
    c["sdp.solves"] += 1
    c["sdp.iterations"] += int(result.iterations or 0)
    c["sdp.converged"] += int(bool(result.converged))


def _count_rounds(c, args, kwargs, result):
    c["oracles.rounds.rows"] += int(_arg(args, kwargs, 1, "count"))


def _count_experiment(c, args, kwargs, result):
    failed = {gid for gid, _ in result.failures}
    c["bench.jobs"] += len({r.graph_id for r in result.rows} | failed)
    c["bench.failed_jobs"] += len(failed)


TARGETS = (
    Target("graphs.generate_erdos_renyi", "neurocut.graphs", "generate_erdos_renyi"),
    Target("graphs.trevisan_matrix", "neurocut.graphs", "trevisan_matrix"),
    Target("graphs.cut_values", "neurocut.graphs", "cut_values", count=_count_cut_values),
    Target("graphs.cut_value", "neurocut.graphs", "cut_value"),
    Target("devices.sample_steps", "neurocut.devices", "sample_steps", cls="DevicePool",
           per_step=True, count=_count_draws),
    Target("lif.step", "neurocut.lif", "step", cls="LifPopulation", per_step=True),
    Target("plasticity.update", "neurocut.plasticity", "update", cls="OjaState", per_step=True,
           errors="plasticity.diverged"),
    Target("circuits.gw_init", "neurocut.circuits", "__init__", cls="GwCircuit"),
    Target("circuits.epoch_membranes", "neurocut.circuits", "epoch_membranes", cls="GwCircuit",
           count=_count_epochs),
    Target("circuits.trevisan_init", "neurocut.circuits", "__init__", cls="TrevisanCircuit"),
    Target("circuits.run_steps", "neurocut.circuits", "run_steps", cls="TrevisanCircuit"),
    Target("circuits.trajectory_from_sampler", "neurocut.circuits", "trajectory_from_sampler"),
    Target("circuits.run_trajectory", "neurocut.circuits", "run_trajectory"),
    Target("sdp.solve_gw_sdp", "neurocut.sdp", "solve_gw_sdp", count=_count_solve),
    Target("oracles.reference_hyperplane_rounds", "neurocut.oracles",
           "reference_hyperplane_rounds", count=_count_rounds),
    Target("bench.run_experiment", "neurocut.bench", "run_experiment", count=_count_experiment),
)

# Work counts, reported even when a workload never reaches the layer.
COUNTERS = ("graphs.cut_values.rows", "graphs.cut_values.edge_rows", "devices.draws",
            "plasticity.diverged", "circuits.epochs", "sdp.iterations", "sdp.solves",
            "sdp.converged", "oracles.rounds.rows", "bench.jobs", "bench.failed_jobs")


class Tracer:
    """Collects spans and per-step accumulators while installed."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index or -1]
        self.child_s: list = []      # seconds of each span covered by its children
        self.per_step: dict = {}     # name -> [seconds, calls]
        self.counters: Counter = Counter()
        self._stack: list = []
        self._patches = Patches()

    def install(self) -> None:
        for t in TARGETS:
            module = sys.modules[t.module]
            if t.cls is None:
                original = getattr(module, t.attr)
                self._patches.wrap_function(original, self._wrap(t, original))
            else:
                cls = getattr(module, t.cls)
                self._patches.wrap_attr(cls, t.attr, self._wrap(t, vars(cls)[t.attr]))

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, target: Target, fn):
        spans, child_s, stack, counters = self.spans, self.child_s, self._stack, self.counters
        name, count, errors = target.name, target.count, target.errors
        clock = time.perf_counter

        if target.per_step:
            slot = self.per_step.setdefault(name, [0.0, 0])

            def per_step(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except RuntimeError:
                    if errors:
                        counters[errors] += 1
                    raise
                finally:
                    elapsed = clock() - start
                    slot[0] += elapsed
                    slot[1] += 1
                    if stack:
                        child_s[stack[-1]] += elapsed
                if count is not None:
                    count(counters, args, kwargs, result)
                return result

            return per_step

        def span(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [name, clock(), 0.0, parent]
            spans.append(record)
            child_s.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if parent >= 0:
                    child_s[parent] += record[2] - record[1]
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return span

    def _total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def _self(self, name: str) -> float:
        return sum(s[2] - s[1] - self.child_s[i] for i, s in enumerate(self.spans) if s[0] == name)

    def metrics(self, untraced_s: float, traced_s: float) -> dict:
        """Per-layer times, counts and the tracing overhead, by metric name."""
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            layer_self[name.split(".")[0]] += end - start - self.child_s[i]
        for name, (seconds, _) in self.per_step.items():
            layer_self[name.split(".")[0]] += seconds
        step = {name: self.per_step.get(name, [0.0, 0])
                for name in ("devices.sample_steps", "lif.step", "plasticity.update")}
        values = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        values.update({
            "graphs.cut_values.s": self._total("graphs.cut_values"),
            "graphs.generate_erdos_renyi.s": self._total("graphs.generate_erdos_renyi"),
            "graphs.trevisan_matrix.s": self._total("graphs.trevisan_matrix"),
            "devices.sample_steps.s": step["devices.sample_steps"][0],
            "lif.step.s": step["lif.step"][0],
            "lif.step.calls": step["lif.step"][1],
            "plasticity.update.s": step["plasticity.update"][0],
            "plasticity.update.calls": step["plasticity.update"][1],
            "circuits.epoch_membranes.s": self._total("circuits.epoch_membranes"),
            "circuits.run_steps.self_s": self._self("circuits.run_steps"),
            "circuits.trajectory.self_s": (self._self("circuits.run_trajectory")
                                           + self._self("circuits.trajectory_from_sampler")),
            "sdp.solve.s": self._total("sdp.solve_gw_sdp"),
            "oracles.rounds.s": self._total("oracles.reference_hyperplane_rounds"),
            "bench.job.s": self._total("bench.run_experiment"),
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.spans": len(self.spans),
        })
        values.update((name, self.counters[name]) for name in COUNTERS)
        return values

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in seconds, parent index, self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end,
                                     "parent": parent,
                                     "self_s": end - start - self.child_s[i]}) + "\n")
            for name, (seconds, calls) in self.per_step.items():
                fh.write(json.dumps({"name": name, "per_step": True, "seconds": seconds,
                                     "calls": calls}) + "\n")
