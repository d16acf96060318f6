"""The names the benchmark in perfbench/ rebinds or reads must exist where it looks.

Its traced run wraps every callable in perfbench/tracer.py TARGETS, the
desk workload's check hooks rebind four module attributes of the harness, and
its workloads build SolverConfig objects and read SdpSolution fields. A
renamed or deleted name would otherwise only show up when the benchmark runs.
"""

import ast
import importlib
import sys
import types
from collections import Counter
from dataclasses import fields
from pathlib import Path

import neurocut.bench as bench
import neurocut.circuits as circuits
from neurocut import (BENCH_METHODS, ExperimentConfig, LifPopulation, OjaState, SdpSolution,
                      SolverConfig, TrevisanCircuit, generate_erdos_renyi, run_experiment)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOAD = PERFBENCH / "workload.py"

# (module, attribute) pairs the desk hooks rebind
DESK_HOOKS = ((bench, "solve_gw_sdp"), (bench, "run_trajectory"),
              (circuits, "cut_value"), (circuits, "cut_values"))


def _load_tracer(monkeypatch):
    """Executes tracer.py in a fresh module; nothing is written under perfbench/."""
    module = types.ModuleType("perfbench_tracer")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclasses look it up
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module


def test_tracer_targets_resolve(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.TARGETS
    for t in tracer.TARGETS:
        module = importlib.import_module(t.module)
        owner = module if t.cls is None else getattr(module, t.cls)
        assert callable(vars(owner).get(t.attr)), f"{t.name}: {t.module} {t.cls} {t.attr}"


def test_harness_calls_through_desk_hook_bindings(monkeypatch):
    calls = Counter()
    for owner, name in DESK_HOOKS:
        original = getattr(owner, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    result = run_experiment(ExperimentConfig(er_n=(10,), er_p=(0.5,), er_graphs_per_cell=1,
                                             samples=8, methods=BENCH_METHODS, custom_grid=True))
    assert not result.failures
    assert all(calls[name] for _, name in DESK_HOOKS), calls


def test_learner_calls_through_traced_class_attributes(monkeypatch):
    # the tracer times the learner's layers by wrapping these two class
    # attributes, so a block must reach both through them
    calls = Counter()
    for owner, name in ((LifPopulation, "step"), (OjaState, "update")):
        original = vars(owner)[name]

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    TrevisanCircuit(generate_erdos_renyi(10, 0.5, 1), seed=3).run_steps(5000)
    assert calls["step"] == calls["update"] >= 1


def test_workload_solver_keywords_are_fields():
    tree = ast.parse(WORKLOAD.read_text(encoding="utf-8"), str(WORKLOAD))
    keywords = [kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "SolverConfig"
                for kw in node.keywords]
    assert keywords
    assert set(keywords) <= {f.name for f in fields(SolverConfig)}


def test_solution_keeps_fields_the_benchmark_reads():
    assert {"vectors", "objective", "converged", "iterations"} <= {f.name for f in fields(SdpSolution)}
