"""The names the benchmark in perfbench/ rebinds or reads must exist where it looks.

Its traced run wraps every callable in perfbench/tracer.py TARGETS, the
desk workload's check hooks rebind four module attributes of the harness, and
its workloads and checks read package names, method names and config fields,
build SolverConfig objects and read SdpSolution fields. A renamed or deleted
name would otherwise only show up when the benchmark runs.
"""

import ast
import importlib
import inspect
import sys
import types
from collections import Counter
from dataclasses import fields
from pathlib import Path

import neurocut
import neurocut.bench as bench
import neurocut.circuits as circuits
from neurocut import (BENCH_METHODS, CircuitConfig, DevicePool, ExperimentConfig, LifPopulation,
                      OjaState, SdpSolution, SolverConfig, TrevisanCircuit, generate_erdos_renyi,
                      run_experiment)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOAD = PERFBENCH / "workload.py"
CHECKS = PERFBENCH / "checks.py"

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
    # the tracer times the learner's layers by wrapping these three class
    # attributes, so a block must reach each through them
    calls = Counter()
    for owner, name in ((DevicePool, "sample_steps"), (LifPopulation, "step"),
                        (OjaState, "update")):
        original = vars(owner)[name]

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    TrevisanCircuit(generate_erdos_renyi(10, 0.5, 1), seed=3).run_steps(5000)
    assert calls["sample_steps"] == calls["step"] == calls["update"] >= 1


def test_workload_solver_keywords_are_fields():
    tree = ast.parse(WORKLOAD.read_text(encoding="utf-8"), str(WORKLOAD))
    keywords = [kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "SolverConfig"
                for kw in node.keywords]
    assert keywords
    assert set(keywords) <= {f.name for f in fields(SolverConfig)}


def test_solution_keeps_fields_the_benchmark_reads():
    assert {"vectors", "objective", "converged", "iterations"} <= {f.name for f in fields(SdpSolution)}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _named(tree, kind, name):
    node, = [n for n in ast.walk(tree) if isinstance(n, kind) and n.name == name]
    return node


def test_workload_names_exist_in_the_package():
    workload = _tree(WORKLOAD)
    # nc.X and nc.X.Y, as the workloads and checks read them off the package
    reads = set()
    for tree in (workload, _tree(CHECKS)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "nc":
                reads.add((node.attr,))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                    and isinstance(node.value.value, ast.Name) and node.value.value.id == "nc":
                reads.add((node.value.attr, node.attr))
    assert ("run_trajectory",) in reads and ("ExperimentConfig", "full_scale") in reads
    for path in reads:
        owner = neurocut
        for name in path:
            assert hasattr(owner, name), "nc." + ".".join(path)
            owner = getattr(owner, name)

    # the dense workload's methods and its run_trajectory call
    dense = _named(workload, ast.ClassDef, "Dense")
    methods, = [ast.literal_eval(n.value) for n in dense.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "methods" for t in n.targets)]
    assert set(methods) <= set(circuits.METHODS)
    call, = [n for n in ast.walk(dense) if isinstance(n, ast.Call)
             and getattr(n.func, "attr", None) == "run_trajectory"]
    assert {kw.arg for kw in call.keywords} == {"solution", "graph_id"}
    inspect.signature(circuits.run_trajectory).bind(*call.args, **{kw.arg: kw.value
                                                                   for kw in call.keywords})
    # the circuit fields it reads off full_scale().circuit
    fields_read = {n.attr for n in ast.walk(dense) if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id == "circuit"}
    assert "rank" in fields_read
    assert fields_read <= {f.name for f in fields(CircuitConfig)}

    # the desk method names the summary maps, and every lif-* name the file holds
    summary = _named(workload, ast.FunctionDef, "_summary")
    desk, = [v for n in ast.walk(summary) if isinstance(n, ast.Dict)
             for k, v in zip(n.keys, n.values) if getattr(k, "value", None) == "desk"]
    desk_names = {ast.literal_eval(k) for k in desk.keys}
    lif_names = {n.value for n in ast.walk(workload) if isinstance(n, ast.Constant)
                 and isinstance(n.value, str) and n.value.startswith("lif-")}
    assert "solver-rounding" in desk_names and lif_names
    assert desk_names | lif_names <= set(BENCH_METHODS)
