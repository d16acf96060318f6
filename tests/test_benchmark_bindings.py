"""The names the benchmark in perfbench/ rebinds must exist where it looks.

Its traced run wraps every callable in perfbench/tracer.py TARGETS, and the
desk workload's check hooks rebind four module attributes of the harness. A
renamed or deleted target would otherwise only show up in a traced run.
"""

import importlib
import sys
import types
from collections import Counter
from pathlib import Path

import neurocut.bench as bench
import neurocut.circuits as circuits
from neurocut import BENCH_METHODS, ExperimentConfig, run_experiment

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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
