#!/usr/bin/env python3
"""neurocut benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload desk|dense|sdp --seed N --seconds S --trace 0|1

Each workload runs in processes of its own, so its peak RSS is its own.
Three fresh processes each import neurocut from ./src and build the
workload's inputs; setup_s is the median of these set-ups. Two of them then
measure whole rounds of the workload's fixed units, at least one round each,
more while --seconds have not passed. On a shared 2-core x86-64 VM one
process ran the same solve up to a third faster than another, so each job's
time is its best over the two processes. With --trace 0 the
last stdout line carries the end-to-end metrics of BENCHMARK.json; with
--trace 1 it carries the per-layer metrics of a traced replay of set-up and
one round in the second process. Lines above it report every metric by name
and unit, the workload's other figures, the failures and the environment.
The full record goes to perfbench/results/.

Exit status 0 when every output check passed, 1 when a check failed (the
result line still says correct: false) or a workload process failed, and 2
when ./src/neurocut is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE_TIMEOUT_S = 25
RUN_TIMEOUT_S = 70


def _child(args: list, env: dict, timeout: float) -> dict:
    """Runs workload.py and returns the JSON object on its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def job_s(runs: list) -> float:
    """Each job's best time over all rounds of all processes, averaged over a round's jobs.

    Every round holds the same jobs in the same order.
    """
    rounds = []
    for r in runs:
        size = r["round_units"]
        units = r["job_seconds"]
        for i in range(0, len(units), size):
            rounds.append([t for unit in units[i:i + size] for t in unit])
    return statistics.fmean(map(min, zip(*rounds)))


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "neurocut" / "__init__.py").is_file():
        print(f"error: {root / 'src' / 'neurocut'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # One BLAS thread: where cores are shared with other machines, a BLAS call
    # that has to wait for a second, descheduled core makes timings less steady.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = common + ["--seconds", str(args.seconds / 2)]
    try:
        probe = _child(common + ["--setup-only"], env, PROBE_TIMEOUT_S)
        runs = [_child(measure + ["--trace", "0"], env, RUN_TIMEOUT_S),
                _child(measure + ["--trace", str(args.trace), "--spans",
                                  str(out_dir / f"{stem}-spans.jsonl")], env, RUN_TIMEOUT_S)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    run = runs[-1]
    setups = [probe] + [r["setup"] for r in runs]

    check_failures = [m for r in runs for m in r["check_failures"]]
    if len({s["fingerprint"] for s in setups}) != 1:
        check_failures.append("repeated set-ups built different inputs")
    if len({json.dumps(r["fingerprints"][:r["round_units"]]) for r in runs}) != 1:
        check_failures.append("the two measuring processes got different trajectories, "
                              "failures or relaxations")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    measured = dict(run["end_to_end"])
    measured["setup_s"] = statistics.median(s["import_s"] + s["inputs_s"] for s in setups)
    measured["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    measured["ok_share"] = 1.0 - failed / attempted
    measured["job_s"] = job_s(runs)
    extra = run["extra"]
    extra["fail_share"] = failed / attempted
    # A mean, not a median: desk's three solves differ in length, so their
    # median would be the time of one short solve.
    extra["sdp_solve_s"] = statistics.fmean(
        [t for r in runs for t in r["extra"].pop("solve_seconds")] + probe["solve_s"])

    if args.trace:
        specs, values = spec["per_layer"], run["per_layer"]
    else:
        specs, values = spec["end_to_end"], measured
    metrics = {}
    for m in specs:
        if values.get(m["name"]) is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    env_line = " ".join(f"{k}={v}" for k, v in run["env"].items())
    units = " + ".join(f"{r['units']} units in {r['measured_s']:.3f} s" for r in runs)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {units}")
    print(f"env {env_line}")
    for m in specs:
        direction = f" [{m['better']}]" if "better" in m else ""
        print(f"metric {m['name']} = {_fmt(metrics[m['name']]['value'])} {m['unit']}{direction}")
    if args.trace:
        for name, value in sorted(measured.items()):
            print(f"untraced {name} = {_fmt(value)}")
    for name, value in extra.items():
        print(f"figure {name} = {_fmt(value)}")
    print(f"operations attempted {attempted} failed {failed}")
    for f in (f for r in runs for f in r["failures"]):
        print(f"failure {f['graph']}/{f['method']}: {f['type']} at learner step "
              f"{f['learner_step']}: {f['message']}")
    counts = " ".join(f"{k}={sum(r['checks'][k] for r in runs)}" for k in run["checks"])
    print(f"checks {'passed' if not check_failures else 'FAILED'}: {counts} set-ups={len(setups)}")
    for message in check_failures:
        print(f"check failed: {message}")

    record = {"args": vars(args), "setups": setups, "measured": measured, "figures": extra,
              "runs": runs, "check_failures": check_failures}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    correct = not check_failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
