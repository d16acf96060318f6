"""Command-line front end.

Exit codes: 0 success, 1 input error (bad flags, unreadable or malformed
files, out-of-range parameters), 2 numerical failure (diverged learning).
"""

from __future__ import annotations

import argparse
import io
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import fields, replace

from . import __version__
from .bench import _key_parsers, parse_config_file, run_experiment, summarize
from .circuits import METHODS, CircuitConfig, run_trajectory
from .graphs import cut_value, generate_erdos_renyi, load_graph, save_graph
from .oracles import brute_force_maxcut, spectral_cut
from .plasticity import NumericalDivergenceError
from .sdp import SolverConfig, format_solution, solve_gw_sdp
from .seeding import RNG_ALGORITHM

EXIT_OK, EXIT_INPUT, EXIT_NUMERIC = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="neurocut", description="Stochastic LIF circuits for MAXCUT")
    parser.add_argument("--version", action="version",
                        version=f"neurocut {__version__} (rng={RNG_ALGORITHM})")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-er", help="generate an Erdos-Renyi graph")
    p.add_argument("-n", type=int, required=True, help="vertex count")
    p.add_argument("-p", type=float, required=True, help="edge probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["matrix-market", "edge-list"], default="matrix-market")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("solve-sdp", help="solve the low-rank cut relaxation")
    p.add_argument("graph", help="graph file")
    _config_flags(p, CircuitConfig, ("rank",))
    _config_flags(p, SolverConfig)
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("run", help="sample cuts with one method and report checkpoints")
    p.add_argument("graph", help="graph file")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    _config_flags(p, CircuitConfig)
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("exact", help="exact optimum by enumeration (small graphs)")
    p.add_argument("graph", help="graph file")

    p = sub.add_parser("spectral", help="minimum-eigenvector cut")
    p.add_argument("graph", help="graph file")

    p = sub.add_parser("bench", help="run a benchmark config file")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--out-dir", help="override the config out_dir")
    p.add_argument("--jobs", type=int, help="override worker process count")
    return parser


def _config_flags(p, cls, names=None) -> None:
    """One flag per field of cls (or per name in names), parsed as its config key would be."""
    parsers, defaults = _key_parsers(cls), cls()
    for name in names or parsers:
        p.add_argument("--" + name.replace("_", "-"), type=parsers[name],
                       default=getattr(defaults, name))


@contextmanager
def _output(args):
    """The --out file, written once the command succeeds, or stdout.

    Commands enter it before their work. A regular or missing --out is
    opened for appending, which writes nothing, so a path that cannot be
    written fails before a solve or a trajectory is paid for. The output is
    held in memory and written over --out only on success, so a failed
    command leaves --out as it was and removes an --out it created. Any
    other --out (a device, a FIFO, a pipe) is opened once for writing.
    """
    # an empty --out is a path open() rejects, not a request for stdout
    if args.out is None:
        yield sys.stdout
        return
    try:
        regular, existed = stat.S_ISREG(os.stat(args.out).st_mode), True
    except FileNotFoundError:
        regular, existed = True, False
    if not regular:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
        return
    open(args.out, "a", encoding="utf-8").close()
    buf = io.StringIO()
    try:
        yield buf
    except BaseException:
        if not existed:
            # a dangling symlink keeps its link; the file the probe made goes
            os.remove(os.path.realpath(args.out))
        raise
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def _labels_line(labels) -> str:
    return "labels " + " ".join(str(int(v)) for v in labels)


def cmd_gen_er(args) -> int:
    g = generate_erdos_renyi(args.n, args.p, args.seed)
    with _output(args) as out:
        save_graph(g, out, args.format)
    return EXIT_OK


def cmd_solve_sdp(args) -> int:
    g = load_graph(args.graph)
    cfg = SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})
    with _output(args) as out:
        sol = solve_gw_sdp(g, args.rank, cfg)
        if not sol.converged:
            print(f"warning: not converged (grad_norm={sol.grad_norm:.3e} "
                  f"after {sol.iterations} iterations)", file=sys.stderr)
        out.write(format_solution(sol))
    return EXIT_OK


def cmd_run(args) -> int:
    g = load_graph(args.graph)
    circuit = CircuitConfig(**{f.name: getattr(args, f.name) for f in fields(CircuitConfig)})
    with _output(args) as out:
        traj = run_trajectory(args.method, g, args.samples, args.seed, circuit,
                              graph_id=args.graph)
        lines = [f"# method={args.method} seed={args.seed} samples={args.samples}"]
        lines += [f"{s} {best}" for s, best in traj.checkpoints]
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_exact(args) -> int:
    result = brute_force_maxcut(load_graph(args.graph))
    sys.stdout.write(f"opt {result.value}\n{_labels_line(result.labels)}\n")
    return EXIT_OK


def cmd_spectral(args) -> int:
    g = load_graph(args.graph)
    result = spectral_cut(g)
    sys.stdout.write(f"cut {cut_value(g, result.labels)}\n"
                     f"{_labels_line(result.labels)}\n"
                     f"degenerate {int(result.degenerate)}\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    overrides = {name: getattr(args, name) for name in ("out_dir", "jobs")
                 if getattr(args, name) is not None}
    result = run_experiment(replace(parse_config_file(args.config), **overrides))
    for gid, message in result.failures:
        print(f"failed {gid}: {message}", file=sys.stderr)
    summary = summarize(result.rows)
    for row in summary.grid:
        sem = "-" if row.sem is None else f"{row.sem:.4f}"
        sys.stdout.write(f"n={row.n} p={row.p} {row.method} samples={row.samples} "
                         f"ratio={row.mean_ratio:.4f} sem={sem}\n")
    for frow in summary.files:
        sys.stdout.write(f"{frow.graph_id} {frow.method} best={frow.best_cut}\n")
    return EXIT_OK


_HANDLERS = {
    "gen-er": cmd_gen_er,
    "solve-sdp": cmd_solve_sdp,
    "run": cmd_run,
    "exact": cmd_exact,
    "spectral": cmd_spectral,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and --version
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except NumericalDivergenceError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
