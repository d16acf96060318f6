"""Output checks that run inside every benchmark run.

The cut recount here is written against the edge list with XOR on label bits;
it shares no code with ``neurocut.graphs.cut_values``, which it checks.
"""

from __future__ import annotations

import numpy as np

# Scored rows kept per cut_values call: enough to catch a wrong scorer, small
# enough that keeping them costs nothing next to the scoring itself.
_ROWS_PER_CALL = 2


class Failures(list):
    """Messages of failed checks; the run is correct when this stays empty."""

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def xor_cut_values(edges: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-edge recount: a cut edge joins a +1 vertex to a non-+1 vertex."""
    bits = np.atleast_2d(labels) > 0
    counts = np.zeros(bits.shape[0], dtype=np.int64)
    for start in range(0, edges.shape[0], 8192):
        chunk = edges[start:start + 8192]
        counts += np.count_nonzero(bits[:, chunk[:, 0]] ^ bits[:, chunk[:, 1]], axis=1)
    return counts


class ScoreSampler:
    """Keeps a few (graph, labels, values) triples from the scoring calls it wraps."""

    def __init__(self):
        self.samples: list = []

    def wrap_batch(self, fn):
        def cut_values(g, labels):
            values = fn(g, labels)
            rows = np.linspace(0, labels.shape[0] - 1, _ROWS_PER_CALL).astype(int)
            self.samples.append((g, np.array(labels[rows]), np.array(values[rows])))
            return values
        return cut_values

    def wrap_single(self, fn):
        def cut_value(g, labels):
            value = fn(g, labels)
            self.samples.append((g, np.array(labels)[None, :], np.array([value])))
            return value
        return cut_value

    def check(self, failures: Failures) -> int:
        """Recounts every kept row; returns the number of rows checked."""
        failures.expect(bool(self.samples), "no scored label rows were captured")
        rows = 0
        for g, labels, values in self.samples:
            expected = xor_cut_values(g.edges, labels)
            rows += labels.shape[0]
            failures.expect(np.array_equal(np.asarray(values, dtype=np.int64), expected),
                            f"cut scores {values.tolist()} differ from the per-edge recount "
                            f"{expected.tolist()} on a graph with m={g.m}")
        return rows


def check_checkpoints(failures: Failures, label: str, checkpoints, total: int, m: int) -> None:
    """Schedule is 1, 2, 4, ... <= total; best cuts never drop and never exceed m."""
    import neurocut as nc

    samples = [s for s, _ in checkpoints]
    best = [b for _, b in checkpoints]
    powers = [1 << k for k in range(total.bit_length()) if (1 << k) <= total]
    failures.expect(samples == powers == nc.checkpoint_schedule(total),
                    f"{label}: checkpoints {samples} do not follow the schedule {powers}")
    failures.expect(all(a <= b for a, b in zip(best, best[1:])),
                    f"{label}: best cut decreases along {best}")
    failures.expect(all(0 <= b <= m for b in best),
                    f"{label}: best cut outside [0, {m}] in {best}")


def check_relaxation(failures: Failures, label: str, g, solution) -> None:
    """Unit-norm rows; the stored objective matches sdp_objective and an edge recount."""
    import neurocut as nc

    w = np.asarray(solution.vectors, dtype=float)
    norms = np.linalg.norm(w, axis=1)
    failures.expect(w.shape[0] == g.n and bool(np.all(np.abs(norms - 1.0) <= 1e-10)),
                    f"{label}: relaxation rows are not unit-norm "
                    f"(max |norm - 1| = {float(np.max(np.abs(norms - 1.0))):.3e})")
    stored = float(solution.objective)
    tol = 1e-9 * max(1.0, abs(stored))
    recomputed = nc.sdp_objective(g, solution)
    failures.expect(abs(recomputed - stored) <= tol,
                    f"{label}: stored objective {stored!r} != sdp_objective {recomputed!r}")
    u, v = g.edges[:, 0], g.edges[:, 1]
    recount = 0.5 * float(np.sum(1.0 - np.sum(w[u] * w[v], axis=1)))
    failures.expect(abs(recount - stored) <= tol,
                    f"{label}: stored objective {stored!r} != edge recount {recount!r}")
