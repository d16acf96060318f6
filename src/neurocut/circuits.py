"""The two device-driven cut circuits and checkpointed sampling trajectories.

GwCircuit threads device noise through leaky integrators whose weights are the
rows of a solved low-rank relaxation; every epoch of integration realizes one
hyperplane rounding, read off the membrane signs. TrevisanCircuit runs the
integrators free with I + normalized-adjacency weights and trains an
anti-Hebbian weight vector on the membranes; its sign pattern approaches the
minimum-eigenvector cut.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .devices import DevicePool
from .graphs import Graph, cut_value, cut_values, trevisan_matrix
from .lif import LifPopulation
from .plasticity import OjaState
from .sdp import SdpSolution, SolverConfig, solve_gw_sdp
from .seeding import derive_seed

_BATCH = 4096

METHODS = ("gw", "trevisan", "random")


@dataclass(frozen=True)
class CircuitConfig:
    """Circuit constants shared by both circuits and the benchmark harness."""

    alpha: float = 0.05          # leak factor dt/(R C) per step
    dt: float = 1.0
    capacitance: float = 1.0
    threshold: float = 0.0
    epoch_steps: int = 100       # integration steps per GW sample
    gw_weight_scale: float = 1.0
    trevisan_weight_scale: float = 1.0
    eta0: float = 5e-3
    tau: float = 1e5
    rank: int = 4
    sdp_tol: float = 1e-6
    sdp_max_iter: int | None = None


class GwCircuit:
    """Rounding sampler: device pool -> LIF population with relaxation rows as weights.

    Each sample resets the membranes, integrates epoch_steps fresh ±1 device
    draws, and thresholds the membrane signs into a cut. Over an epoch the
    membrane covariance is proportional to the Gram matrix of the relaxation
    vectors, so the sign reads reproduce hyperplane-rounding statistics.
    """

    def __init__(self, graph: Graph, solution: SdpSolution, seed: int,
                 config: CircuitConfig = CircuitConfig()):
        if solution.vectors.shape[0] != graph.n:
            raise ValueError("solution size does not match the graph")
        if config.epoch_steps < 1:
            raise ValueError("epoch_steps must be positive")
        self.graph = graph
        self.solution = solution
        self.config = config
        self.seed = int(seed)
        self.pool = DevicePool(solution.rank, seed=seed)
        self.pop = LifPopulation(config.gw_weight_scale * solution.vectors,
                                 alpha=config.alpha, C=config.capacitance, dt=config.dt)
        k = config.epoch_steps
        q = 1.0 - self.pop.alpha
        # closed-form weight of draw j in the end-of-epoch membrane, j = 0..k-1
        self._decay = (config.dt / config.capacitance) * q ** np.arange(k - 1, -1, -1)

    def epoch_membranes(self, count: int) -> np.ndarray:
        """(count, n) end-of-epoch membrane vectors, one reset epoch per row."""
        k = self.config.epoch_steps
        out = np.empty((count, self.graph.n))
        done = 0
        while done < count:
            b = min(_BATCH, count - done)
            states = self.pool.sample_steps(b * k).reshape(b, k, self.pool.count)
            drive = np.einsum("k,bkr->br", self._decay, states)
            out[done:done + b] = drive @ self.pop.weights.T
            done += b
        return out

    def sample_cuts(self, count: int) -> np.ndarray:
        """(count, n) array of ±1 labels, one independent epoch per row."""
        v = self.epoch_membranes(count)
        return np.where(v > self.config.threshold, 1, -1).astype(np.int8)


class TrevisanCircuit:
    """Spectral-cut learner: free-running LIF stage feeding an anti-Hebbian vector.

    Stage-one weights are c * (I + normalized adjacency), so the stationary
    membrane covariance is proportional to the square of that matrix, which
    shares its eigenvectors and in particular its minimum one. Membranes are
    fed to the learner scaled by 1/(c sqrt(kappa)) to undo the stationary
    variance factor. The cut is the sign pattern of the learned vector.
    """

    def __init__(self, graph: Graph, seed: int, config: CircuitConfig = CircuitConfig()):
        self.graph = graph
        self.config = config
        self.seed = int(seed)
        tm = trevisan_matrix(graph)
        self.pool = DevicePool(graph.n, seed=derive_seed(seed, "devices"))
        self.pop = LifPopulation(config.trevisan_weight_scale * tm.matrix,
                                 alpha=config.alpha, C=config.capacitance, dt=config.dt)
        rng = np.random.default_rng(derive_seed(seed, "oja-init"))
        scale = 1.0 / (config.trevisan_weight_scale * np.sqrt(self.pop.kappa))
        self.oja = OjaState.spherical_init(
            graph.n, rng, eta0=config.eta0, tau=config.tau, input_scale=scale)

    @property
    def steps_taken(self) -> int:
        return self.oja.t

    def step(self) -> None:
        """One device draw, one membrane update, one plasticity update."""
        with np.errstate(over="ignore", invalid="ignore"):
            self.oja.update(self.pop.step(self.pool.sample_step()))

    def run_steps(self, count: int) -> None:
        if count < 1:
            raise ValueError("count must be positive")
        pop_step = self.pop.step
        oja_update = self.oja.update
        done = 0
        # A diverging learner overflows before OjaState.update raises
        # NumericalDivergenceError, which is the report, so the transient IEEE
        # warnings are dropped; the state is entered once per call, not per step.
        with np.errstate(over="ignore", invalid="ignore"):
            while done < count:
                b = min(_BATCH, count - done)
                states = self.pool.sample_steps(b)
                for s in states:
                    oja_update(pop_step(s))
                done += b

    def read_cut(self) -> np.ndarray:
        """±1 labels from the learned vector: +1 where w_i > 0, ties to -1."""
        return np.where(self.oja.w > 0, 1, -1).astype(np.int8)


@dataclass
class CutTrajectory:
    """Best-so-far cut sizes recorded at power-of-two sample counts.

    checkpoints holds (samples, best_cut) pairs; wall_times holds cumulative
    seconds at each checkpoint and is diagnostic only (everything else is
    bit-reproducible for a fixed graph, method, seed and config).
    """

    graph_id: str
    method: str
    seed: int
    checkpoints: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)

    @property
    def final_best(self) -> int:
        return self.checkpoints[-1][1]


def checkpoint_schedule(total_samples: int) -> list:
    """Powers of two up to the sample budget: 1, 2, 4, ..., <= total_samples."""
    if total_samples < 1:
        raise ValueError("total_samples must be positive")
    return [1 << k for k in range(total_samples.bit_length()) if (1 << k) <= total_samples]


def checkpoint_trajectory(best_of, total_samples: int, method: str, seed: int,
                          graph_id: str = "", t0: float | None = None) -> CutTrajectory:
    """Record the best cut so far at each checkpoint of the sample budget.

    best_of(count) returns the best cut over the next count samples. Wall
    times count from t0, or from this call when t0 is None.
    """
    if t0 is None:
        t0 = time.perf_counter()
    traj = CutTrajectory(graph_id, method, int(seed))
    best = -1
    done = 0
    for cp in checkpoint_schedule(total_samples):
        best = max(best, best_of(cp - done))
        done = cp
        traj.checkpoints.append((cp, best))
        traj.wall_times.append(time.perf_counter() - t0)
    return traj


def trajectory_from_sampler(graph: Graph, sampler, total_samples: int, method: str,
                            seed: int, graph_id: str = "") -> CutTrajectory:
    """Drive any batch sampler of ±1 label rows through the checkpoint schedule.

    sampler(b) must return a (b, n) array of labels. Samples are scored in
    batches of at most _BATCH rows, and none beyond the last power of two is
    drawn.
    """
    def best_of(count):
        return max(int(cut_values(graph, sampler(min(_BATCH, count - done))).max())
                   for done in range(0, count, _BATCH))

    return checkpoint_trajectory(best_of, total_samples, method, seed, graph_id)


def run_trajectory(method: str, graph: Graph, total_samples: int, seed: int,
                   config: CircuitConfig = CircuitConfig(),
                   solution: SdpSolution | None = None,
                   graph_id: str = "") -> CutTrajectory:
    """Run one method on one graph and record the best cut at each checkpoint.

    method 'random' scores one uniform ±1 assignment per sample; 'gw' scores
    one circuit epoch per sample (solving the relaxation first if no solution
    is supplied); 'trevisan' advances the learner one step per sample and
    scores a sign read at every checkpoint, tracking the best read so far.
    All randomness derives from seed, so repeated calls agree bit for bit.
    """
    if method == "random":
        rng = np.random.default_rng(derive_seed(seed, "random-cuts"))

        def sampler(b):
            return (rng.integers(0, 2, size=(b, graph.n), dtype=np.int8) * 2 - 1)

        return trajectory_from_sampler(graph, sampler, total_samples, "random", seed, graph_id)

    if method == "gw":
        if solution is None:
            scfg = SolverConfig(tol=config.sdp_tol, max_iter=config.sdp_max_iter,
                                seed=derive_seed(seed, "sdp"))
            solution = solve_gw_sdp(graph, config.rank, scfg)
        circuit = GwCircuit(graph, solution, derive_seed(seed, "gw-devices"), config)
        return trajectory_from_sampler(graph, circuit.sample_cuts, total_samples,
                                       "gw", seed, graph_id)

    if method == "trevisan":
        t0 = time.perf_counter()
        circuit = TrevisanCircuit(graph, seed, config)

        def best_of(count):
            circuit.run_steps(count)
            return cut_value(graph, circuit.read_cut())

        return checkpoint_trajectory(best_of, total_samples, "trevisan", seed, graph_id, t0)

    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
