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
from functools import partial

import numpy as np

from .devices import DevicePool, _out, _real_array, _whole
from .graphs import Graph, cut_value, cut_values, trevisan_matrix
from .lif import LifPopulation, _check_leak
from .oracles import reference_hyperplane_rounds
from .plasticity import OjaState, _check_rates
from .sdp import SdpSolution, SolverConfig, solve_gw_sdp
from .seeding import derive_seed

# Rows per scoring batch of a trajectory.
_BATCH = 4096
# Rows per circuit buffer: epochs per sign read in GwCircuit.sample_cuts, and
# steps per draw, integration and training block in TrevisanCircuit.run_steps.
# A multiple of lif._CHUNK and plasticity._SUB, so a block split moves no leak
# chunk or Gram sub-block.
_SLICE = 256

METHODS = ("gw", "trevisan", "solver-rounding", "random")


@dataclass(frozen=True)
class CircuitConfig:
    """The circuits' constants and the relaxation's rank, shared with the harness.

    The relaxation's stopping rule is SolverConfig's, at its defaults.
    Out-of-range, non-integer and non-real values raise ValueError on
    construction, so a bad config fails before any job runs rather than in
    every job that uses it.
    """

    alpha: float = 0.05          # membrane leak per step
    epoch_steps: int = 100       # integration steps per GW sample
    eta0: float = 5e-3
    tau: float = 1e5
    rank: int = 4

    def __post_init__(self):
        _check_leak(self.alpha)
        _whole(self.epoch_steps, "epoch_steps", least=1)
        _check_rates(self.eta0, self.tau)
        _whole(self.rank, "rank", least=2)


def _fitted(solution: SdpSolution, graph: Graph) -> np.ndarray:
    """solution's vectors, if real numbers and one per vertex of graph; else ValueError."""
    if solution.n != graph.n:
        raise ValueError(f"solution has {solution.n} vectors for a graph of {graph.n} vertices")
    return _real_array(solution.vectors, "solution vectors")


class GwCircuit:
    """Rounding sampler: device pool -> LIF units weighted by the relaxation rows.

    Each sample resets the membranes, integrates epoch_steps fresh ±1 device
    draws, and reads the membrane signs as a cut. Over an epoch the
    membrane covariance is proportional to the Gram matrix of the relaxation
    vectors, so the sign reads reproduce hyperplane-rounding statistics.

    The LIF epoch is solved in closed form, with no population object: the
    end membrane is W d, with W a read-only copy of the relaxation rows and d
    the device states weighted by the leak left after them. The devices come
    bit-packed, so d sums one table lookup per byte of 8 steps.
    """

    def __init__(self, graph: Graph, solution: SdpSolution, seed: int,
                 config: CircuitConfig = CircuitConfig()):
        self.graph = graph
        self.config = config
        self._weights = np.array(_fitted(solution, graph), dtype=float)
        self._weights.setflags(write=False)
        self.pool = DevicePool(self._weights.shape[1], seed=seed)
        k = config.epoch_steps
        q = 1.0 - float(config.alpha)
        # closed-form weight of step t in the end-of-epoch membrane, t = 0..k-1,
        # zero past k so the last byte's spare bits add nothing
        decay = np.zeros(-(-k // 8) * 8)
        decay[:k] = q ** np.arange(k - 1, -1, -1)
        # _table[j, v] = sum_t decay[8j + t] * (2 bit_t(v) - 1): byte j's share of d
        bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
        self._table = decay.reshape(-1, 8) @ (2.0 * bits.T - 1.0)
        # _offsets[i, j] = 256 j, where byte j's row starts in the flat _table;
        # tiled over the devices, so the index sum runs along whole epochs
        self._offsets = np.tile(np.arange(0, self._table.size, 256), (self.pool.count, 1))
        # sample_cuts integrates each slice of epochs here before reading signs
        self._membranes = np.empty((_SLICE, graph.n))

    def epoch_membranes(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """(count, n) end-of-epoch membrane vectors, one reset epoch per row.

        With out, a (count, n) float64 array, the membranes are written into
        it and out itself is returned: the result aliases the caller's buffer,
        and the next call that fills the buffer overwrites it. The epochs are
        the same either way. A count that is not a positive integer, or an out
        of another shape or dtype, raises ValueError before any epoch is drawn.
        """
        count = _whole(count, "count", least=1)
        out = _out(out, (count, self.graph.n), np.float64)
        codes = self.pool.sample_epochs(count, self.config.epoch_steps)
        # parts[..., j] = _table[j, codes[..., j]], every byte's share from one
        # take; the shares are added in byte order from zero, the order of sum()
        # over the rows of _table, so the drive does not depend on the gather
        parts = self._table.take(codes + self._offsets)
        drive = np.zeros(parts.shape[:2])
        for j in range(parts.shape[2]):
            drive += parts[..., j]
        return np.matmul(drive, self._weights.T, out=out)

    def sample_cuts(self, count: int) -> np.ndarray:
        """(count, n) int8 array of ±1 labels, one independent epoch per row.

        Epochs are integrated _SLICE at a time into the circuit's own
        membrane buffer, and each slice's signs are written straight into the
        int8 result and made ±1 there while the slice is in cache (+1 where
        the membrane is positive, ties to -1). The device stream is
        split-invariant by epoch, so the slicing cannot change a label. A
        count that is not a positive integer raises ValueError.
        """
        count = _whole(count, "count", least=1)
        labels = np.empty((count, self.graph.n), dtype=np.int8)
        for start in range(0, count, _SLICE):
            b = min(_SLICE, count - start)
            v = self.epoch_membranes(b, out=self._membranes[:b])
            cuts = labels[start:start + b]
            np.greater(v, 0, out=cuts.view(np.bool_))
            cuts *= 2
            cuts -= 1
        return labels


class TrevisanCircuit:
    """Spectral-cut learner: free-running LIF stage feeding an anti-Hebbian vector.

    Stage-one weights are M sqrt(1 - q^2), with M = I + normalized adjacency
    and q = 1 - alpha. The leak's stationary gain on the input variance is
    1/(1 - q^2), which that factor undoes, so the stationary membrane
    covariance is M^2 itself: the membranes reach the learner at unit scale,
    and M^2 shares the eigenvectors of M, in particular its minimum one. The
    cut is the sign pattern of the learned vector.

    The LIF stage runs in float32, as every LifPopulation does, and so do
    the circuit's two (_SLICE, n) block buffers (GwCircuit has one): 0.2 MB
    at n=100 and 1 MB at n=500, whatever the step count. The device states,
    one generator word's top bit each, are exact in float32, and the
    learner's state stays float64, so float32 rounds only the membranes:
    about 1e-6 relative after n-term sums, below every eigengap seen (4e-4).
    """

    def __init__(self, graph: Graph, seed: int, config: CircuitConfig = CircuitConfig()):
        q = 1.0 - config.alpha
        self.pool = DevicePool(graph.n, seed=derive_seed(seed, "devices"))
        weights = trevisan_matrix(graph)
        weights *= np.sqrt(1.0 - q * q)
        self.pop = LifPopulation(weights, alpha=config.alpha)
        rng = np.random.default_rng(derive_seed(seed, "oja-init"))
        self.oja = OjaState.spherical_init(graph.n, rng, eta0=config.eta0, tau=config.tau)
        # every run_steps block is drawn into _states and integrated into _membranes
        self._states = np.empty((_SLICE, graph.n), np.float32)
        self._membranes = np.empty((_SLICE, graph.n), np.float32)

    def run_steps(self, count: int) -> None:
        """Advance count steps, one device block of up to _SLICE draws at a time.

        Each block's membranes come from one LifPopulation.step call and its
        plasticity updates from one OjaState.update call, so the result agrees
        with the row-by-row recurrence to rounding, and the same schedule of
        calls reproduces it bit for bit. The blocks are drawn and integrated in
        the circuit's own two (_SLICE, n) buffers, so no block allocates its
        own.

        Larger blocks would give the same leak chunks, Gram sub-blocks and
        draws, since _SLICE is a multiple of both chunk sizes and the device
        stream is sequential. Only the drive GEMM's rows are split, and
        whether that moves its last bits depends on the BLAS kernel: with
        OpenBLAS 0.3.31's float32 kernels it moved none for any n tried, up
        to 500.
        """
        count = _whole(count, "count", least=1)
        done = 0
        # A diverging learner overflows before OjaState.update raises
        # NumericalDivergenceError, which is the report, so the transient IEEE
        # warnings are dropped; the state is entered once per call, not per block.
        with np.errstate(over="ignore", invalid="ignore"):
            while done < count:
                b = min(_SLICE, count - done)
                states = self.pool.sample_steps(b, out=self._states[:b])
                self.oja.update(self.pop.step(states, out=self._membranes[:b]))
                done += b

    def read_cut(self) -> np.ndarray:
        """±1 labels from the learned vector: +1 where w_i > 0, ties to -1."""
        return np.where(self.oja.w > 0, np.int8(1), np.int8(-1))


@dataclass
class CutTrajectory:
    """Best-so-far cut sizes recorded at power-of-two sample counts.

    checkpoints holds (samples, best_cut) pairs; wall_time is the seconds the
    whole checkpoint loop took, so building the circuit or sampler (and
    solving the relaxation) is excluded. It is diagnostic only (everything
    else is bit-reproducible for a fixed graph, method, seed and config).
    """

    graph_id: str
    method: str
    seed: int
    checkpoints: list = field(default_factory=list)
    wall_time: float = 0.0


def checkpoint_schedule(total_samples: int) -> list:
    """Powers of two up to the sample budget: 1, 2, 4, ..., <= total_samples.

    A budget that is not an integer (16.0, "3", None) raises ValueError.
    """
    total_samples = _whole(total_samples, "total_samples", least=1)
    return [1 << k for k in range(total_samples.bit_length())]


def checkpoint_trajectory(best_of, total_samples: int, method: str, seed: int,
                          graph_id: str = "") -> CutTrajectory:
    """Record the best cut so far at each checkpoint of the sample budget.

    best_of(count) returns the best cut over the next count samples. The
    clock is read once after the loop, so the wall time is the loop's alone:
    whatever the caller built before this call is not on the clock. A seed
    that is not an integer (2.5, "3") raises ValueError.
    """
    t0 = time.perf_counter()
    traj = CutTrajectory(graph_id, method, _whole(seed, "seed"))
    best = -1
    done = 0
    for cp in checkpoint_schedule(total_samples):
        best = max(best, best_of(cp - done))
        done = cp
        traj.checkpoints.append((cp, best))
    traj.wall_time = time.perf_counter() - t0
    return traj


def trajectory_from_sampler(graph: Graph, sampler, total_samples: int, method: str,
                            seed: int, graph_id: str = "") -> CutTrajectory:
    """Drive any batch sampler of ±1 label rows through the checkpoint schedule.

    sampler(b) must return a (b, n) array of labels; a batch of any other
    length raises ValueError, since its best cut would not be the best of b
    samples. Samples are scored in batches of at most _BATCH rows, and none
    beyond the last power of two is drawn.
    """
    def best_of(count):
        return max(best_in_batch(min(_BATCH, count - done)) for done in range(0, count, _BATCH))

    def best_in_batch(b):
        labels = sampler(b)
        if len(labels) != b:
            raise ValueError(f"{method} sampler returned {len(labels)} rows for a batch of {b}")
        return int(cut_values(graph, labels).max())

    return checkpoint_trajectory(best_of, total_samples, method, seed, graph_id)


def _random_labels(rng: np.random.Generator, b: int, n: int) -> np.ndarray:
    """(b, n) int8 labels, bit for bit rng.integers(0, 2, size=(b, n), dtype=np.int8) * 2 - 1.

    numpy draws a bounded int8 in [0, 2) by Lemire's multiply-shift on one
    byte: (byte * 2) >> 8, the byte's top bit; its rejection threshold,
    (2^8 - 2) mod 2, is 0, so no byte is ever redrawn. Each call takes its
    bytes low byte first from fresh 32-bit generator words, drops the unused
    bytes of its last word, and leaves the generator's buffered half of a
    64-bit word to the next draw. ceil(b·n/4) full-range uint32 words are the
    same 32-bit draws, taken the same way, so the labels and the stream
    position after the call both match, without numpy's per-byte bounded loop.
    """
    k = b * n
    words = rng.integers(0, 1 << 32, size=-(-k // 4), dtype=np.uint32)
    # bytes in little-endian order, the order the int8 draw consumes them;
    # top bit to ±1 in place, so the word buffer is the label buffer
    top = words.astype("<u4", copy=False).view(np.uint8)[:k]
    top >>= 7
    labels = top.view(np.int8)
    labels *= 2
    labels -= 1
    return labels.reshape(b, n)


def run_trajectory(method: str, graph: Graph, total_samples: int, seed: int,
                   config: CircuitConfig = CircuitConfig(),
                   solution: SdpSolution | None = None,
                   graph_id: str = "") -> CutTrajectory:
    """Run one method on one graph and record the best cut at each checkpoint.

    method 'random' scores one uniform ±1 assignment per sample; 'gw' one
    circuit epoch per sample; 'solver-rounding', the software baseline, one
    direct hyperplane rounding of the relaxation per sample; 'trevisan'
    advances the learner one step per sample and scores a sign read at every
    checkpoint, tracking the best read so far. 'gw' and 'solver-rounding'
    solve the relaxation first, from derive_seed(seed, "sdp"), if no solution
    is supplied; the other methods ignore it. All randomness derives from
    seed, an integer (2.5 raises ValueError), so repeated calls agree bit for bit.

    Random labels are the top bits of the bytes of whole 32-bit generator
    words (_random_labels): the bits that rng.integers(0, 2, dtype=np.int8)
    reads from the same words, so the labels and the generator's state after
    each batch match that draw bit for bit. The solver's roundings draw from
    default_rng(seed) itself, with no derived stream label, as the benchmark
    has always drawn its baseline, so solver_cut keeps its values.
    """
    seed = _whole(seed, "seed")
    if method == "trevisan":
        circuit = TrevisanCircuit(graph, seed, config)

        def best_of(count):
            circuit.run_steps(count)
            return cut_value(graph, circuit.read_cut())

        return checkpoint_trajectory(best_of, total_samples, "trevisan", seed, graph_id)

    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in ("gw", "solver-rounding") and solution is None:
        solution = solve_gw_sdp(graph, config.rank, SolverConfig(seed=derive_seed(seed, "sdp")))
    if method == "random":
        rng = np.random.default_rng(derive_seed(seed, "random-cuts"))
        sampler = partial(_random_labels, rng, n=graph.n)
    elif method == "gw":
        sampler = GwCircuit(graph, solution, derive_seed(seed, "gw-devices"), config).sample_cuts
    else:
        sampler = partial(reference_hyperplane_rounds, _fitted(solution, graph),
                          rng=np.random.default_rng(seed))
    return trajectory_from_sampler(graph, sampler, total_samples, method, seed, graph_id)
