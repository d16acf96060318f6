"""Stochastic neuromorphic MAXCUT circuits and their validation stack.

Two samplers built from noisy two-state devices and leaky integrators:

* a hyperplane-rounding circuit whose weights come from a low-rank cut
  relaxation (one rounded cut per integration epoch), and
* a spectral circuit that learns the minimum eigenvector of
  I + normalized adjacency through an anti-Hebbian rule.

Ground-truth oracles (exact enumeration, dense eigensolver, direct Gaussian
rounding) and a benchmark harness sit alongside.
"""

__version__ = "0.1.0"

from .bench import (BENCH_METHODS, CSV_HEADER, ExperimentConfig, ExperimentResult,
                    ResultRow, Summary, parse_config_file, run_experiment, summarize)
from .circuits import (METHODS, CircuitConfig, CutTrajectory, GwCircuit,
                       TrevisanCircuit, checkpoint_schedule, run_trajectory,
                       trajectory_from_sampler)
from .devices import DevicePool
from .graphs import (Graph, ParseError, cut_value, cut_values, generate_erdos_renyi,
                     load_graph, save_graph, trevisan_matrix)
from .lif import LifPopulation
from .oracles import (MaxcutResult, SpectralCutResult, brute_force_maxcut,
                      reference_hyperplane_rounds, spectral_cut)
from .plasticity import NumericalDivergenceError, OjaState
from .sdp import SdpSolution, SolverConfig, sdp_objective, solve_gw_sdp
from .seeding import RNG_ALGORITHM, derive_seed
