"""Binary coherent-state discrimination over a Gaussian phase-noise channel.

The package computes conventional-detection baselines, the quantum-optimal
bound, and the error probability of a displacement-plus-photon-counting
receiver, then optimizes the receiver and cross-checks it against a
deterministic sampling oracle.
"""

__version__ = "0.1.0"

from .constellation import (
    BinaryConstellation,
    make_bpsk,
    make_ook,
    parametrize,
    psd_watts_per_hz,
)
from .helstrom import (
    FockDensityMatrix,
    optimize_helstrom,
    perr_helstrom,
    phase_diffused_state,
    trace_distance,
)
from .montecarlo import TrialConfig, simulate_perr
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
    SweepCell,
    optimize,
    sweep_sigma,
)
from .phasenoise import ConvergenceError, PhaseNoise, QuadratureRule, average, build_rule
from .receivers import (
    BIT1_HIGH,
    PhotocountDistribution,
    ReceiverConfig,
    displaced_intensity,
    generalized_kennedy_detail,
    perr_bpsk_hom,
    perr_generalized_kennedy,
    perr_ook_dd,
    perr_sql_baseline,
    photocount_distribution,
    poisson_cdf,
)

__all__ = [
    "BIT1_HIGH",
    "BinaryConstellation",
    "ConvergenceError",
    "FockDensityMatrix",
    "OptimizationProblem",
    "OptimizationResult",
    "PhaseNoise",
    "PhotocountDistribution",
    "QuadratureRule",
    "ReceiverConfig",
    "SweepCell",
    "TrialConfig",
    "average",
    "build_rule",
    "displaced_intensity",
    "generalized_kennedy_detail",
    "make_bpsk",
    "make_ook",
    "optimize",
    "optimize_helstrom",
    "parametrize",
    "perr_bpsk_hom",
    "perr_generalized_kennedy",
    "perr_helstrom",
    "perr_ook_dd",
    "perr_sql_baseline",
    "phase_diffused_state",
    "photocount_distribution",
    "poisson_cdf",
    "psd_watts_per_hz",
    "simulate_perr",
    "sweep_sigma",
    "trace_distance",
]
