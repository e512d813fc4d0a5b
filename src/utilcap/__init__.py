"""Utility-driven algorithm configuration on simulated capped runs."""

from .baselines import UpRun, naive_run, successive_halving
from .bounds import (
    FRESH,
    BoundContext,
    BoundSnapshot,
    alpha,
    doubling_new,
    doubling_old,
)
from .coup import (
    CoupRun,
    FinitePoolSampler,
    ParametricSampler,
    PhaseCertificate,
    SamplerExhaustedError,
    Schedule,
    exponential_mean_map,
    finite_population_quantile,
    phase_size,
)
from .harness import (
    ExperimentSpec,
    GuaranteeViolation,
    SpecError,
    ValidationReport,
    epsilon_vs_time_curve,
    run_experiment,
    validate_guarantee,
)
from .oracles import (
    Exponential,
    InstanceExhaustedError,
    LogNormal,
    MatrixOracle,
    SyntheticOracle,
    TwoPoint,
    expected_capped_utility,
    load_runtime_matrix,
    true_capped_utility,
)
from .oup import OupRun
from .records import (
    BudgetSeconds,
    CostLedger,
    MaxPhases,
    MaxRounds,
    RunResult,
    SingleSurvivor,
    TargetEpsilon,
    TraceRow,
)
from .utility import LogLaplaceUtility, UniformUtility, parse_utility

__version__ = "0.1.0"
