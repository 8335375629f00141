"""Adaptive MCMC with delayed rejection, compact weighted chains, recursive
sample refinement, restartable runs, and simulated parallel protocols."""

from .chain import ChainRow, CompactChain, WeightedMoments, chain_stats
from .config import (
    SimulationSpec,
    build_spec,
    initial_proposal,
    make_target,
    parse_config_file,
    spec_digest,
    spec_to_items,
)
from .driver import RunResult, run_simulation
from .errors import (
    BadDimension,
    CorruptRestart,
    DegenerateTally,
    DimensionMismatch,
    EmptyRange,
    EmptySample,
    IoFailure,
    NonFiniteStart,
    NonFiniteTarget,
    NotPositiveDefinite,
    RefusedOverwrite,
    SamplerError,
    SeriesTooShort,
    SpecMismatch,
    StageOutOfRange,
)
from .kernel import (
    Kernel,
    KernelConfig,
    KernelSummary,
    RoundStreams,
    SerialStreams,
    StepOutcome,
    burnin_location,
    mh_accept_stage0,
    propose_cascade,
    run_kernel,
)
from .model import (
    BUILTIN_KINDS,
    BuiltinTargetSpec,
    TargetDensity,
    banana_target,
    gaussian_target,
    himmelblau_target,
    make_builtin_target,
)
from .parallel import (
    PREDICTION_GRID,
    ContributionTally,
    ForkJoinResult,
    MultiChainResult,
    SpeedupReport,
    build_speedup_report,
    fit_geometric,
    predict_speedup,
    recommend_workers,
    run_forkjoin,
    run_multichain,
)
from .persist import (
    ChainWriter,
    OutputSuite,
    ProgressWriter,
    RunState,
    detect_incomplete,
    read_chain,
    read_snapshot,
    write_report,
    write_sample,
    write_snapshot,
)
from .proposal import (
    AdaptationRecord,
    ProposalState,
    adapt,
    adaptation_measure,
    default_dr_scales,
    default_scale_factor,
    effective_covariance,
    log_kernel_density,
    sample_candidate,
)
from .refine import (
    ConvergenceCheck,
    IacEstimate,
    RefinedSample,
    RefinementRound,
    cross_chain_check,
    estimate_iac,
    estimate_iac_multi,
    ks_two_sample,
    refine_two_phase,
)

__version__ = "0.1.0"
