"""Robust low-rank matrix completion from noisy, outlier-ridden observations."""

__version__ = "0.1.0"

from .errors import (
    DataValidationError,
    DimensionMismatchError,
    RobustMcError,
    SvdError,
)
from .matcore import (
    ObservationMask,
    Problem,
    SvdFactors,
    nuclear_norm,
    project,
    svd,
    svd_soft_threshold,
)
from .huber import (
    HuberParams,
    choose_cutoff,
    huber_norm_sq,
    pseudo_data,
    psi,
    rho,
    soft_threshold_scalar,
)
from .solvers import (
    CertificateReport,
    PathSolution,
    Solution,
    SolverConfig,
    default_gamma_path,
    general_robust,
    objective_f,
    objective_g,
    robust_impute,
    soft_impute,
    soft_impute_path,
    stationarity_certificate,
)
from .pcpbridge import (
    LowRankSparsePair,
    extract_sparse,
    objective_pcp,
)
from .experiments import (
    BenchResult,
    DegradationSpec,
    GroundTruthInstance,
    MissingSpec,
    PathRecord,
    RankSummary,
    SyntheticSpec,
    degrade_image,
    generate_synthetic,
    replicate_seed,
    run_benchmark,
    run_study,
    score_path,
    solve_path,
    summarize_by_rank,
    test_error,
    training_error,
)

__all__ = [name for name in dir() if not name.startswith("_")]
