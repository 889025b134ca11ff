"""semigram: model reduction for exponentially semistable linear systems.

Systems whose trajectories settle to initial-condition-dependent
equilibria (consensus networks, insulated diffusion, chemical kinetics
with conserved quantities) have a singular generator, so the classical
controllability Gramian diverges. This package computes the semistability
Gramian that replaces it, builds invariant eigenmode truncations that
keep the equilibrium structure, and evaluates their exact H2 error, with
every fast path cross-checked against a brute-force integral oracle.
"""

from .errors import (
    ConditioningError,
    DimensionError,
    InconsistencyError,
    InvalidSelectionError,
    NotSemistableError,
    ParseError,
    PreconditionError,
    QuadratureError,
    SemigramError,
)
from .gramian import (
    SemistabilityGramian,
    StructureReport,
    gramian_by_quadrature,
    lyapunov_rhs,
    solve_semistability_lyapunov,
    verify_solution_structure,
)
from .h2error import H2ErrorResult, h2_error_gramian, h2_error_quadrature
from .heatbench import (
    AnalyticTruncation,
    BenchmarkReport,
    HeatSurrogate,
    analytic_truncation_error,
    benchmark_csv,
    benchmark_text,
    build_heat_surrogate,
    run_benchmark,
)
from .linalg import (
    RankDecision,
    integrate_operator_valued,
    matrix_exponential,
    numerical_kernel,
    numerical_rank,
    propagator,
)
from .matio import (
    format_matrix,
    parse_matrix,
    read_matrix,
    read_system,
    write_matrix,
)
from .reduction import (
    InvarianceReport,
    PreservationReport,
    Reduction,
    StateSpaceSystem,
    check_invariance,
    check_preservation,
    controllability_matrix,
    is_controllable,
    mode_truncation,
    trajectory_sync_defect,
)
from .semistability import (
    NOT_SEMISTABLE,
    SEMISTABLE,
    STABLE,
    LimitProjector,
    SpectralData,
    classify,
    decay_defect,
    limit_projector,
    spectral_data,
)

__version__ = "0.1.0"

__all__ = [
    "SemigramError",
    "DimensionError",
    "ParseError",
    "PreconditionError",
    "NotSemistableError",
    "InvalidSelectionError",
    "ConditioningError",
    "InconsistencyError",
    "QuadratureError",
    "RankDecision",
    "matrix_exponential",
    "propagator",
    "numerical_kernel",
    "numerical_rank",
    "integrate_operator_valued",
    "parse_matrix",
    "format_matrix",
    "read_matrix",
    "write_matrix",
    "read_system",
    "STABLE",
    "SEMISTABLE",
    "NOT_SEMISTABLE",
    "SpectralData",
    "LimitProjector",
    "spectral_data",
    "classify",
    "limit_projector",
    "decay_defect",
    "SemistabilityGramian",
    "StructureReport",
    "gramian_by_quadrature",
    "lyapunov_rhs",
    "solve_semistability_lyapunov",
    "verify_solution_structure",
    "StateSpaceSystem",
    "Reduction",
    "InvarianceReport",
    "PreservationReport",
    "mode_truncation",
    "check_invariance",
    "check_preservation",
    "trajectory_sync_defect",
    "controllability_matrix",
    "is_controllable",
    "H2ErrorResult",
    "h2_error_gramian",
    "h2_error_quadrature",
    "HeatSurrogate",
    "AnalyticTruncation",
    "BenchmarkReport",
    "build_heat_surrogate",
    "analytic_truncation_error",
    "run_benchmark",
    "benchmark_text",
    "benchmark_csv",
    "__version__",
]
