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
    gramian_by_quadrature,
    solve_semistability_lyapunov,
)
from .h2error import H2ErrorResult, h2_error_gramian, h2_error_quadrature
from .heatbench import (
    BenchmarkReport,
    analytic_truncation_error,
    benchmark_csv,
    benchmark_text,
    build_heat_surrogate,
    run_benchmark,
)
from .linalg import integrate_operator_valued, propagator
from .matio import (
    format_matrix,
    parse_matrix,
    read_matrix,
    read_system,
    write_matrix,
)
from .reduction import (
    PreservationReport,
    Reduction,
    StateSpaceSystem,
    check_preservation,
    mode_truncation,
)
from .semistability import (
    NOT_SEMISTABLE,
    SEMISTABLE,
    STABLE,
    DecayBound,
    LimitProjector,
    SpectralData,
    is_controllable,
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
    "propagator",
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
    "DecayBound",
    "spectral_data",
    "SemistabilityGramian",
    "gramian_by_quadrature",
    "solve_semistability_lyapunov",
    "StateSpaceSystem",
    "Reduction",
    "PreservationReport",
    "mode_truncation",
    "check_preservation",
    "is_controllable",
    "H2ErrorResult",
    "h2_error_gramian",
    "h2_error_quadrature",
    "BenchmarkReport",
    "build_heat_surrogate",
    "analytic_truncation_error",
    "run_benchmark",
    "benchmark_text",
    "benchmark_csv",
    "__version__",
]
