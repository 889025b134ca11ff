"""Insulated-bar diffusion benchmark on a spectral surrogate.

The heat equation on [0, 1] with insulated ends has the diagonal modal
representation diag(0, -pi^2, -4 pi^2, ...) in the orthonormal cosine
basis, with the constant mode as the equilibrium direction. Truncating
the first M modes gives a finite surrogate on which every quantity in
this package has a closed form, so the benchmark can cross-check the
Gramian formula, the brute-force quadrature, and the analytic modal sum
against each other.

In the orthonormal basis each dropped mode n contributes the modal
integral of e^{-2 n^2 pi^2 t}, i.e. 1/(2 pi^2 n^2), to the squared H2
error. An alternative closed form in circulation for this example sums
1/(pi^2 n^2) per mode, apparently from an un-normalized cosine basis;
that value is reported side by side for comparison but never asserted.
Both sums' tails are trigamma values, computed here, so the diagonal
surrogate runs on numpy alone. :func:`build_heat_surrogate` returns the
generator and :func:`analytic_truncation_error` the modal sum;
:func:`run_benchmark` computes the rest of its :class:`BenchmarkReport`
itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gramian import solve_semistability_lyapunov
from .h2error import h2_error_gramian, h2_error_quadrature
from .reduction import StateSpaceSystem, mode_truncation

__all__ = [
    "BenchmarkReport",
    "build_heat_surrogate",
    "analytic_truncation_error",
    "run_benchmark",
    "benchmark_text",
    "benchmark_csv",
    "CSV_HEADER",
]

CSV_HEADER = "N,trace_gramian,trace_quadrature,trace_analytic,published_constant"


@dataclass(frozen=True)
class BenchmarkReport:
    n_kept: int
    modes: int
    trace_gramian: float
    trace_quadrature: float
    trace_analytic: float
    published_constant: float
    h2_norm: float
    max_pairwise_deviation: float
    surrogate_tail_bound: float
    abs_tol: float


def build_heat_surrogate(m):
    """The M x M generator diag(0, -pi^2, ..., -(M-1)^2 pi^2) of the
    surrogate with modes 0..M-1.

    Mode n decays at rate n^2 pi^2; mode 0 is the equilibrium (the spatial
    mean, which insulation conserves). The benchmark observes and actuates
    every mode (B = C = I).
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ValueError("mode count must be an integer")
    if m < 2:
        raise ValueError("surrogate needs at least 2 modes, got %d" % m)
    return np.diag(-(np.arange(int(m), dtype=np.float64) ** 2) * np.pi**2)


def _trigamma(x):
    """psi_1(x) = sum over k >= 0 of 1/(x + k)^2, for x > 0.

    The recurrence psi_1(x) = 1/x^2 + psi_1(x + 1) shifts x to y >= 20,
    where the asymptotic series 1/y + 1/(2 y^2) + sum_j B_2j / y^(2j+1)
    (Abramowitz & Stegun 6.4.12) stops at B_10: the first omitted term is
    below eps/3 relative there. The shifted terms are added smallest first.
    """
    x = float(x)
    shift = max(0, math.ceil(20.0 - x))
    y = x + shift
    u = 1.0 / (y * y)
    total = (1.0 + 0.5 / y + u * (1 / 6 + u * (-1 / 30 + u * (
        1 / 42 + u * (-1 / 30 + u * 5 / 66))))) / y
    for k in range(shift - 1, -1, -1):
        total += 1.0 / (x + k) ** 2
    return total


def analytic_truncation_error(n, m):
    """Closed-form squared H2 error of dropping modes N+1..M-1.

    Parameters
    ----------
    n : int
        Number of cosine modes kept besides the equilibrium mode.
    m : int
        Surrogate size.

    Returns
    -------
    float
        The modal sum of 1/(2 pi^2 n^2) over the dropped surrogate modes,
        the value the computed traces are tested against.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError("truncation order must be an integer")
    if not 1 <= n < m:
        raise ValueError(
            "truncation order must satisfy 1 <= N < M, got N=%s M=%s" % (n, m)
        )
    dropped = np.arange(n + 1, m, dtype=np.float64)
    return float(np.sum(1.0 / (2.0 * np.pi**2 * dropped**2)))


def run_benchmark(n, m, abs_tol=1e-9):
    """Cross-check the three truncation-error routes on the surrogate.

    Builds the M-mode surrogate, keeps the equilibrium mode plus the N
    slowest cosine modes, and computes the squared H2 error by the Gramian
    formula, by impulse-response quadrature, and by the analytic modal
    sum. All three must agree to quadrature accuracy; the report also
    carries their maximum pairwise deviation, the surrogate's own tail
    sum_{n>=M} 1/(2 pi^2 n^2) = trigamma(M) / (2 pi^2) (the modes it
    discards, so comparisons against infinite sums stay honest) and the
    alternative constant, the infinite sum of 1/(pi^2 n^2) over n > N,
    trigamma(N + 1) / pi^2.
    """
    # M is checked before N, and both before B = C = I are allocated
    a = build_heat_surrogate(m)
    analytic = analytic_truncation_error(n, m)
    system = StateSpaceSystem(a)
    gramian = solve_semistability_lyapunov(system)
    red = mode_truncation(system, int(n) + 1)
    by_gramian = h2_error_gramian(red, gramian)
    by_quadrature = h2_error_quadrature(red, abs_tol)

    values = (by_gramian.trace_value, by_quadrature.trace_value, analytic)
    max_dev = max(
        abs(x - y) for i, x in enumerate(values) for y in values[i + 1 :]
    )
    return BenchmarkReport(
        n_kept=int(n),
        modes=int(m),
        trace_gramian=by_gramian.trace_value,
        trace_quadrature=by_quadrature.trace_value,
        trace_analytic=analytic,
        published_constant=_trigamma(n + 1) / np.pi**2,
        h2_norm=by_gramian.h2_norm,
        max_pairwise_deviation=float(max_dev),
        surrogate_tail_bound=_trigamma(m) / (2.0 * np.pi**2),
        abs_tol=float(abs_tol),
    )


def benchmark_text(report):
    """Human-readable benchmark report, deterministic for fixed inputs."""
    lines = [
        "heat benchmark: %d-mode surrogate, keeping %d cosine modes"
        % (report.modes, report.n_kept),
        "trace_gramian:          %.12e" % report.trace_gramian,
        "trace_quadrature:       %.12e" % report.trace_quadrature,
        "trace_analytic:         %.12e" % report.trace_analytic,
        "h2_norm:                %.12e" % report.h2_norm,
        "max_pairwise_deviation: %.3e" % report.max_pairwise_deviation,
        "surrogate_tail_bound:   %.3e" % report.surrogate_tail_bound,
        "abs_tol:                %.1e" % report.abs_tol,
        "published_constant:     %.12e" % report.published_constant,
        "note: published_constant is the circulating closed form summing "
        "1/(pi^2 n^2)",
        "per dropped mode; the orthonormal-basis derivation gives "
        "1/(2 pi^2 n^2),",
        "which the computed traces match. The factor-2 discrepancy is "
        "reported, not",
        "asserted.",
    ]
    return "\n".join(lines) + "\n"


def benchmark_csv(report):
    """The fixed CSV header and one row for ``report``."""
    return "%s\n%d,%.12e,%.12e,%.12e,%.12e\n" % (
        CSV_HEADER,
        report.n_kept,
        report.trace_gramian,
        report.trace_quadrature,
        report.trace_analytic,
        report.published_constant,
    )
