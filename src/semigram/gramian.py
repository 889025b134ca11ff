"""The semistability Gramian and its singular Lyapunov equation.

For a semistable generator A with limit operator S_inf, the semistability
Gramian is

    P_inf = integral over [0, inf) of (S(t) - S_inf) B B* (S(t) - S_inf)* dt,

the natural replacement for the controllability Gramian when A has a
nontrivial kernel. It solves the (singular) Lyapunov equation

    A P + P A* = -(I - S_inf) B B* (I - S_inf)*

and is the unique solution annihilated by S_inf on the left. Two
independent routes are provided: direct adaptive quadrature of the
integral (the oracle) and a Lyapunov solve on the stable spectral block
(the fast path). Tests cross-check one against the other; the two routes
must never be collapsed into one.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConditioningError,
    DimensionError,
    InconsistencyError,
    NotSemistableError,
    PreconditionError,
)
from .linalg import (
    EPS,
    _svd_split,
    as_operator,
    default_rank_tol,
    integrate_operator_valued,
    opnorm,
    propagator,
    real_part,
)
from .semistability import NOT_SEMISTABLE, LimitProjector

__all__ = [
    "SemistabilityGramian",
    "StructureReport",
    "gramian_by_quadrature",
    "lyapunov_rhs",
    "solve_semistability_lyapunov",
    "verify_solution_structure",
]

# residual acceptance threshold, relative to norm(A) norm(P) + norm(Q)
_RESIDUAL_RTOL = 1e-6


@dataclass(frozen=True)
class SemistabilityGramian:
    """Computed Gramian with its certificates.

    ``lyapunov_residual`` is norm(A P + P A* + Q); ``constraint_defect`` is
    norm(S_inf P), which the exact Gramian annihilates.
    ``quadrature_tol`` is set only on the quadrature route.
    """

    p_inf: np.ndarray
    method: str
    lyapunov_residual: float
    constraint_defect: float
    quadrature_tol: float | None = None


@dataclass(frozen=True)
class StructureReport:
    """Defects certifying the structure of a difference of two solutions.

    Any difference Delta of two self-adjoint solutions of the same
    semistability Lyapunov equation is reproduced by compression with the
    limit operator (S_inf* Delta S_inf = Delta) and has its range inside
    ker A*. Both defects small certifies this numerically.
    """

    delta_norm: float
    compression_defect: float
    kernel_range_defect: float


def _extract_s_inf(s_inf):
    if isinstance(s_inf, LimitProjector):
        return s_inf.s_inf
    return as_operator(s_inf, "limit operator", square=True)


def _hermitize(p):
    return 0.5 * (p + p.conj().T)


def _certify(a, p, q, s_inf, method, quadrature_tol=None, residual_slack=0.0):
    """Package a candidate Gramian, enforcing the type's invariants."""
    norm_p = opnorm(p)
    herm_defect = opnorm(p - p.conj().T)
    if herm_defect > 1e-8 * norm_p + 1e-30:
        raise InconsistencyError(
            "computed Gramian is not self-adjoint (defect %.3e)" % herm_defect
        )
    p = _hermitize(p)
    if np.isrealobj(a) and np.iscomplexobj(p):
        p = real_part(p, "gramian", rtol=1e-7)
    min_eig = float(np.linalg.eigvalsh(p).min()) if p.size else 0.0
    if min_eig < -1e-8 * norm_p - 1e-30:
        raise InconsistencyError(
            "computed Gramian is not positive semidefinite "
            "(min eigenvalue %.3e)" % min_eig
        )
    residual = opnorm(a @ p + p @ a.conj().T + q)
    scale = opnorm(a) * norm_p + opnorm(q)
    if residual > _RESIDUAL_RTOL * scale + residual_slack + 1e-30:
        raise InconsistencyError(
            "Lyapunov residual %.3e exceeds %.1e * (|A||P| + |Q|)"
            % (residual, _RESIDUAL_RTOL)
        )
    constraint = opnorm(s_inf @ p)
    if constraint > 1e-8 * norm_p + 1e-30:
        raise InconsistencyError(
            "limit operator does not annihilate the Gramian "
            "(defect %.3e, |P| = %.3e)" % (constraint, norm_p)
        )
    return SemistabilityGramian(
        p_inf=p,
        method=method,
        lyapunov_residual=float(residual),
        constraint_defect=float(constraint),
        quadrature_tol=quadrature_tol,
    )


def gramian_by_quadrature(a, b, s_inf, report, abs_tol):
    """Evaluate the Gramian's defining integral by adaptive quadrature.

    This is the oracle route: nothing is assumed beyond the decay
    certificate norm(S(t) - S_inf) <= M exp(-mu t) taken from the
    generator's analysis record. Each quadrature node evaluates the exact
    integrand, so structural identities (self-adjointness, S_inf P = 0)
    hold at every node and survive summation to roundoff even when
    ``abs_tol`` is coarse.

    Parameters
    ----------
    a, b : array_like
        Generator and input matrix.
    s_inf : LimitProjector
        Limit operator of the semigroup generated by ``a``.
    report : SpectralData
        Analysis record of ``a``, carrying the verdict, the decay rate
        ``mu`` and the overshoot ``overshoot_m``.
    abs_tol : float
        Entrywise absolute tolerance for the integral.
    """
    a = as_operator(a, "generator", square=True)
    b = as_operator(b, "input matrix")
    if b.shape[0] != a.shape[0]:
        raise DimensionError("input matrix row count must match the generator")
    if report.verdict == NOT_SEMISTABLE:
        raise NotSemistableError("the Gramian integral requires semistability")
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    s = _extract_s_inf(s_inf)
    q = lyapunov_rhs(b, s_inf)

    if not np.isfinite(report.mu):
        # no decaying modes: S(t) = S_inf for all t and the integral is 0
        p = np.zeros((a.shape[0], a.shape[0]))
        return _certify(a, p, q, s, "quadrature", quadrature_tol=float(abs_tol))

    s_inf_b = s @ b
    response = propagator(a, b)

    def integrand(t):
        d = response(t) - s_inf_b
        return d @ d.conj().T

    norm_a = opnorm(a)
    bound = (report.overshoot_m**2) * opnorm(b) ** 2
    # the integrand is quadratic in exp(A t): it varies at rate <= 2 norm(A)
    p = integrate_operator_valued(
        integrand, 2.0 * report.mu, abs_tol,
        bound_constant=max(bound, EPS), fast_rate=2.0 * norm_a,
    )
    # entrywise quadrature error up to abs_tol feeds the residual linearly
    # through A; the annihilation identity holds nodewise, so the
    # constraint gate needs no slack
    slack = 2.0 * norm_a * a.shape[0] * abs_tol
    return _certify(
        a, p, q, s, "quadrature", quadrature_tol=float(abs_tol),
        residual_slack=slack,
    )


def lyapunov_rhs(b, s_inf):
    """Right-hand side (I - S_inf) B B* (I - S_inf)* of the Gramian equation."""
    b = as_operator(b, "input matrix")
    s = _extract_s_inf(s_inf)
    if s.shape[0] != b.shape[0]:
        raise DimensionError("limit operator size must match the input matrix")
    g = b - s @ b
    q = _hermitize(g @ g.conj().T)
    if np.isrealobj(b) and np.isrealobj(s):
        q = real_part(q, "lyapunov rhs")
    return q


def _split_coordinates(a, spectral):
    """Coordinates M with A = M diag(0_k, A2) M^{-1}, A2 stable.

    For self-adjoint A the kernel and range are orthogonal complements and
    M is unitary. In general an ordered Schur form puts the kernel cluster
    first and a Sylvester solve decouples the off-diagonal block; this
    also covers defective stable parts, for which an eigenvector basis
    does not exist.
    """
    n = a.shape[0]
    tol = spectral.zero_tol
    if spectral.hermitian:
        range_basis, kernel_basis, _ = _svd_split(
            a, max(default_rank_tol(a.shape, opnorm(a)), tol)
        )
        m = np.hstack([kernel_basis, range_basis])
        k = kernel_basis.shape[1]
        return m, m.conj().T, k

    t, z, sdim = scipy.linalg.schur(
        a.astype(np.complex128),
        output="complex",
        sort=lambda lam: lam.real > -tol,
    )
    k = int(sdim)
    if k != spectral.zero_eig_algebraic_multiplicity:
        raise ConditioningError(
            "Schur reordering found %d kernel modes, spectral data found %d"
            % (k, spectral.zero_eig_algebraic_multiplicity)
        )
    if k in (0, n):
        return z, z.conj().T, k
    t11 = t[:k, :k]
    t12 = t[:k, k:]
    t22 = t[k:, k:]
    # X^{-1} T X with X = [[I, R], [0, I]] is block diagonal exactly when
    # T11 R - R T22 = -T12
    try:
        r = scipy.linalg.solve_sylvester(t11, -t22, -t12)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            "failed to decouple the kernel block: %s" % exc
        ) from exc
    x = np.eye(n, dtype=np.complex128)
    x[:k, k:] = r
    x_inv = np.eye(n, dtype=np.complex128)
    x_inv[:k, k:] = -r
    return z @ x, x_inv @ z.conj().T, k


def _solve_split(a, q, spectral):
    m, m_inv, k = _split_coordinates(a, spectral)
    n = a.shape[0]
    if k == n:
        return np.zeros_like(a)
    q_t = m_inv @ q @ m_inv.conj().T
    q22 = _hermitize(q_t[k:, k:])
    a22 = (m_inv @ a @ m)[k:, k:]
    p22 = scipy.linalg.solve_continuous_lyapunov(a22, -q22)
    p_t = np.zeros((n, n), dtype=np.complex128)
    p_t[k:, k:] = _hermitize(p22)
    return m @ p_t @ m.conj().T


def solve_semistability_lyapunov(a, q, s_inf, spectral):
    """Solve A P + P A* = -Q subject to S_inf P = 0.

    The equation is singular whenever ker A is nontrivial; the constraint
    picks the Gramian out of the solution family.

    Parameters
    ----------
    a : array_like
        Semistable generator.
    q : array_like
        Right-hand side, normally from :func:`lyapunov_rhs`.
    s_inf : LimitProjector
        Limit operator of the semigroup.
    spectral : SpectralData
        Analysis record of ``a`` (supplies the verdict, the kernel
        dimension and the self-adjointness flag).

    Returns
    -------
    SemistabilityGramian

    Raises
    ------
    ConditioningError, InconsistencyError
        If the block split fails or the solution fails its certificates.
    """
    a = as_operator(a, "generator", square=True)
    q = as_operator(q, "right-hand side", square=True)
    if q.shape[0] != a.shape[0]:
        raise DimensionError("right-hand side size must match the generator")
    if spectral.verdict == NOT_SEMISTABLE:
        raise NotSemistableError(
            "the semistability Lyapunov equation requires a semistable "
            "generator"
        )
    herm_q = opnorm(q - q.conj().T)
    if herm_q > 1e-8 * max(opnorm(q), EPS):
        raise PreconditionError("right-hand side must be self-adjoint")
    s = _extract_s_inf(s_inf)
    return _certify(a, _solve_split(a, q, spectral), q, s, "lyapunov_split")


def verify_solution_structure(a, p1, p2, s_inf):
    """Certify the structure of the difference of two Lyapunov solutions.

    Both inputs must be self-adjoint solutions of the same semistability
    Lyapunov equation; their difference Delta then solves the homogeneous
    equation, is reproduced by compression with S_inf, and has range
    inside ker A*. Returns the measured defects; callers compare them
    against 1e-6 * norm(Delta).

    Raises
    ------
    PreconditionError
        If the inputs are not (numerically) solutions of the same
        equation, detected through the homogeneous residual of Delta.
    """
    a = as_operator(a, "generator", square=True)
    p1 = as_operator(p1, "first solution", square=True)
    p2 = as_operator(p2, "second solution", square=True)
    if p1.shape != a.shape or p2.shape != a.shape:
        raise DimensionError("solutions must match the generator size")
    s = _extract_s_inf(s_inf)
    for name, p in (("first", p1), ("second", p2)):
        defect = opnorm(p - p.conj().T)
        if defect > 1e-8 * max(opnorm(p), EPS):
            raise PreconditionError("%s solution is not self-adjoint" % name)

    delta = p2 - p1
    norm_delta = opnorm(delta)
    homogeneous = opnorm(a @ delta + delta @ a.conj().T)
    scale = opnorm(a) * (opnorm(p1) + opnorm(p2)) + EPS
    if homogeneous > 1e-7 * scale:
        raise PreconditionError(
            "inputs do not solve the same equation (homogeneous residual "
            "%.3e against scale %.3e)" % (homogeneous, scale)
        )

    compression = opnorm(s.conj().T @ delta @ s - delta)
    # directions below 1e-8 * norm(Delta) are roundoff from forming Delta,
    # not resolvable parts of its range; keep the cut two orders under the
    # 1e-6 * norm(Delta) certification threshold
    range_cut = max(default_rank_tol(delta.shape, norm_delta), 1e-8 * norm_delta)
    range_basis, _, _ = _svd_split(delta, range_cut)
    if range_basis.shape[1]:
        kernel_range = opnorm(a.conj().T @ range_basis)
    else:
        kernel_range = 0.0
    return StructureReport(
        delta_norm=float(norm_delta),
        compression_defect=float(compression),
        kernel_range_defect=float(kernel_range),
    )
