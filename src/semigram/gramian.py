"""The semistability Gramian and its singular Lyapunov equation.

For a semistable generator A with limit operator S_inf, the semistability
Gramian is

    P_inf = integral over [0, inf) of (S(t) - S_inf) B B* (S(t) - S_inf)* dt,

the natural replacement for the controllability Gramian when A has a
nontrivial kernel. It solves the (singular) Lyapunov equation

    A P + P A* = -(I - S_inf) B B* (I - S_inf)*

and is the unique solution annihilated by S_inf on the left. Two
independent routes are provided: direct adaptive quadrature of the
integral (the oracle) and the analysis record's Lyapunov solve on the
stable spectral block (the fast path, :meth:`SpectralData.solve_lyapunov`).
Tests cross-check one against the other; the two routes must never be
collapsed into one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InconsistencyError
from .linalg import (
    EPS,
    hermitian_part,
    integrate_operator_valued,
    opnorm,
    opnorm_lower_bound,
    propagator,
)
from .reduction import StateSpaceSystem

__all__ = [
    "SemistabilityGramian",
    "gramian_by_quadrature",
    "solve_semistability_lyapunov",
]

# residual acceptance threshold, relative to norm(A) norm(P) + norm(Q)
_RESIDUAL_RTOL = 1e-6


@dataclass(frozen=True)
class SemistabilityGramian:
    """Computed Gramian with its certificates.

    ``norm_p_inf`` is the spectral norm of ``p_inf``, its largest
    eigenvalue. ``lyapunov_residual`` is the Frobenius norm of
    A P + P A* + Q; ``constraint_defect`` is the Frobenius norm of
    S_inf P, which the exact Gramian annihilates. ``system`` is the system
    it is the Gramian of; the closed-form H2 error takes it only with a
    reduction of that same system. ``quadrature_tol`` is set only on the
    quadrature route.
    """

    p_inf: np.ndarray
    method: str
    norm_p_inf: float
    lyapunov_residual: float
    constraint_defect: float
    system: StateSpaceSystem
    quadrature_tol: float | None = None


def _eigenvalues(p):
    """Ascending eigenvalues of a self-adjoint P (a single 0 if P is
    empty).

    A P with no off-diagonal nonzero, decided from its own entries, has
    its sorted real diagonal as its eigenvalues: exact, and bit for bit
    what ``eigvalsh`` returns for it (up to the order of zeros of either
    sign), except that LAPACK rescales a P of norm beyond about 1e146 or
    below 1e-146 and rounds in doing so. Any other P takes ``eigvalsh``.
    """
    if not p.size:
        return np.zeros(1)
    diagonal = np.diagonal(p)
    if np.count_nonzero(p) == np.count_nonzero(diagonal):
        return np.sort(diagonal.real)
    return np.linalg.eigvalsh(p)


def _certify(system, p, q, method, quadrature_tol=None, residual_slack=0.0):
    """Package a candidate Gramian of ``system``, enforcing the type's
    invariants.

    Defects are Frobenius norms, at least the spectral ones, so each gate
    is at least as strict as with the 2-norm; every scale they are compared
    against is a 2-norm or a proven lower bound of one. The eigenvalues of
    P come from :func:`_eigenvalues`, and for a :attr:`~SpectralData.diagonal`
    A the product A P is the row scaling diag(A) P, exactly, so a diagonal
    generator's Gramian is certified in O(n^2).
    """
    spectral = system.spectral
    a = spectral.a
    herm_defect = float(np.linalg.norm(p - p.conj().T))
    if herm_defect > 1e-8 * opnorm_lower_bound(p) + 1e-30:
        raise InconsistencyError(
            "computed Gramian is not self-adjoint (defect %.3e)" % herm_defect
        )
    p = hermitian_part(p)
    eigs = _eigenvalues(p)
    norm_p = float(np.abs(eigs[[0, -1]]).max())
    if eigs[0] < -1e-8 * norm_p - 1e-30:
        raise InconsistencyError(
            "computed Gramian is not positive semidefinite "
            "(min eigenvalue %.3e)" % eigs[0]
        )
    # P is exactly self-adjoint, so P A* = (A P)*: one product, not two
    ap = np.diagonal(a)[:, None] * p if spectral.diagonal else a @ p
    residual = float(np.linalg.norm(ap + ap.conj().T + q))
    scale = spectral.norm_a * norm_p + opnorm_lower_bound(q)
    if residual > _RESIDUAL_RTOL * scale + residual_slack + 1e-30:
        raise InconsistencyError(
            "Lyapunov residual %.3e exceeds %.1e * (|A||P| + |Q|)"
            % (residual, _RESIDUAL_RTOL)
        )
    constraint = float(np.linalg.norm(spectral.projector.apply(p)))
    if constraint > 1e-8 * norm_p + 1e-30:
        raise InconsistencyError(
            "limit operator does not annihilate the Gramian "
            "(defect %.3e, |P| = %.3e)" % (constraint, norm_p)
        )
    return SemistabilityGramian(
        p_inf=p,
        method=method,
        norm_p_inf=norm_p,
        lyapunov_residual=residual,
        constraint_defect=constraint,
        system=system,
        quadrature_tol=quadrature_tol,
    )


def gramian_by_quadrature(system, abs_tol):
    """Evaluate the Gramian's defining integral by adaptive quadrature.

    This is the oracle route: nothing is assumed beyond the proven decay
    bound norm(S(t) - S_inf) <= K exp(-mu' t), the record's
    :attr:`~SpectralData.decay_bound`, so the integrand is at most
    K^2 |B|^2 exp(-2 mu' t) and the integral is truncated where that tail
    falls below half the tolerance.
    Each quadrature node evaluates the exact integrand, so structural
    identities (self-adjointness, S_inf P = 0) hold at every node and
    survive summation to roundoff even when ``abs_tol`` is coarse.

    Parameters
    ----------
    system : StateSpaceSystem
        The system; the route reads A and B, and S_inf and the decay bound
        from its analysis record, never the record's eigendecomposition.
    abs_tol : float
        Entrywise absolute tolerance for the integral.

    Raises
    ------
    NotSemistableError
        If the record fails the semistability criterion.
    """
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    q = _lyapunov_rhs(system)
    spectral, b = system.spectral, system.b
    a = spectral.a

    if not np.isfinite(spectral.mu):
        # no decaying modes: S(t) = S_inf for all t and the integral is 0
        p = np.zeros((a.shape[0], a.shape[0]))
        return _certify(system, p, q, "quadrature", quadrature_tol=float(abs_tol))

    s_inf_b = spectral.projector.apply(b)
    response = propagator(a, b)

    def integrand(t):
        d = response(t) - s_inf_b
        return d @ d.conj().T

    norm_a = spectral.norm_a
    decay = spectral.decay_bound
    bound = decay.constant**2 * opnorm(b) ** 2
    # the integrand is quadratic in exp(A t): it varies at rate <= 2 norm(A)
    p = integrate_operator_valued(
        integrand, 2.0 * decay.rate, abs_tol,
        bound_constant=max(bound, EPS), fast_rate=2.0 * norm_a,
    )
    # entrywise quadrature error up to abs_tol feeds the residual linearly
    # through A; the annihilation identity holds nodewise, so the
    # constraint gate needs no slack
    slack = 2.0 * norm_a * a.shape[0] * abs_tol
    return _certify(
        system, p, q, "quadrature", quadrature_tol=float(abs_tol),
        residual_slack=slack,
    )


def _lyapunov_rhs(system):
    """Right-hand side Q = (I - S_inf) B B* (I - S_inf)* of the Gramian
    equation; raises :class:`NotSemistableError` if the system's record
    fails the semistability criterion."""
    b = system.b
    g = b - system.spectral.projector.apply(b)
    return hermitian_part(g @ g.conj().T)


def solve_semistability_lyapunov(system):
    """Solve A P + P A* = -Q subject to S_inf P = 0, for the Gramian's
    right-hand side Q = (I - S_inf) B B* (I - S_inf)*.

    The equation is singular whenever ker A is nontrivial; the constraint
    picks the Gramian out of the solution family. The system's analysis
    record solves it (:meth:`SpectralData.solve_lyapunov`), and this route
    certifies the solution.

    Parameters
    ----------
    system : StateSpaceSystem
        The system; its analysis record supplies A, S_inf and the solve.

    Returns
    -------
    SemistabilityGramian

    Raises
    ------
    NotSemistableError
        If the record fails the semistability criterion.
    ConditioningError, InconsistencyError
        If the Schur split or the block solve fails, or the solution fails
        its certificates.
    """
    q = _lyapunov_rhs(system)  # raises NotSemistableError before any solve
    return _certify(system, system.spectral.solve_lyapunov(q), q, "lyapunov_split")
