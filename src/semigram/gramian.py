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
(the fast path): elementwise in the eigenbasis of a self-adjoint A, else
one ?trsyl (:mod:`semigram.lapack`). Tests cross-check one against the
other; the two routes must never be collapsed into one.
"""

from dataclasses import dataclass

import numpy as np

from . import lapack
from .errors import DimensionError, InconsistencyError, PreconditionError
from .linalg import (
    EPS,
    as_operator,
    integrate_operator_valued,
    opnorm,
    opnorm_lower_bound,
    propagator,
)

__all__ = [
    "SemistabilityGramian",
    "gramian_by_quadrature",
    "lyapunov_rhs",
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
    S_inf P, which the exact Gramian annihilates. ``quadrature_tol`` is
    set only on the quadrature route.
    """

    p_inf: np.ndarray
    method: str
    norm_p_inf: float
    lyapunov_residual: float
    constraint_defect: float
    quadrature_tol: float | None = None


def _hermitize(p):
    return 0.5 * (p + p.conj().T)


def _certify(spectral, p, q, method, quadrature_tol=None, residual_slack=0.0):
    """Package a candidate Gramian, enforcing the type's invariants.

    Defects are Frobenius norms, at least the spectral ones, so each gate
    is at least as strict as with the 2-norm; every scale they are compared
    against is a 2-norm or a proven lower bound of one.
    """
    a = spectral.a
    herm_defect = float(np.linalg.norm(p - p.conj().T))
    if herm_defect > 1e-8 * opnorm_lower_bound(p) + 1e-30:
        raise InconsistencyError(
            "computed Gramian is not self-adjoint (defect %.3e)" % herm_defect
        )
    p = _hermitize(p)
    eigs = np.linalg.eigvalsh(p) if p.size else np.zeros(1)
    norm_p = float(np.abs(eigs[[0, -1]]).max())
    if eigs[0] < -1e-8 * norm_p - 1e-30:
        raise InconsistencyError(
            "computed Gramian is not positive semidefinite "
            "(min eigenvalue %.3e)" % eigs[0]
        )
    residual = float(np.linalg.norm(a @ p + p @ a.conj().T + q))
    scale = spectral.norm_a * norm_p + opnorm_lower_bound(q)
    if residual > _RESIDUAL_RTOL * scale + residual_slack + 1e-30:
        raise InconsistencyError(
            "Lyapunov residual %.3e exceeds %.1e * (|A||P| + |Q|)"
            % (residual, _RESIDUAL_RTOL)
        )
    constraint = float(np.linalg.norm(spectral.projector.s_inf @ p))
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
        quadrature_tol=quadrature_tol,
    )


def gramian_by_quadrature(spectral, b, abs_tol):
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
    spectral : SpectralData
        Analysis record of the generator.
    b : array_like
        Input matrix.
    abs_tol : float
        Entrywise absolute tolerance for the integral.

    Raises
    ------
    NotSemistableError
        If the record fails the semistability criterion.
    """
    a = spectral.a
    b = as_operator(b, "input matrix")
    if b.shape[0] != a.shape[0]:
        raise DimensionError("input matrix row count must match the generator")
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    q = lyapunov_rhs(spectral, b)

    if not np.isfinite(spectral.mu):
        # no decaying modes: S(t) = S_inf for all t and the integral is 0
        p = np.zeros((a.shape[0], a.shape[0]))
        return _certify(spectral, p, q, "quadrature", quadrature_tol=float(abs_tol))

    s_inf_b = spectral.projector.s_inf @ b
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
        spectral, p, q, "quadrature", quadrature_tol=float(abs_tol),
        residual_slack=slack,
    )


def lyapunov_rhs(spectral, b):
    """Right-hand side (I - S_inf) B B* (I - S_inf)* of the Gramian equation.

    Raises :class:`NotSemistableError` if the record fails the
    semistability criterion.
    """
    b = as_operator(b, "input matrix")
    s = spectral.projector.s_inf
    if s.shape[0] != b.shape[0]:
        raise DimensionError("limit operator size must match the input matrix")
    g = b - s @ b
    return _hermitize(g @ g.conj().T)


def _solve_split(spectral, q):
    if spectral.hermitian:
        # A = V diag(lambda) V* with the k kernel modes first: in the
        # eigenbasis the stable block's equation is diagonal,
        # P_ij = (V* Q V)_ij / -(lambda_i + lambda_j) over stable i, j
        k = spectral.kernel_dim
        v = spectral.eigenvectors[:, k:]
        lam = spectral.eigenvalues.real[k:]
        core = _hermitize(v.conj().T @ q @ v) / -(lam[:, None] + lam[None, :])
        return v @ core @ v.conj().T
    t, z, r = spectral.split
    k = r.shape[0]
    if k == spectral.n:
        return np.zeros_like(spectral.a)
    # with M = Z [[I, R], [0, I]], M^{-1} A M = diag(T11, T22) and the
    # constrained solution is M diag(0, P22) M*: the last n - k columns of
    # M are W = Z_k R + Z_r and the last n - k rows of M^{-1} are Z_r*, so
    # T22 P22 + P22 T22* = -Z_r* Q Z_r
    z_r = z[:, k:]
    t22 = t[k:, k:]
    q22 = _hermitize(z_r.conj().T @ q @ z_r)
    p22 = lapack.trsyl(t22, t22, -q22,
                       "solve the stable block's Lyapunov equation", tranb="C")
    w = z[:, :k] @ r + z_r
    return w @ _hermitize(p22) @ w.conj().T


def solve_semistability_lyapunov(spectral, q):
    """Solve A P + P A* = -Q subject to S_inf P = 0.

    The equation is singular whenever ker A is nontrivial; the constraint
    picks the Gramian out of the solution family.

    A self-adjoint A is solved in the record's eigenbasis by elementwise
    division over the stable modes. Any other A is solved in the
    coordinates of the record's ordered Schur :attr:`~SpectralData.split`,
    by one LAPACK ``?trsyl`` back substitution on the stable triangular
    block T22 (the second half of Bartels & Stewart's method).

    Parameters
    ----------
    spectral : SpectralData
        Analysis record of the semistable generator A (supplies A, S_inf,
        the eigendata or the Schur split, and the self-adjointness flag).
    q : array_like
        Right-hand side, normally from :func:`lyapunov_rhs`.

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
    q = as_operator(q, "right-hand side", square=True)
    if q.shape[0] != spectral.n:
        raise DimensionError("right-hand side size must match the generator")
    herm_q = np.linalg.norm(q - q.conj().T)
    if herm_q > 1e-8 * max(opnorm_lower_bound(q), EPS):
        raise PreconditionError("right-hand side must be self-adjoint")
    spectral.projector  # raises NotSemistableError before any solve
    return _certify(spectral, _solve_split(spectral, q), q, "lyapunov_split")

