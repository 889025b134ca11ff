"""Exact H2 model-reduction error for invariant reductions.

When the reduction keeps the kernel modes, the output error of the reduced
model has the impulse response C (I - sigma pi) (S(t) - S_inf) B, which
decays exponentially even though the full system does not. Its squared H2
norm is available in closed form from the semistability Gramian:

    trace( C (I - sigma pi) P_inf (I - sigma pi)* C* ).

The quadrature route integrates the squared impulse response directly and
serves as the independent oracle for the closed form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InconsistencyError, PreconditionError
from .gramian import SemistabilityGramian
from .linalg import (
    EPS,
    integrate_operator_valued,
    opnorm_lower_bound,
    propagator,
)

__all__ = ["H2ErrorResult", "h2_error_gramian", "h2_error_quadrature"]

# reductions must act as the identity on the kernel for the error system
# to be exponentially decaying at all
_KERNEL_DEFECT_LIMIT = 1e-6

# a negative quadrature trace of at most this magnitude clamps to zero
_NEGATIVE_CLAMP = 1e-10


@dataclass(frozen=True)
class H2ErrorResult:
    """Squared H2 error (trace form) and its square root.

    A negative trace within its route's rounding floor (1e-10 for the
    quadrature, :func:`_trace_floor` for the Gramian) is reported as 0; a
    more negative one raises :class:`InconsistencyError`.
    """

    trace_value: float
    h2_norm: float


def _finish(trace_value, floor):
    if trace_value < -floor:
        raise InconsistencyError(
            "squared H2 error came out negative (%.3e); the inputs are "
            "inconsistent" % trace_value
        )
    tv = 0.0 if trace_value < 0.0 else float(trace_value)
    return H2ErrorResult(trace_value=tv, h2_norm=float(np.sqrt(tv)))


def _error_map(red):
    """C (I - sigma pi), after checking that ``red`` keeps the kernel."""
    if red.kernel_identity_defect > _KERNEL_DEFECT_LIMIT:
        raise PreconditionError(
            "reduction does not act as the identity on the kernel "
            "(defect %.3e); the H2 error diverges" % red.kernel_identity_defect
        )
    c = red.system.c
    return c - (c @ red.sigma) @ red.pi


def _trace_floor(g, p_inf):
    """How far below zero trace(G P G*) may come out for the p x n error
    map G and a positive semidefinite Gramian P.

    Forming G P, then the p diagonal entries of (G P) G* as the inner
    products of the rows of G P with those of G, then their sum gives a
    trace within gamma_m sum_i |g_i| |P| |g_i|^T of the exact
    trace(G P G*) >= 0, where m = 2n + p, gamma_m = m u / (1 - m u) and
    u = eps / 2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, sec. 3.5); complex arithmetic raises gamma_m to at
    most sqrt(2) gamma_(m+4), below (m + 4) eps. As | |P| |_2 <= |P|_F,
    the sum is at most |G|_F^2 |P|_F. The stored P's own negative
    eigenvalues are rounding too: at most 6.2e-16 |P|_2 on non-normal
    systems up to cond(V) = 1e5 and on drift chains, where the traces of
    reductions with zero error stayed within 1e-3 of this floor.
    """
    m = 2 * g.shape[1] + g.shape[0] + 4
    return m * EPS * float(np.linalg.norm(g)) ** 2 * float(np.linalg.norm(p_inf))


def h2_error_gramian(red, gramian):
    """Closed-form squared H2 error from the semistability Gramian.

    Parameters
    ----------
    red : Reduction
        A kernel-keeping invariant reduction; the full system is
        ``red.system``.
    gramian : SemistabilityGramian
        Semistability Gramian of ``red.system``, that same object.

    Pure matrix arithmetic, no integration: G P is formed once, for
    G = C (I - sigma pi), and trace(G P G*) is the sum of the row inner
    products of G P with G, the p diagonal entries of (G P) G*, which is
    never formed.

    Raises
    ------
    PreconditionError
        If the Gramian is of another system, or the reduction does not
        keep the kernel.
    InconsistencyError
        If the trace has a non-negligible imaginary part, or lies below
        zero by more than the rounding floor (:func:`_trace_floor`).
    """
    if not isinstance(gramian, SemistabilityGramian):
        raise TypeError("gramian must be a SemistabilityGramian")
    system = red.system
    if gramian.system is not system:
        raise PreconditionError("the Gramian is not of the reduced system")
    g = _error_map(red)
    trace = complex(np.einsum("ij,ij->i", g @ gramian.p_inf, g.conj()).sum())
    scale = max(opnorm_lower_bound(system.c) ** 2 * gramian.norm_p_inf, EPS)
    if abs(trace.imag) > 1e-10 * scale:
        raise InconsistencyError(
            "error trace has a non-negligible imaginary part (%.3e)"
            % trace.imag
        )
    return _finish(trace.real, _trace_floor(g, gramian.p_inf))


def _squared_norm_bounds(x):
    """|X|_F^2 and the upper bound |X|_1 |X|_inf on |X|_2^2, without an SVD."""
    if x.size == 0:
        return 0.0, 0.0
    return (float(np.linalg.norm(x)) ** 2,
            float(np.linalg.norm(x, 1) * np.linalg.norm(x, np.inf)))


def _defect_energy(spectral, residual_map, b):
    """The map t -> |R (exp(A t) - S_inf) B|_F^2 for R = ``residual_map``,
    the generator A of the analysis record ``spectral`` and its limit
    operator S_inf (:attr:`~SpectralData.projector`).

    S_inf = sigma pi is applied through its factors: S_inf B = sigma (pi B),
    R S_inf B = (R sigma)(pi B) and R* R S_inf B = ((R* R) sigma)(pi B),
    each at O(n^2 k) for B = C = I. A diagonal A (the record's
    :attr:`~SpectralData.diagonal`) takes a quadratic form in
    e = exp(lambda t), lambda = diag(A):

        e* Q e - 2 Re(e* l) + c,   Q = (R* R) o (B B*)^T,
        l = diag(R* R S_inf B B*),  c = |R S_inf B|_F^2,

    precomputed once, so a node costs O(n^2) instead of the O(p n m) of
    forming the p x m defect (O(n^3) for B = C = I). A square B with no
    off-diagonal nonzero, decided from its own entries, makes Q diagonal,
    Q_jj = |R e_j|^2 |b_jj|^2, and l_j = (R* (R S_inf B))_jj conj(b_jj)
    reuses the R S_inf B of c: both cost O(p n), no R* R or B B* is
    formed, and a node costs O(n). The terms in S_inf B are of the size of
    the reduction's kernel-identity defect, so little cancels. Any other A
    forms the defect from the propagator at each node.
    """
    a, projector = spectral.a, spectral.projector
    sigma, pi_b = projector.sigma, projector.pi @ b
    if spectral.diagonal:
        lam = np.diagonal(a).copy()
        rs = (residual_map @ sigma) @ pi_b
        const = np.vdot(rs, rs).real
        b_diagonal = np.diagonal(b)
        if b.shape[0] == b.shape[1] and (
                np.count_nonzero(b) == np.count_nonzero(b_diagonal)):
            # the diagonal of Q, and Q e = quad * e
            r_star = residual_map.conj()
            quad = (np.einsum("ij,ij->j", r_star, residual_map).real
                    * np.abs(b_diagonal) ** 2)
            lin = np.einsum("ij,ij->j", r_star, rs) * b_diagonal.conj()
        else:
            gram = residual_map.conj().T @ residual_map
            quad = gram * (b @ b.conj().T).T
            lin = np.einsum("ij,ij->i", (gram @ sigma) @ pi_b, b.conj())

        def energy(t):
            e = np.exp(lam * t)
            quad_e = quad * e if quad.ndim == 1 else quad @ e
            return np.vdot(e, quad_e).real - 2.0 * np.vdot(e, lin).real + const

        return energy
    s_inf_b = sigma @ pi_b
    response = propagator(a, b)

    def energy(t):
        d = residual_map @ (response(t) - s_inf_b)
        return np.vdot(d, d).real

    return energy


def h2_error_quadrature(red, abs_tol):
    """Oracle squared H2 error by integrating the impulse-response defect.

    Integrates trace(d(t) d(t)*) for d(t) = h(t) - h_hat(t), the difference
    of the full and reduced impulse responses. Internally d is
    C (I - sigma pi) (S(t) - S_inf) B, whose exponential decay provides
    the quadrature truncation certificate: the proven decay bound
    norm(S(t) - S_inf) <= K exp(-mu' t) and S_inf come from the analysis
    record of ``red.system`` (:attr:`~SpectralData.decay_bound`). When
    the record says the generator is diagonal, |d(t)|_F^2 is evaluated as
    a precomputed quadratic form in exp(lambda t), lambda = diag(A), at
    O(n^2) per node, O(n) when B is square and diagonal too; otherwise d is formed from the propagator. Either
    way the oracle reads A, S_inf, the reduction and B, never
    eigenvectors.
    """
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    residual_map = _error_map(red)
    b = red.system.b
    spectral = red.system.spectral
    if not np.isfinite(spectral.mu):
        return _finish(0.0, _NEGATIVE_CLAMP)

    energy = _defect_energy(spectral, residual_map, b)
    # |R E B|_F <= min(|R|_F |B|_2, |R|_2 |B|_F) |E|_2, |E|_2 <= K e^{-mu' t}
    r_frob, r_two = _squared_norm_bounds(residual_map)
    b_frob, b_two = _squared_norm_bounds(b)
    decay = spectral.decay_bound
    bound = decay.constant**2 * min(r_frob * b_two, r_two * b_frob)
    # |exp(lambda t)|^2 varies at rate 2 |lambda| <= 2 norm(A)
    value = integrate_operator_valued(
        energy, 2.0 * decay.rate, abs_tol,
        bound_constant=max(bound, EPS), fast_rate=2.0 * spectral.norm_a,
    )
    return _finish(float(value), _NEGATIVE_CLAMP)
