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
    is_diagonal,
    opnorm_lower_bound,
    propagator,
)

__all__ = ["H2ErrorResult", "h2_error_gramian", "h2_error_quadrature"]

# reductions must act as the identity on the kernel for the error system
# to be exponentially decaying at all
_KERNEL_DEFECT_LIMIT = 1e-6

# negative trace below this magnitude is roundoff and clamps to zero
_NEGATIVE_CLAMP = 1e-10


@dataclass(frozen=True)
class H2ErrorResult:
    """Squared H2 error (trace form) and its square root.

    A trace in [-1e-10, 0) is roundoff and is reported as 0; a more
    negative one raises :class:`InconsistencyError`.
    """

    trace_value: float
    h2_norm: float


def _finish(trace_value):
    if trace_value < -_NEGATIVE_CLAMP:
        raise InconsistencyError(
            "squared H2 error came out negative (%.3e); the inputs are "
            "inconsistent" % trace_value
        )
    tv = 0.0 if trace_value < 0.0 else float(trace_value)
    return H2ErrorResult(trace_value=tv, h2_norm=float(np.sqrt(tv)))


def _error_map(sys, red):
    """C (I - sigma pi), after checking that ``red`` keeps the kernel."""
    if red.kernel_identity_defect > _KERNEL_DEFECT_LIMIT:
        raise PreconditionError(
            "reduction does not act as the identity on the kernel "
            "(defect %.3e); the H2 error diverges" % red.kernel_identity_defect
        )
    return sys.c - (sys.c @ red.sigma) @ red.pi


def h2_error_gramian(sys, red, p_inf):
    """Closed-form squared H2 error from the semistability Gramian.

    Parameters
    ----------
    sys : StateSpaceSystem
        The full system.
    red : Reduction
        A kernel-keeping invariant reduction of ``sys``.
    p_inf : SemistabilityGramian
        Semistability Gramian of ``sys``.

    Pure matrix arithmetic, no integration.
    """
    if not isinstance(p_inf, SemistabilityGramian):
        raise TypeError("p_inf must be a SemistabilityGramian")
    g = _error_map(sys, red)
    p = p_inf.p_inf
    if p.shape[0] != sys.n:
        raise PreconditionError("Gramian size does not match the system")
    product = g @ p @ g.conj().T
    trace = complex(np.trace(product))
    scale = max(opnorm_lower_bound(sys.c) ** 2 * p_inf.norm_p_inf, EPS)
    if abs(trace.imag) > 1e-10 * scale:
        raise InconsistencyError(
            "error trace has a non-negligible imaginary part (%.3e)"
            % trace.imag
        )
    return _finish(trace.real)


def _squared_norm_bounds(x):
    """|X|_F^2 and the upper bound |X|_1 |X|_inf on |X|_2^2, without an SVD."""
    if x.size == 0:
        return 0.0, 0.0
    return (float(np.linalg.norm(x)) ** 2,
            float(np.linalg.norm(x, 1) * np.linalg.norm(x, np.inf)))


def _defect_energy(a, residual_map, s_inf, b):
    """The map t -> |R (exp(A t) - S_inf) B|_F^2 for R = ``residual_map``.

    A diagonal A (decided by :func:`is_diagonal`, the test the propagator
    makes) takes a quadratic form in e = exp(lambda t), lambda = diag(A):

        e* Q e - 2 Re(e* l) + c,   Q = (R* R) o (B B*)^T,
        l = diag(R* R S_inf B B*),  c = |R S_inf B|_F^2,

    precomputed once, so a node costs O(n^2) instead of the O(p n m) of
    forming the p x m defect (O(n^3) for B = C = I). The terms in S_inf B
    are of the size of the reduction's kernel-identity defect, so little
    cancels. Any other A forms the defect from the propagator at each node.
    """
    s_inf_b = s_inf @ b
    if is_diagonal(a):
        lam = np.diagonal(a).copy()
        gram = residual_map.conj().T @ residual_map
        quad = gram * (b @ b.conj().T).T
        lin = np.einsum("ij,ij->i", gram @ s_inf_b, b.conj())
        rs = residual_map @ s_inf_b
        const = np.vdot(rs, rs).real

        def energy(t):
            e = np.exp(lam * t)
            return (np.vdot(e, quad @ e).real - 2.0 * np.vdot(e, lin).real
                    + const)

        return energy
    response = propagator(a, b)

    def energy(t):
        d = residual_map @ (response(t) - s_inf_b)
        return np.vdot(d, d).real

    return energy


def h2_error_quadrature(sys, red, abs_tol):
    """Oracle squared H2 error by integrating the impulse-response defect.

    Integrates trace(d(t) d(t)*) for d(t) = h(t) - h_hat(t), the difference
    of the full and reduced impulse responses. Internally d is
    C (I - sigma pi) (S(t) - S_inf) B, whose exponential decay provides
    the quadrature truncation certificate: the proven decay bound
    norm(S(t) - S_inf) <= K exp(-mu' t) and S_inf come from
    ``red.spectral`` (:attr:`~SpectralData.decay_bound`). When
    the generator is diagonal, |d(t)|_F^2 is evaluated as a precomputed
    quadratic form in exp(lambda t), lambda = diag(A), at O(n^2) per node;
    otherwise d is formed from the propagator. Either way the oracle reads
    A, S_inf, the reduction and B, never eigenvectors.
    """
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    residual_map = _error_map(sys, red)
    spectral = red.spectral
    s_inf = spectral.projector.s_inf
    if not np.isfinite(spectral.mu):
        return _finish(0.0)

    energy = _defect_energy(spectral.a, residual_map, s_inf, sys.b)

    def integrand(t):
        return np.array([[energy(t)]])

    # |R E B|_F <= min(|R|_F |B|_2, |R|_2 |B|_F) |E|_2, |E|_2 <= K e^{-mu' t}
    r_frob, r_two = _squared_norm_bounds(residual_map)
    b_frob, b_two = _squared_norm_bounds(sys.b)
    decay = spectral.decay_bound
    bound = decay.constant**2 * min(r_frob * b_two, r_two * b_frob)
    # |exp(lambda t)|^2 varies at rate 2 |lambda| <= 2 norm(A)
    value = integrate_operator_valued(
        integrand, 2.0 * decay.rate, abs_tol,
        bound_constant=max(bound, EPS), fast_rate=2.0 * spectral.norm_a,
    )
    return _finish(float(value[0, 0]))
