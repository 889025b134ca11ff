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
from .linalg import EPS, integrate_operator_valued, opnorm, propagator

__all__ = ["H2ErrorResult", "h2_error_gramian", "h2_error_quadrature"]

# reductions must act as the identity on the kernel for the error system
# to be exponentially decaying at all
_KERNEL_DEFECT_LIMIT = 1e-6

# negative trace below this magnitude is roundoff and clamps to zero
_NEGATIVE_CLAMP = 1e-10


@dataclass(frozen=True)
class H2ErrorResult:
    """Squared H2 error (trace form) and its square root.

    ``clamped`` flags a tiny negative trace that was rounded up to zero.
    """

    trace_value: float
    h2_norm: float
    method: str
    tolerance: float
    clamped: bool = False


def _finish(trace_value, method, tolerance):
    if trace_value < -_NEGATIVE_CLAMP:
        raise InconsistencyError(
            "squared H2 error came out negative (%.3e); the inputs are "
            "inconsistent" % trace_value
        )
    clamped = trace_value < 0.0
    tv = 0.0 if clamped else float(trace_value)
    return H2ErrorResult(
        trace_value=tv,
        h2_norm=float(np.sqrt(tv)),
        method=method,
        tolerance=float(tolerance),
        clamped=clamped,
    )


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
    if red.kernel_identity_defect > _KERNEL_DEFECT_LIMIT:
        raise PreconditionError(
            "reduction does not act as the identity on the kernel "
            "(defect %.3e); the error formula does not apply"
            % red.kernel_identity_defect
        )
    p = p_inf.p_inf
    if p.shape[0] != sys.n:
        raise PreconditionError("Gramian size does not match the system")
    g = sys.c - (sys.c @ red.sigma) @ red.pi
    product = g @ p @ g.conj().T
    trace = complex(np.trace(product))
    scale = max(opnorm(sys.c) ** 2 * opnorm(p), EPS)
    if abs(trace.imag) > 1e-10 * scale:
        raise InconsistencyError(
            "error trace has a non-negligible imaginary part (%.3e)"
            % trace.imag
        )
    tolerance = max(p_inf.quadrature_tol or 0.0, EPS)
    return _finish(trace.real, "gramian_formula", tolerance)


def h2_error_quadrature(sys, red, abs_tol):
    """Oracle squared H2 error by integrating the impulse-response defect.

    Integrates trace(d(t) d(t)*) for d(t) = h(t) - h_hat(t), the difference
    of the full and reduced impulse responses. Internally d is evaluated as
    C (I - sigma pi) (S(t) - S_inf) B, whose exponential decay at the
    spectral-gap rate provides the quadrature truncation certificate; its
    inputs (mu, the overshoot and S_inf) come from ``red.spectral``.
    """
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    if red.kernel_identity_defect > _KERNEL_DEFECT_LIMIT:
        raise PreconditionError(
            "reduction does not act as the identity on the kernel "
            "(defect %.3e); the H2 error diverges" % red.kernel_identity_defect
        )
    spectral = red.spectral
    s_inf = spectral.projector.s_inf
    if not np.isfinite(spectral.mu):
        return _finish(0.0, "impulse_quadrature", abs_tol)

    residual_map = sys.c - (sys.c @ red.sigma) @ red.pi
    s_inf_b = s_inf @ sys.b
    response = propagator(spectral.a, sys.b)

    def integrand(t):
        d = residual_map @ (response(t) - s_inf_b)
        return np.array([[np.vdot(d, d).real]])

    # the integrand is ||d||_F^2 <= rank(d) ||d||_2^2, and rank(d) is at
    # most min(p, m)
    bound = (
        min(residual_map.shape[0], sys.b.shape[1])
        * opnorm(residual_map) ** 2
        * spectral.overshoot_m**2
        * opnorm(sys.b) ** 2
    )
    # |exp(lambda t)|^2 varies at rate 2 |lambda| <= 2 norm(A)
    value = integrate_operator_valued(
        integrand, 2.0 * spectral.mu, abs_tol,
        bound_constant=max(bound, EPS), fast_rate=2.0 * spectral.norm_a,
    )
    return _finish(float(value[0, 0]), "impulse_quadrature", abs_tol)
