"""Invariant model reduction by eigenmode selection.

A reduction here is a triple (pi, sigma, a_hat): a surjection pi onto the
reduced space, a right inverse sigma, and the reduced generator
a_hat = pi A sigma, chosen so that pi intertwines the full and reduced
propagators (pi exp(At) = exp(a_hat t) pi). sigma pi is the spectral
projector onto the kept modes and pi sigma is the identity on the reduced
space. The analysis record gives the pair (:meth:`SpectralData.projection_pair`):
the kept orthonormal eigenvectors for self-adjoint A, otherwise bases read
from its Schur form, reordered so that the kept modes lead; no eigenvector
basis is inverted. Equilibrium (kernel) modes are always kept:
the synchronization and error results downstream require sigma pi to
restrict to the identity on ker A.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConditioningError,
    DimensionError,
    InvalidSelectionError,
    NotSemistableError,
)
from .linalg import EPS, as_operator, opnorm
from .semistability import (
    NOT_SEMISTABLE,
    SEMISTABLE,
    STABLE,
    default_zero_tol,
    is_controllable,
    spectral_data,
)

__all__ = [
    "StateSpaceSystem",
    "Reduction",
    "PreservationReport",
    "mode_truncation",
    "check_preservation",
]


class StateSpaceSystem:
    """Linear time-invariant system xdot = A x + B u, y = C x.

    B and C default to the identity, which models full actuation and full
    observation and matches the benchmark setups. ``a``, ``b`` and ``c``
    are read-only, so the analysis record of A, ``spectral``, is built
    once, on first use, and every route reads that one record.
    """

    def __init__(self, a, b=None, c=None):
        a = as_operator(a, "state matrix", square=True)
        n = a.shape[0]
        b = np.eye(n) if b is None else as_operator(b, "input matrix")
        c = np.eye(n) if c is None else as_operator(c, "output matrix")
        if b.shape[0] != n:
            raise DimensionError(
                "input matrix has %d rows, expected %d" % (b.shape[0], n)
            )
        if c.shape[1] != n:
            raise DimensionError(
                "output matrix has %d columns, expected %d" % (c.shape[1], n)
            )
        for m in (a, b, c):
            m.flags.writeable = False
        self._a, self._b, self._c = a, b, c

    @property
    def a(self):
        return self._a

    @property
    def b(self):
        return self._b

    @property
    def c(self):
        return self._c

    @cached_property
    def spectral(self):
        """The analysis record of A (:func:`spectral_data`)."""
        return spectral_data(self.a)

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]

    @property
    def n_outputs(self):
        return self.c.shape[0]

    def __repr__(self):
        return "StateSpaceSystem(n=%d, inputs=%d, outputs=%d)" % (
            self.n,
            self.n_inputs,
            self.n_outputs,
        )


@dataclass(frozen=True)
class Reduction:
    """Projection pair and reduced system matrices with recorded defects.

    ``commutativity_defect`` is norm(pi A - a_hat pi); the intertwining of
    the propagators follows from it being (numerically) zero.
    ``kernel_identity_defect`` is norm((sigma pi - I) K) for an orthonormal
    kernel basis K; it certifies that equilibria survive the reduction.
    ``norm_pi`` is the spectral norm of ``pi``; ``sigma`` has orthonormal
    columns, so its norm is 1. ``system`` is the full system; the
    preservation check and both H2 routes read it, and its analysis
    record, from the reduction.
    """

    pi: np.ndarray
    sigma: np.ndarray
    norm_pi: float
    a_hat: np.ndarray
    b_hat: np.ndarray
    c_hat: np.ndarray
    commutativity_defect: float
    kernel_identity_defect: float
    kept_modes: tuple
    system: StateSpaceSystem

    @property
    def order(self):
        return self.a_hat.shape[0]


@dataclass(frozen=True)
class PreservationReport:
    """Whether reduction preserved the stability class and controllability."""

    original_verdict: str
    reduced_verdict: str
    semistability_preserved: bool
    original_controllable: bool
    reduced_controllable: bool
    controllability_preserved: bool


_STRENGTH = {NOT_SEMISTABLE: 0, SEMISTABLE: 1, STABLE: 2}


def _resolve_selection(spectral, keep):
    """Sorted mode indices selected by ``keep``, which must hold every
    kernel mode: for a semistable record, the first
    ``zero_eig_algebraic_multiplicity`` modes."""
    n = spectral.n

    if isinstance(keep, bool):
        raise InvalidSelectionError("keep must be an int or a sequence of ints")
    if isinstance(keep, (int, np.integer)):
        k = int(keep)
        if not 0 <= k <= n:
            raise InvalidSelectionError(
                "cannot keep %d of %d modes" % (k, n)
            )
        sel = list(range(k))
    else:
        try:
            sel = [int(i) for i in keep]
        except (TypeError, ValueError):
            raise InvalidSelectionError(
                "keep must be an int or a sequence of ints"
            ) from None
        if len(set(sel)) != len(sel):
            raise InvalidSelectionError("duplicate mode index in selection")
        if any(i < 0 or i >= n for i in sel):
            raise InvalidSelectionError(
                "mode index out of range for a system of order %d" % n
            )
        sel = sorted(sel)

    kept = set(sel)
    missing = [i for i in range(spectral.zero_eig_algebraic_multiplicity)
               if i not in kept]
    if missing:
        raise InvalidSelectionError(
            "selection drops equilibrium mode(s) %s; kernel modes must be "
            "kept for the reduction to act as the identity on equilibria"
            % missing
        )
    return sel


def mode_truncation(system, keep):
    """Build an invariant reduction keeping selected eigenmodes.

    Parameters
    ----------
    system : StateSpaceSystem
        Semistable system to reduce; the returned reduction carries it.
        Mode indices refer to the canonical (slowest-first) order of its
        analysis record ``system.spectral``.
    keep : int or sequence of int
        Either the number of slowest modes to keep or an explicit set of
        mode indices into the canonical order. Equilibrium modes must be
        included either way.

    sigma and pi are the record's :meth:`SpectralData.projection_pair`.
    For non-self-adjoint A, a_hat is the leading block of the reordered
    Schur form, with the kept modes in their canonical order. The reduced
    model is real exactly when A, B and C are real; complex conjugate mode
    pairs then stay in 2x2 real Schur blocks and must be selected together.

    Returns
    -------
    Reduction

    Raises
    ------
    NotSemistableError
        If the spectral data fails the semistability criterion.
    InvalidSelectionError
        If the selection drops a kernel mode, splits a conjugate pair of a
        real reduction, or splits a repeated-eigenvalue cluster of a
        non-self-adjoint A.
    ConditioningError
        If the Schur form cannot be reordered or decoupled, the spectral
        projector bound exceeds its limit, or a certificate of the
        projection pair fails.
    """
    spectral = system.spectral
    if spectral.verdict == NOT_SEMISTABLE:
        raise NotSemistableError(
            "mode truncation requires a semistable generator"
        )

    a = system.a
    real = not any(np.iscomplexobj(m) for m in (a, system.b, system.c))

    sel = _resolve_selection(spectral, keep)
    r = len(sel)
    sigma, pi = spectral.projection_pair(sel, real)

    a_hat = pi @ a @ sigma
    b_hat = pi @ system.b
    c_hat = system.c @ sigma

    norm_pi = opnorm(pi)
    biorth = opnorm(pi @ sigma - np.eye(r))
    if biorth > 1e-10 * max(1.0, norm_pi):
        raise ConditioningError(
            "projection pair lost bi-orthogonality (defect %.3e)" % biorth
        )
    # sigma has orthonormal columns, so sigma_r(pi) >= (1 - biorth) / (1 + n
    # eps): rank r at the standard rank threshold max(r, n) eps |pi|, no SVD
    if r and 1.0 - biorth <= max(pi.shape) * EPS * norm_pi * (1.0 + spectral.n * EPS):
        raise ConditioningError("pi is not surjective onto the reduced space")

    commut = opnorm(pi @ a - a_hat @ pi)
    if commut > 1e-8 * max(spectral.norm_a * norm_pi, EPS):
        raise ConditioningError(
            "commutativity defect %.3e exceeds 1e-8 * |A| * |pi|" % commut
        )
    k = spectral.kernel_basis
    if k.shape[1]:
        kernel_defect = opnorm(sigma @ pi @ k - k)
    else:
        kernel_defect = 0.0
    if kernel_defect > 1e-8:
        raise ConditioningError(
            "reduction fails to act as the identity on the kernel "
            "(defect %.3e)" % kernel_defect
        )

    return Reduction(
        pi=pi,
        sigma=sigma,
        norm_pi=norm_pi,
        a_hat=a_hat,
        b_hat=b_hat,
        c_hat=c_hat,
        commutativity_defect=float(commut),
        kernel_identity_defect=float(kernel_defect),
        kept_modes=tuple(sel),
        system=system,
    )


def check_preservation(red):
    """Verify the reduced model keeps the stability class and controllability.

    Violations are reported in the returned flags, not raised: a flagged
    report signals a defective reduction for the caller to inspect. The
    original verdict and controllability are read from the analysis record
    of the system ``red`` carries; the reduced generator gets a record of
    its own, from which its verdict and controllability are decided
    independently.
    """
    system = red.system
    spectral = system.spectral
    original = spectral.verdict
    # a_hat = pi A sigma carries roundoff at the parent scale; a reduced
    # generator that is numerically zero must not be judged on its own norm
    carried = spectral.norm_a * max(red.norm_pi, 1.0)
    zero_tol = default_zero_tol(system.n, carried) if red.order else None
    reduced = spectral_data(red.a_hat, zero_tol)
    semistability_ok = _STRENGTH[reduced.verdict] >= _STRENGTH[original]
    orig_ctrb = is_controllable(spectral, system.b)
    red_ctrb = is_controllable(reduced, red.b_hat)
    return PreservationReport(
        original_verdict=original,
        reduced_verdict=reduced.verdict,
        semistability_preserved=bool(semistability_ok),
        original_controllable=bool(orig_ctrb),
        reduced_controllable=bool(red_ctrb),
        controllability_preserved=bool((not orig_ctrb) or red_ctrb),
    )

