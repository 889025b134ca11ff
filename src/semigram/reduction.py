"""Invariant model reduction by eigenmode selection.

A reduction here is a triple (pi, sigma, a_hat): a surjection pi onto the
reduced space, a right inverse sigma, and the reduced generator
a_hat = pi A sigma, chosen so that pi intertwines the full and reduced
propagators (pi exp(At) = exp(a_hat t) pi). sigma pi is the spectral
projector onto the kept modes and pi sigma is the identity on the reduced
space. For self-adjoint A the bases are the kept orthonormal eigenvectors;
otherwise they are read from the analysis record's Schur form, reordered so
that the kept modes lead (:meth:`SpectralData.mode_split`), and no
eigenvector basis is inverted. Equilibrium (kernel) modes are always kept:
the synchronization and error results downstream require sigma pi to
restrict to the identity on ker A.
"""

from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm

from .errors import (
    ConditioningError,
    DimensionError,
    InvalidSelectionError,
    NotSemistableError,
)
from .linalg import EPS, as_operator, opnorm
from .semistability import (
    COND_LIMIT,
    NOT_SEMISTABLE,
    SEMISTABLE,
    STABLE,
    SpectralData,
    default_zero_tol,
    spectral_data,
)

__all__ = [
    "StateSpaceSystem",
    "Reduction",
    "PreservationReport",
    "mode_truncation",
    "check_preservation",
    "is_controllable",
]


class StateSpaceSystem:
    """Linear time-invariant system xdot = A x + B u, y = C x.

    B and C default to the identity, which models full actuation and full
    observation and matches the benchmark setups.
    """

    def __init__(self, a, b=None, c=None):
        self.a = as_operator(a, "state matrix", square=True)
        n = self.a.shape[0]
        self.b = np.eye(n) if b is None else as_operator(b, "input matrix")
        self.c = np.eye(n) if c is None else as_operator(c, "output matrix")
        if self.b.shape[0] != n:
            raise DimensionError(
                "input matrix has %d rows, expected %d" % (self.b.shape[0], n)
            )
        if self.c.shape[1] != n:
            raise DimensionError(
                "output matrix has %d columns, expected %d" % (self.c.shape[1], n)
            )

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
    columns, so its norm is 1. ``spectral`` is the analysis record of the
    full generator, which the preservation check and the H2 oracle read
    instead of recomputing it.
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
    spectral: SpectralData

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


def mode_truncation(sys, spectral, keep):
    """Build an invariant reduction keeping selected eigenmodes.

    Parameters
    ----------
    sys : StateSpaceSystem
        Semistable system to reduce.
    spectral : SpectralData
        Analysis record of ``sys.a``, modes in canonical (slowest-first)
        order; the returned reduction carries it.
    keep : int or sequence of int
        Either the number of slowest modes to keep or an explicit set of
        mode indices into the canonical order. Equilibrium modes must be
        included either way.

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
        real reduction, or splits a repeated-eigenvalue cluster.
    ConditioningError
        If the Schur form cannot be reordered or decoupled, the spectral
        projector bound exceeds its limit, or a certificate of the
        projection pair fails.
    """
    a = sys.a
    if not np.array_equal(spectral.a, a):
        raise DimensionError(
            "spectral data was computed for a different generator"
        )
    if spectral.verdict == NOT_SEMISTABLE:
        raise NotSemistableError(
            "mode truncation requires a semistable generator"
        )

    real = not any(np.iscomplexobj(m) for m in (a, sys.b, sys.c))

    sel = _resolve_selection(spectral, keep)
    r = len(sel)
    lam = spectral.eigenvalues

    if spectral.hermitian:
        sigma = spectral.eigenvectors[:, sel].copy()
        pi = sigma.conj().T.copy()
    else:
        # splitting a cluster of (numerically) equal eigenvalues would cut
        # through a Jordan chain; whole clusters travel together
        labels = spectral.clusters
        split = np.isin(labels[sel], np.delete(labels, sel))
        if split.any():
            raise InvalidSelectionError(
                "selection splits the eigenvalue cluster near %s; "
                "repeated modes must be kept or dropped together"
                % lam[sel[np.argmax(split)]]
            )
        z, coupling = spectral.mode_split(sel, complex_form=not real)
        if coupling.shape[0] != r:
            raise InvalidSelectionError(
                "a real-valued reduction must keep or drop complex "
                "conjugate eigenvalue pairs together"
            )
        sigma = z[:, :r].copy()  # a view would keep all of Z alive
        pi = sigma.conj().T - coupling @ z[:, r:].conj().T

    a_hat = pi @ a @ sigma
    b_hat = pi @ sys.b
    c_hat = sys.c @ sigma

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
        spectral=spectral,
    )


def is_controllable(spectral, b):
    """Popov-Belevitch-Hautus test of (A, B) over the analysis record of A.

    (A, B) is controllable iff, for every cluster of numerically equal
    eigenvalues (:attr:`SpectralData.clusters`), the rows of W B have full
    row rank, where W holds the cluster's left eigenvectors (Hautus 1969).
    W is V* for self-adjoint A, with V the record's orthonormal
    eigenvectors. Otherwise V comes from one ``eig`` of A, the only
    eigenvector basis of a non-self-adjoint A that the package computes,
    and W = inv(V); ConditioningError is raised when cond(V) exceeds
    COND_LIMIT.
    """
    b = as_operator(b, "input matrix")
    if b.shape[0] != spectral.n:
        raise DimensionError("input matrix row count must match the state size")
    labels = spectral.clusters
    if spectral.hermitian:
        w, cond_v = spectral.eigenvectors.conj().T, 1.0
    else:
        lam, v = np.linalg.eig(spectral.a)
        cond_v = float(np.linalg.cond(v))
        if not cond_v <= COND_LIMIT:
            raise ConditioningError(
                "eigenvector basis condition number %.3e is too large to "
                "invert" % cond_v)
        w = np.linalg.inv(v)
        # each eigenvalue takes the cluster of its nearest record eigenvalue:
        # clusters lie farther apart than rounding moves an eigenvalue, and a
        # label, unlike a mode index, does not care which of a +-i eps pair
        # eig returns first
        nearest = np.abs(lam[:, None] - spectral.eigenvalues[None, :]).argmin(axis=1)
        labels = labels[nearest]
    # eig is exact for some A + E with |E| ~ n eps |A|. That moves a cluster's
    # left invariant subspace by at most cond_v |E| / gap, and other clusters
    # lie more than sqrt(n eps) |A| away, so by at most sqrt(n eps) cond_v;
    # the singular values of the projected input move by that times |B|
    tol = np.sqrt(spectral.n * EPS) * cond_v * opnorm(b)
    sizes = np.bincount(labels)
    # a one-mode cluster's W B is one row, of full rank iff it is nonzero
    single = w[sizes[labels] == 1]
    if np.any(norm(single @ b, axis=1) <= tol * norm(single, axis=1)):
        return False
    for label in np.flatnonzero(sizes > 1):
        q, _ = np.linalg.qr(w[labels == label].conj().T)
        if np.linalg.matrix_rank(q.conj().T @ b, tol) < q.shape[1]:
            return False
    return True


def check_preservation(sys, red):
    """Verify the reduced model keeps the stability class and controllability.

    Violations are reported in the returned flags, not raised: a flagged
    report signals a defective reduction for the caller to inspect. The
    original verdict and controllability are read from the record ``red``
    carries; the reduced generator gets a record of its own, from which its
    verdict and controllability are decided independently.
    """
    original = red.spectral.verdict
    # a_hat = pi A sigma carries roundoff at the parent scale; a reduced
    # generator that is numerically zero must not be judged on its own norm
    carried = red.spectral.norm_a * max(red.norm_pi, 1.0)
    zero_tol = default_zero_tol(sys.n, carried) if red.order else None
    reduced = spectral_data(red.a_hat, zero_tol)
    semistability_ok = _STRENGTH[reduced.verdict] >= _STRENGTH[original]
    orig_ctrb = is_controllable(red.spectral, sys.b)
    red_ctrb = is_controllable(reduced, red.b_hat)
    return PreservationReport(
        original_verdict=original,
        reduced_verdict=reduced.verdict,
        semistability_preserved=bool(semistability_ok),
        original_controllable=bool(orig_ctrb),
        reduced_controllable=bool(red_ctrb),
        controllability_preserved=bool((not orig_ctrb) or red_ctrb),
    )

