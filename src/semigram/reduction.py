"""Invariant model reduction by eigenmode selection.

A reduction here is a triple (pi, sigma, a_hat): a surjection pi onto the
reduced space, a right inverse sigma, and the reduced generator
a_hat = pi A sigma, chosen so that pi intertwines the full and reduced
propagators (pi exp(At) = exp(a_hat t) pi). Bases come from eigenmode
selection, so sigma pi is the spectral projector onto the kept modes and
pi sigma is the identity on the reduced space. Equilibrium (kernel) modes
are always kept: the synchronization and error results downstream require
sigma pi to restrict to the identity on ker A.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    DimensionError,
    InvalidSelectionError,
    NotSemistableError,
    PreconditionError,
)
from .linalg import (
    EPS,
    as_operator,
    numerical_rank,
    opnorm,
    propagator,
    real_part,
)
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
    "InvarianceReport",
    "PreservationReport",
    "mode_truncation",
    "check_invariance",
    "check_preservation",
    "trajectory_sync_defect",
    "controllability_matrix",
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
    ``spectral`` is the analysis record of the full generator, which the
    preservation check and the H2 oracle read instead of recomputing it.
    """

    pi: np.ndarray
    sigma: np.ndarray
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
class InvarianceReport:
    times: tuple
    defects: np.ndarray
    max_defect: float


@dataclass(frozen=True)
class PreservationReport:
    """Whether reduction preserved the stability class and controllability."""

    original_verdict: str
    reduced_verdict: str
    semistability_preserved: bool
    original_controllable: bool
    reduced_controllable: bool
    controllability_preserved: bool

    @property
    def ok(self):
        return self.semistability_preserved and self.controllability_preserved


_STRENGTH = {NOT_SEMISTABLE: 0, SEMISTABLE: 1, STABLE: 2}


def _eigenbasis(spectral):
    """Right eigenvectors, with a real kernel block for real generators.

    eig can return a repeated semisimple zero of a real non-normal
    generator as a +-i eps pair with complex eigenvectors, which no real
    reduction can keep. Any basis of the kernel is an eigenbasis of that
    cluster, and the SVD one is real; the kernel modes of a semistable
    generator come first in the canonical order.
    """
    v = spectral.right_eigenvectors
    k = spectral.zero_eig_algebraic_multiplicity
    if (np.isrealobj(spectral.a) and k == spectral.kernel_dim
            and np.any(spectral.eigenvalues[:k].imag)):
        v = v.copy()
        v[:, :k] = spectral.kernel_basis
    return v


def _resolve_selection(spectral, keep):
    n = spectral.n
    lam = spectral.eigenvalues
    tol = spectral.zero_tol
    kernel_idx = np.nonzero(
        (np.abs(lam.real) <= tol) & (np.abs(lam.imag) <= tol)
    )[0]

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

    missing = [int(i) for i in kernel_idx if i not in set(sel)]
    if missing:
        raise InvalidSelectionError(
            "selection drops equilibrium mode(s) %s; kernel modes must be "
            "kept for the reduction to act as the identity on equilibria"
            % missing
        )
    return sel


def _pairing_transform(lam_sel, zero_tol):
    """Unitary block map sending conjugate eigenvector pairs to real pairs.

    Columns [v, conj(v)] map to [sqrt(2) Re v, sqrt(2) Im v]; the reduced
    block for the pair becomes the real rotation-scaling [[a, b], [-b, a]].
    """
    r = len(lam_sel)
    t = np.eye(r, dtype=np.complex128)
    p = 0
    while p < r:
        if abs(lam_sel[p].imag) > zero_tol:
            ok = (
                p + 1 < r
                and abs(lam_sel[p + 1] - np.conj(lam_sel[p])) <= 1e-8 * max(1.0, abs(lam_sel[p]))
            )
            if not ok:
                raise InvalidSelectionError(
                    "a real-valued reduction must keep or drop complex "
                    "conjugate eigenvalue pairs together"
                )
            t[p : p + 2, p : p + 2] = np.array(
                [[1.0, -1.0j], [1.0, 1.0j]]
            ) / np.sqrt(2.0)
            p += 2
        else:
            p += 1
    return t


def mode_truncation(sys, spectral, keep, real=None):
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
    real : bool, optional
        Request a real-valued reduced model. Defaults to True exactly when
        all system matrices are real. Complex conjugate mode pairs are then
        rotated into 2x2 real blocks and must be selected together.

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
        If the eigenvector basis is too ill-conditioned to produce a
        trustworthy projection pair.
    """
    a = sys.a
    n = sys.n
    if not np.array_equal(spectral.a, a):
        raise DimensionError(
            "spectral data was computed for a different generator"
        )
    if spectral.verdict == NOT_SEMISTABLE:
        raise NotSemistableError(
            "mode truncation requires a semistable generator"
        )

    if real is None:
        real = not (
            np.iscomplexobj(a) or np.iscomplexobj(sys.b) or np.iscomplexobj(sys.c)
        )
    elif real and (
        np.iscomplexobj(a) or np.iscomplexobj(sys.b) or np.iscomplexobj(sys.c)
    ):
        raise ValueError("a real reduction requires real system matrices")

    sel = _resolve_selection(spectral, keep)
    r = len(sel)
    lam = spectral.eigenvalues

    if spectral.hermitian:
        sigma = spectral.right_eigenvectors[:, sel].copy()
        pi = sigma.conj().T.copy()
    else:
        v = _eigenbasis(spectral)
        cond_v = np.linalg.cond(v) if n else 1.0
        if not np.isfinite(cond_v) or cond_v > COND_LIMIT:
            raise ConditioningError(
                "eigenvector basis condition number %.3e exceeds the "
                "mode-truncation limit" % cond_v
            )
        # splitting a cluster of (numerically) equal eigenvalues would cut
        # through a Jordan chain; whole clusters travel together
        cluster_tol = max(spectral.zero_tol, np.sqrt(n * EPS) * max(opnorm(a), 1.0))
        dropped = [i for i in range(n) if i not in set(sel)]
        for i in sel:
            for j in dropped:
                if abs(lam[i] - lam[j]) <= cluster_tol:
                    raise InvalidSelectionError(
                        "selection splits the eigenvalue cluster near %s; "
                        "repeated modes must be kept or dropped together"
                        % lam[i]
                    )
        w = np.linalg.inv(v)
        sigma = v[:, sel]
        pi = w[sel, :]
        if real and np.iscomplexobj(sigma):
            t = _pairing_transform([lam[i] for i in sel], spectral.zero_tol)
            sigma = sigma @ t
            pi = t.conj().T @ pi
        # one refinement step pins pi sigma to the identity, which inv()
        # alone only achieves up to eps * cond(v)
        gram = pi @ sigma
        pi = np.linalg.solve(gram, pi)
        if real:
            imag_tol = max(1e-10, 1e3 * EPS * cond_v)
            sigma = real_part(sigma, "sigma", rtol=imag_tol)
            pi = real_part(pi, "pi", rtol=imag_tol)

    a_hat = pi @ a @ sigma
    b_hat = pi @ sys.b
    c_hat = sys.c @ sigma

    norm_a = opnorm(a)
    norm_pi = opnorm(pi)
    biorth = opnorm(pi @ sigma - np.eye(r))
    if biorth > 1e-10 * max(1.0, norm_pi):
        raise ConditioningError(
            "projection pair lost bi-orthogonality (defect %.3e)" % biorth
        )
    if r and numerical_rank(pi) != r:
        raise ConditioningError("pi is not surjective onto the reduced space")

    commut = opnorm(pi @ a - a_hat @ pi)
    if commut > 1e-8 * max(norm_a * norm_pi, EPS):
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
        a_hat=a_hat,
        b_hat=b_hat,
        c_hat=c_hat,
        commutativity_defect=float(commut),
        kernel_identity_defect=float(kernel_defect),
        kept_modes=tuple(sel),
        spectral=spectral,
    )


def check_invariance(sys, red, times):
    """Sampled defect of the intertwining pi exp(At) = exp(a_hat t) pi.

    Returns an InvarianceReport whose ``max_defect`` is the largest
    operator-norm discrepancy over the sample times.
    """
    a = sys.a
    norm_scale = max(opnorm(a) * opnorm(red.pi), EPS)
    if red.commutativity_defect > 1e-6 * norm_scale:
        raise PreconditionError(
            "reduction commutativity defect is too large for the "
            "invariance check to be meaningful"
        )
    times = tuple(float(t) for t in times)
    if not times:
        raise ValueError("times must be nonempty")
    full_at = propagator(a)
    reduced_at = propagator(red.a_hat)
    defects = []
    for t in times:
        defects.append(opnorm(red.pi @ full_at(t) - reduced_at(t) @ red.pi))
    defects = np.array(defects)
    return InvarianceReport(
        times=times, defects=defects, max_defect=float(defects.max())
    )


def controllability_matrix(a, b):
    """Block matrix [B, AB, ..., A^(n-1) B] with scaled powers.

    Each block is divided by norm(A)^k; per-block nonzero scaling leaves
    the rank unchanged while keeping entries at unit scale.
    """
    a = as_operator(a, "state matrix", square=True)
    b = as_operator(b, "input matrix")
    if b.shape[0] != a.shape[0]:
        raise DimensionError("input matrix row count must match the state size")
    n = a.shape[0]
    scale = max(opnorm(a), 1.0)
    blocks = [b]
    x = b
    for _ in range(n - 1):
        x = (a @ x) / scale
        blocks.append(x)
    return np.hstack(blocks) if blocks else b


def is_controllable(a, b, rank_tol=None):
    a = as_operator(a, "state matrix", square=True)
    if a.shape[0] == 0:
        return True
    ctrb = controllability_matrix(a, b)
    return numerical_rank(ctrb, rank_tol) == a.shape[0]


def check_preservation(sys, red):
    """Verify the reduced model keeps the stability class and controllability.

    Violations are reported in the returned flags, not raised: a flagged
    report signals a defective reduction for the caller to inspect. The
    original verdict is read from the record ``red`` carries; the reduced
    generator is classified from its eigenvalues alone.
    """
    original = red.spectral.verdict
    # a_hat = pi A sigma carries roundoff at the parent scale; a reduced
    # generator that is numerically zero must not be judged on its own norm
    carried = opnorm(sys.a) * max(opnorm(red.pi), 1.0) * max(opnorm(red.sigma), 1.0)
    zero_tol = default_zero_tol(sys.n, carried) if red.order else None
    reduced = spectral_data(red.a_hat, zero_tol).verdict
    semistability_ok = _STRENGTH[reduced] >= _STRENGTH[original]
    orig_ctrb = is_controllable(sys.a, sys.b)
    red_ctrb = is_controllable(red.a_hat, red.b_hat)
    return PreservationReport(
        original_verdict=original,
        reduced_verdict=reduced,
        semistability_preserved=bool(semistability_ok),
        original_controllable=bool(orig_ctrb),
        reduced_controllable=bool(red_ctrb),
        controllability_preserved=bool((not orig_ctrb) or red_ctrb),
    )


def trajectory_sync_defect(sys, red, x0, times):
    """Distance between the full trajectory and its lifted reduced twin.

    Returns norm(exp(At) x0 - sigma exp(a_hat t) pi x0) per sample time.
    For semistable systems with kernel modes kept, these defects decay
    exponentially at the spectral-gap rate.
    """
    if red.kernel_identity_defect > 1e-6:
        raise PreconditionError(
            "sigma pi must restrict to the identity on the kernel for "
            "trajectory synchronization to hold"
        )
    a = sys.a
    x0 = np.asarray(x0, dtype=np.complex128 if np.iscomplexobj(x0) else np.float64)
    x0 = x0.reshape(-1)
    if x0.shape[0] != sys.n:
        raise DimensionError(
            "initial state has length %d, expected %d" % (x0.shape[0], sys.n)
        )
    times = [float(t) for t in times]
    if not times:
        raise ValueError("times must be nonempty")
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    z0 = red.pi @ x0
    full_at = propagator(a)
    reduced_at = propagator(red.a_hat)
    defects = []
    for t in times:
        full = full_at(t) @ x0
        lifted = red.sigma @ (reduced_at(t) @ z0)
        defects.append(float(np.linalg.norm(full - lifted)))
    return np.array(defects)
