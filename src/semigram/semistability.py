"""Semistability classification and the limit operator of the semigroup.

A generator A is exponentially semistable when every trajectory of
``xdot = A x`` converges exponentially to an equilibrium in ker A that
depends on the initial condition. In finite dimensions this holds exactly
when every eigenvalue has nonpositive real part and each eigenvalue on the
imaginary axis is real (i.e. zero) and semisimple. The limit operator
``S_inf = lim exp(A t)`` is then a bounded idempotent onto ker A: the
orthogonal projector for self-adjoint A, an oblique spectral projector in
general.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConditioningError, NotSemistableError
from .linalg import (
    EPS,
    _svd_split,
    as_operator,
    default_rank_tol,
    opnorm,
    propagator,
    real_part,
)

__all__ = [
    "STABLE",
    "SEMISTABLE",
    "NOT_SEMISTABLE",
    "SpectralData",
    "LimitProjector",
    "spectral_data",
    "classify",
    "limit_projector",
    "decay_defect",
]

STABLE = "stable"
SEMISTABLE = "semistable"
NOT_SEMISTABLE = "not_semistable"

# relative symmetry defect below which a generator is treated as self-adjoint
HERMITIAN_RTOL = 1e-10

# eigenvector-basis condition number beyond which the oblique-projector
# construction switches to the kernel-pair fallback
COND_LIMIT = 1e12


def default_zero_tol(n, norm_a):
    """Threshold under which an eigenvalue's real/imaginary part counts as zero.

    Three orders of magnitude above dense-eigensolver backward error
    (n * eps * norm) and far below any physically meaningful spectral gap at
    desk scale, so the same default serves both rotated test fixtures and
    large spectral surrogates.
    """
    return 1e3 * max(n, 1) * EPS * max(norm_a, EPS)


def is_hermitian(a, rtol=HERMITIAN_RTOL):
    defect = opnorm(a - a.conj().T)
    return defect <= rtol * max(opnorm(a), EPS)


@dataclass(frozen=True)
class SpectralData:
    """Analysis record of one generator, built once by :func:`spectral_data`.

    ``a`` is the validated, read-only generator. ``eigenvalues[i]``
    corresponds to column i of ``right_eigenvectors``; modes are sorted by
    descending real part (kernel modes first), then by ascending imaginary
    magnitude, so that conjugate pairs are adjacent and mode indices are
    stable across runs. The certified limit operator ``projector`` and the
    sampled ``overshoot_m`` are computed on first use and cached.
    """

    a: np.ndarray
    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    kernel_basis: np.ndarray
    zero_eig_algebraic_multiplicity: int
    zero_eig_geometric_multiplicity: int
    zero_tol: float
    zero_eig_semisimple: bool
    hermitian: bool

    @property
    def n(self):
        return self.right_eigenvectors.shape[0]

    @property
    def kernel_dim(self):
        return self.zero_eig_geometric_multiplicity

    @property
    def failure_reason(self):
        """Why the semistability criterion fails, or None when it holds."""
        lam = self.eigenvalues
        tol = self.zero_tol
        if np.any(lam.real > tol):
            return "eigenvalue with positive real part"
        if np.all(lam.real < -tol):
            return None
        near_axis = np.abs(lam.real) <= tol
        if np.any(near_axis & (np.abs(lam.imag) > tol)):
            return "nonreal eigenvalue on the imaginary axis"
        if not self.zero_eig_semisimple:
            return "zero eigenvalue defective"
        return None

    @property
    def verdict(self):
        if self.failure_reason is not None:
            return NOT_SEMISTABLE
        if np.all(self.eigenvalues.real < -self.zero_tol):
            return STABLE
        return SEMISTABLE

    @property
    def mu(self):
        """Slowest decay rate of the non-kernel modes (inf if there are none)."""
        real = self.eigenvalues.real
        decaying = real[real < -self.zero_tol]
        return float(-decaying.max()) if decaying.size else float("inf")

    @cached_property
    def projector(self):
        """The certified limit operator; see :func:`limit_projector`."""
        if self.verdict == NOT_SEMISTABLE:
            raise NotSemistableError(
                "limit operator requires a semistable generator (eigenvalue "
                "criterion failed at zero_tol=%.3e)" % self.zero_tol
            )
        a = self.a
        s = _projector_matrix(a, self)
        norm_s = opnorm(s)
        idem = opnorm(s @ s - s)
        annih = max(opnorm(s @ a), opnorm(a @ s))
        if idem > 1e-8 * norm_s + 1e-30:
            raise ConditioningError(
                "limit operator failed its idempotency certificate "
                "(defect %.3e, norm %.3e)" % (idem, norm_s)
            )
        if annih > 1e-8 * opnorm(a) * norm_s + 1e-30:
            raise ConditioningError(
                "limit operator failed its annihilation certificate "
                "(defect %.3e)" % annih
            )
        # every caller shares this array
        s.flags.writeable = False
        return LimitProjector(
            s_inf=s, idempotency_defect=idem, annihilation_defect=annih
        )

    @cached_property
    def overshoot_m(self):
        """Sampled sup of norm(exp(A t) - S_inf) * exp(mu t).

        An estimate, not a certificate; None for non-semistable generators.
        """
        if self.verdict == NOT_SEMISTABLE:
            return None
        if not np.isfinite(self.mu):
            return 1.0
        return _estimate_overshoot(self.a, self.projector.s_inf, self.mu)


@dataclass(frozen=True)
class LimitProjector:
    """The limit operator of the semigroup with its certificate defects."""

    s_inf: np.ndarray
    idempotency_defect: float
    annihilation_defect: float


def spectral_data(a, zero_tol=None, rank_tol=None):
    """Compute the analysis record of a generator.

    Parameters
    ----------
    a : array_like
        Square generator matrix.
    zero_tol : float, optional
        Eigenvalue-component zero threshold; see :func:`default_zero_tol`.
    rank_tol : float, optional
        Singular-value threshold for the kernel basis. Defaults to the
        larger of the standard rank tolerance and ``zero_tol`` so the
        eigenvalue and kernel notions of "zero" stay consistent.

    Returns
    -------
    SpectralData
    """
    a = as_operator(a, "generator", square=True)
    a.flags.writeable = False  # the record caches what it derives from a
    n = a.shape[0]
    norm_a = opnorm(a)
    if zero_tol is None:
        zero_tol = default_zero_tol(n, norm_a)
    elif zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")

    hermitian = is_hermitian(a)
    if hermitian:
        w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
        eigenvalues = w.astype(np.complex128)
        if np.isrealobj(a):
            v = v.real if np.isrealobj(v) else real_part(v, "eigenvectors")
    else:
        eigenvalues, v = np.linalg.eig(a)

    order = np.lexsort(
        (np.arange(n), eigenvalues.imag, np.abs(eigenvalues.imag), -eigenvalues.real)
    )
    eigenvalues = eigenvalues[order]
    v = v[:, order]

    if rank_tol is None:
        rank_tol = max(default_rank_tol((n, n), norm_a), zero_tol)
    _, kernel, decision = _svd_split(a, rank_tol)
    geometric = kernel.shape[1]
    algebraic = int(
        np.sum(
            (np.abs(eigenvalues.real) <= zero_tol)
            & (np.abs(eigenvalues.imag) <= zero_tol)
        )
    )

    # zero is semisimple iff squaring does not deepen the null space; the
    # rank of A^2 is taken relative to norm(A)^2 so that rounding noise in
    # the computed square (~eps * norm^2) cannot masquerade as rank
    if geometric == 0:
        semisimple = True
    else:
        a2 = a @ a
        tol2 = max(n * EPS * norm_a**2, zero_tol**2)
        s2 = np.linalg.svd(a2, compute_uv=False)
        rank_a2 = int(np.sum(s2 > tol2))
        semisimple = rank_a2 == decision.numerical_rank

    return SpectralData(
        a=a,
        eigenvalues=eigenvalues,
        right_eigenvectors=v,
        kernel_basis=kernel,
        zero_eig_algebraic_multiplicity=algebraic,
        zero_eig_geometric_multiplicity=geometric,
        zero_tol=float(zero_tol),
        zero_eig_semisimple=bool(semisimple),
        hermitian=hermitian,
    )


def classify(a, zero_tol=None):
    """Classify a generator as stable, semistable, or neither.

    The verdict follows the eigenvalue criterion for exponential
    semistability in finite dimensions: all real parts nonpositive, any
    eigenvalue on the axis real and semisimple (semisimplicity decided by
    comparing the numerical ranks of A and A^2, which avoids a fragile
    Jordan computation).

    Returns
    -------
    SpectralData
        The analysis record, carrying the verdict and its failure reason.
    """
    return spectral_data(a, zero_tol)


def _estimate_overshoot(a, s_inf, mu):
    """Sampled sup of norm(exp(At) - S_inf) * exp(mu t) on a log-spaced grid.

    The grid stops at 15/mu: beyond that, exp(mu t) amplifies rounding in
    the decayed propagator rather than measuring a transient.
    """
    at = propagator(a)
    times = np.concatenate(([0.0], np.geomspace(0.01 / mu, 15.0 / mu, 25)))
    est = 0.0
    for t in times:
        est = max(est, opnorm(at(t) - s_inf) * np.exp(mu * t))
    return max(est, EPS)


def _kernel_pair_projector(a, spectral):
    """Oblique projector onto ker A along range A from right/left kernels.

    Valid whenever the zero eigenvalue is semisimple, including generators
    whose nonzero part is defective (where the eigenvector basis is
    singular and the primary construction is unavailable).
    """
    k = spectral.kernel_basis
    _, l_basis, _ = _svd_split(a.conj().T, max(
        default_rank_tol(a.shape, opnorm(a)), spectral.zero_tol))
    if l_basis.shape[1] != k.shape[1]:
        raise ConditioningError(
            "left and right kernel dimensions disagree (%d vs %d)"
            % (l_basis.shape[1], k.shape[1])
        )
    gram = l_basis.conj().T @ k
    if k.shape[1] and np.linalg.cond(gram) > COND_LIMIT:
        raise ConditioningError(
            "kernel-pair projector is numerically singular; the zero "
            "eigenvalue may not be semisimple at this tolerance"
        )
    return k @ np.linalg.solve(gram, l_basis.conj().T)


def _projector_quality(a, s):
    norm_s = opnorm(s)
    idem = opnorm(s @ s - s) / max(norm_s, EPS)
    annih = max(opnorm(s @ a), opnorm(a @ s)) / max(opnorm(a) * norm_s, EPS)
    return max(idem, annih)


def _projector_matrix(a, spectral):
    n = spectral.n
    k = spectral.kernel_basis
    if k.shape[1] == 0:
        return np.zeros((n, n)) if np.isrealobj(a) else np.zeros((n, n), complex)
    if spectral.hermitian:
        s = k @ k.conj().T
        return real_part(s, "limit operator") if np.isrealobj(a) else s
    # primary: spectral projector in the eigenvector basis; a nearly
    # defective stable part degrades it quietly, so the measured defects
    # decide whether the kernel-pair construction should take over
    v = spectral.right_eigenvectors
    indicator = (spectral.eigenvalues.real > -spectral.zero_tol).astype(np.float64)
    s = None
    if np.isfinite(np.linalg.cond(v)) and np.linalg.cond(v) <= COND_LIMIT:
        s = v @ (indicator[:, None] * np.linalg.inv(v))
    if s is None or _projector_quality(a, s) > 1e-11:
        try:
            fallback = _kernel_pair_projector(a, spectral)
        except ConditioningError:
            if s is None:
                raise
        else:
            if s is None or _projector_quality(a, fallback) < _projector_quality(a, s):
                s = fallback
    if np.isrealobj(a):
        s = real_part(s, "limit operator")
    return s


def limit_projector(a, spectral):
    """The certified limit operator S_inf = lim exp(A t) of a generator.

    For self-adjoint A this is the orthogonal projector K K* onto the
    kernel; for general semistable A it is the spectral projector
    V diag(kernel indicator) V^{-1}, with a kernel-pair fallback when the
    eigenvector basis is too ill-conditioned to invert. It is built once
    per record, on first use, and cached there.

    Parameters
    ----------
    a : array_like
        Square generator, previously classified stable or semistable.
    spectral : SpectralData
        Output of :func:`spectral_data` for the same matrix.

    Raises
    ------
    NotSemistableError
        If the spectral data does not support a (semi)stable verdict.
    ConditioningError
        If the record belongs to another generator, or if no numerically
        trustworthy projector can be formed.
    """
    a = as_operator(a, "generator", square=True)
    if not np.array_equal(a, spectral.a):
        raise ConditioningError(
            "spectral data was computed for a different generator"
        )
    return spectral.projector


def decay_defect(a, s_inf, times):
    """norm(exp(A t) - S_inf) at each sample time.

    Semistability is equivalent to these defects decaying like
    ``L * exp(-mu t)``; tests sample this directly.
    """
    at = propagator(a)
    s = s_inf.s_inf if isinstance(s_inf, LimitProjector) else as_operator(s_inf)
    times = [float(t) for t in times]
    if not times:
        raise ValueError("times must be nonempty")
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    return np.array([opnorm(at(t) - s) for t in times])
