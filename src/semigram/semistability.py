"""Semistability classification and the limit operator of the semigroup.

A generator A is exponentially semistable when every trajectory of
``xdot = A x`` converges exponentially to an equilibrium in ker A that
depends on the initial condition. In finite dimensions this holds exactly
when every eigenvalue has nonpositive real part and each eigenvalue on the
imaginary axis is real (i.e. zero) and semisimple. The limit operator
``S_inf = lim exp(A t)`` is then a bounded idempotent onto ker A: the
orthogonal projector for self-adjoint A, an oblique spectral projector in
general. A self-adjoint A is analysed by numpy's ``eigh``; any other A on
its Schur form, whose LAPACK routines :mod:`semigram.lapack` wraps.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lapack
from .errors import ConditioningError, NotSemistableError
from .linalg import (
    EPS,
    as_operator,
    default_rank_tol,
    is_diagonal,
    opnorm_lower_bound,
)

__all__ = [
    "STABLE",
    "SEMISTABLE",
    "NOT_SEMISTABLE",
    "SpectralData",
    "LimitProjector",
    "DecayBound",
    "spectral_data",
]

STABLE = "stable"
SEMISTABLE = "semistable"
NOT_SEMISTABLE = "not_semistable"

# relative symmetry defect below which a generator is treated as self-adjoint
HERMITIAN_RTOL = 1e-10

# largest spectral projector bound 1 + |R| that mode_split accepts; also the
# eigenvector-basis condition number beyond which the controllability test
# (reduction.is_controllable), the only reader of eigenvectors of a
# non-self-adjoint A, refuses to invert them
COND_LIMIT = 1e12


def default_zero_tol(n, norm_a):
    """Threshold under which an eigenvalue's real/imaginary part counts as zero.

    Three orders of magnitude above dense-eigensolver backward error
    (n * eps * norm) and far below any physically meaningful spectral gap at
    desk scale, so the same default serves both rotated test fixtures and
    large spectral surrogates.
    """
    return 1e3 * max(n, 1) * EPS * max(norm_a, EPS)


def is_hermitian(a, norm_a):
    """Whether the Frobenius norm of A - A* is within HERMITIAN_RTOL of
    norm(A).

    The Frobenius norm is at least the spectral one, so no SVD is needed
    and the test is at least as strict as with the 2-norm.
    """
    defect = np.linalg.norm(a - a.conj().T)
    return defect <= HERMITIAN_RTOL * max(norm_a, EPS)


@dataclass(frozen=True)
class SpectralData:
    """Analysis record of one generator, built once by :func:`spectral_data`.

    ``a`` is the validated, read-only generator and ``norm_a`` its
    spectral norm. Modes are the ``eigenvalues``, sorted by descending
    real part (kernel modes first), then by ascending imaginary magnitude,
    so that conjugate pairs are adjacent and mode indices are stable
    across runs.

    The record holds one factorization of ``a``. For self-adjoint ``a``
    (``hermitian``) it is ``eigenvectors``, orthonormal, column i for
    mode i, and ``schur`` is None; ``norm_a`` and the orthonormal
    ``kernel_basis`` come from it, as the singular values are the
    eigenvalues' magnitudes. Otherwise they come from one SVD of ``a``,
    ``eigenvectors`` is None, and ``schur`` is the kernel-first Schur pair
    ``(T, Z)`` with ``a = Z T Z*`` (real Schur form for a real ``a``,
    complex otherwise), whose ``zero_eig_algebraic_multiplicity`` zero
    eigenvalues lead; the eigenvalues and every invariant subspace are
    read from it (:attr:`split`, :meth:`mode_split`). The certified limit
    operator ``projector``, the proven ``decay_bound``, the Schur
    ``split`` and the eigenvalue ``clusters`` are computed on first use
    and cached.
    """

    a: np.ndarray
    norm_a: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    schur: tuple | None
    kernel_basis: np.ndarray
    zero_eig_algebraic_multiplicity: int
    zero_tol: float
    zero_eig_semisimple: bool
    hermitian: bool

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def kernel_dim(self):
        return self.kernel_basis.shape[1]

    @property
    def failure_reason(self):
        """Why the semistability criterion fails, or None when it holds."""
        lam = self.eigenvalues
        tol = self.zero_tol
        if np.any(lam.real > tol):
            return "eigenvalue with positive real part"
        near_axis = np.abs(lam.real) <= tol
        if np.any(near_axis & (np.abs(lam.imag) > tol)):
            return "nonreal eigenvalue on the imaginary axis"
        if not self.zero_eig_semisimple:
            return "zero eigenvalue defective"
        if self.kernel_dim != self.zero_eig_algebraic_multiplicity:
            # the rank and eigenvalue tolerances disagree on what is zero
            return "kernel dimension %d differs from zero-eigenvalue count %d" % (
                self.kernel_dim, self.zero_eig_algebraic_multiplicity)
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
    def clusters(self):
        """Per mode, the smallest mode index in its cluster: the connected
        component of the graph joining eigenvalues within max(zero_tol,
        sqrt(n eps) max(|A|, 1)), so clusters lie farther apart than that."""
        lam = self.eigenvalues
        tol = max(self.zero_tol, np.sqrt(self.n * EPS) * max(self.norm_a, 1.0))
        close = np.abs(lam[:, None] - lam[None, :]) <= tol
        labels = np.arange(self.n)
        while True:  # each mode takes the smallest label among its neighbours
            joined = np.where(close, labels, self.n).min(axis=1, initial=self.n)
            if np.array_equal(joined, labels):
                return labels
            labels = joined

    @cached_property
    def split(self):
        """Ordered Schur split ``(T, Z, R)`` of a non-self-adjoint A that
        decouples the kernel.

        ``(T, Z)`` is the record's kernel-first :attr:`schur` pair: A = Z T
        Z* with T = [[T11, T12], [0, T22]] and the k zero eigenvalues in
        T11. R solves T11 R - R T22 = -T12, so that M = Z [[I, R], [0, I]]
        satisfies M^{-1} A M = diag(T11, T22). The Sylvester equation is
        solved by LAPACK ``?trsyl`` on the triangular blocks
        (:func:`_decouple`), which also covers a defective stable part,
        where no eigenvector basis exists.

        Raises
        ------
        ConditioningError
            If ``?trsyl`` reports the blocks too close to decouple.
        """
        t, z = self.schur
        r = _decouple(t, self.zero_eig_algebraic_multiplicity)
        r.flags.writeable = False  # every caller shares it
        return t, z, r

    def mode_split(self, modes, complex_form=False):
        """Schur vectors ``Z`` and coupling ``R`` with the given modes leading.

        ``modes`` are indices into the canonical order and must hold whole
        :attr:`clusters`. LAPACK ``?trsen`` reorders the record's
        :attr:`schur` pair so that the Schur positions whose nearest record
        eigenvalue is one of ``modes`` lead (:func:`_reorder`), and R
        decouples the leading m x m block as in :attr:`split`. Then
        Z[:, :m] and Z[:, :m]* - R Z[:, m:]* are a projection pair onto the
        modes' invariant subspace, and their product, the spectral
        projector, has norm at most 1 + |R|. A 2x2 block of a real Schur
        form moves whole, so m = R.shape[0] exceeds len(modes) when they
        split a conjugate pair; ``complex_form`` converts a real form to
        the complex one (``rsf2csf``) first, where every eigenvalue moves
        alone.

        Raises
        ------
        ConditioningError
            If ``?trsen`` or ``?trsyl`` fails, or 1 + |R|_F exceeds
            COND_LIMIT.
        """
        t, z = self.schur
        if complex_form and np.isrealobj(t):
            t, z = lapack.rsf2csf(t, z)
        t, z, m = _reorder(t, z, self.eigenvalues, modes)
        r = _decouple(t, m)
        bound = 1.0 + float(np.linalg.norm(r))
        if bound > COND_LIMIT:
            raise ConditioningError(
                "spectral projector bound 1 + |R| = %.3e exceeds the "
                "mode-truncation limit" % bound)
        return z, r

    @cached_property
    def projector(self):
        """The certified limit operator S_inf = lim exp(A t).

        For self-adjoint A this is the orthogonal projector K K* onto the
        kernel; for general semistable A it is the spectral projector
        Z_k (Z_k* - R Z_r*) read from the ordered Schur :attr:`split`,
        where Z_k and Z_r are the first k and the remaining columns of Z.

        Raises
        ------
        NotSemistableError
            If the record fails the semistability criterion.
        ConditioningError
            If no numerically trustworthy projector can be formed.
        """
        if self.verdict == NOT_SEMISTABLE:
            raise NotSemistableError(
                "limit operator requires a semistable generator (eigenvalue "
                "criterion failed at zero_tol=%.3e)" % self.zero_tol
            )
        s, norm_s, idem, annih = _projector_matrix(self)
        if idem > 1e-8 * norm_s + 1e-30:
            raise ConditioningError(
                "limit operator failed its idempotency certificate "
                "(defect %.3e, norm %.3e)" % (idem, norm_s)
            )
        if annih > 1e-8 * self.norm_a * norm_s + 1e-30:
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
    def decay_bound(self):
        """Proven bound norm(exp(A t) - S_inf) <= K exp(-mu' t) for t >= 0,
        as a :class:`DecayBound`; None if the record is not semistable.

        For self-adjoint or exactly diagonal A (:func:`is_diagonal`), and
        for A without decaying modes, norm(exp(A t) - S_inf) is exp(-mu t):
        K = 1 at the exact rate mu. Any other A takes the Lyapunov
        transient bound at mu' = mu / 2 (:func:`_transient_bound`).

        Raises
        ------
        ConditioningError
            If the transient bound fails its certificate.
        """
        if self.verdict == NOT_SEMISTABLE:
            return None
        if self.hermitian or is_diagonal(self.a) or not np.isfinite(self.mu):
            return DecayBound(constant=1.0, rate=self.mu)
        return _transient_bound(self)


@dataclass(frozen=True)
class LimitProjector:
    """The limit operator of the semigroup with its certificate defects.

    ``idempotency_defect`` is the Frobenius norm of S_inf^2 - S_inf and
    ``annihilation_defect`` the larger Frobenius norm of S_inf A and A S_inf.
    """

    s_inf: np.ndarray
    idempotency_defect: float
    annihilation_defect: float


@dataclass(frozen=True)
class DecayBound:
    """Proven decay bound norm(exp(A t) - S_inf) <= constant * exp(-rate t).

    The quadrature oracles truncate their integrals with it: an integrand
    quadratic in exp(A t) - S_inf decays like constant^2 exp(-2 rate t).
    """

    constant: float
    rate: float


def spectral_data(a, zero_tol=None):
    """Compute the analysis record of a generator.

    The record's verdict follows the eigenvalue criterion for exponential
    semistability in finite dimensions: all real parts nonpositive, any
    eigenvalue on the axis real and semisimple, and as many zero
    eigenvalues as kernel dimensions. A self-adjoint A is diagonalisable,
    so its zero is semisimple. Otherwise the Schur form is reordered once
    so that the zero eigenvalues lead, and zero is semisimple exactly when
    the leading block T11 vanishes (|T11|_F <= zero_tol), which avoids a
    fragile Jordan computation.

    Parameters
    ----------
    a : array_like
        Square generator matrix.
    zero_tol : float, optional
        Eigenvalue-component zero threshold; see :func:`default_zero_tol`.
        The kernel basis holds the singular vectors whose singular values
        are at most the larger of ``zero_tol`` and the standard rank
        tolerance ``n eps |A|``, so the eigenvalue and kernel notions of
        "zero" share one threshold; a kernel dimension that still differs
        from the zero-eigenvalue count makes the record not semistable.

    Returns
    -------
    SpectralData
    """
    a = as_operator(a, "generator", square=True)
    a.flags.writeable = False  # the record caches what it derives from a
    n = a.shape[0]
    # a proven lower bound of |A| as the scale keeps the test at least as
    # strict as with |A| itself, which is not known yet
    hermitian = is_hermitian(a, opnorm_lower_bound(a))
    if hermitian:
        # A = V diag(w) V*: the singular values are |w| and the rows of V*
        # are right singular vectors
        w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
        sv, vh = np.abs(w), v.conj().T
    else:
        # one SVD gives the spectral norm and the kernel
        sv, vh = np.linalg.svd(a)[1:]
    norm_a = float(sv.max()) if n else 0.0
    if zero_tol is None:
        zero_tol = default_zero_tol(n, norm_a)
    elif zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    kernel = vh[sv <= max(default_rank_tol((n, n), norm_a), zero_tol)].conj().T
    del vh  # not held through the factorization

    if hermitian:
        eigenvalues = w.astype(np.complex128)
    else:
        t, z = lapack.schur(a)
        eigenvalues = _schur_eigenvalues(t)

    order = np.lexsort(
        (np.arange(n), eigenvalues.imag, np.abs(eigenvalues.imag), -eigenvalues.real)
    )
    eigenvalues = eigenvalues[order]
    zero = (
        (np.abs(eigenvalues.real) <= zero_tol) & (np.abs(eigenvalues.imag) <= zero_tol)
    )
    algebraic = int(zero.sum())

    if hermitian:
        v, schur = v[:, order], None
        semisimple = True  # a self-adjoint A is diagonalisable
    else:
        # with the zero eigenvalues leading, T11 is A on their invariant
        # subspace, which is the kernel exactly when T11 = 0; they need not
        # lead the canonical order, which puts unstable modes first
        t, z, found = _reorder(t, z, eigenvalues, np.flatnonzero(zero))
        if found != algebraic:
            raise ConditioningError(
                "Schur reordering found %d kernel modes, spectral data found %d"
                % (found, algebraic))
        for m in (t, z):
            m.flags.writeable = False  # split and mode_split read them
        v, schur = None, (t, z)
        semisimple = np.linalg.norm(t[:algebraic, :algebraic]) <= zero_tol

    return SpectralData(
        a=a,
        norm_a=norm_a,
        eigenvalues=eigenvalues,
        eigenvectors=v,
        schur=schur,
        kernel_basis=kernel,
        zero_eig_algebraic_multiplicity=algebraic,
        zero_tol=float(zero_tol),
        zero_eig_semisimple=bool(semisimple),
        hermitian=hermitian,
    )


def _transient_bound(spectral):
    """The Lyapunov transient bound at rate mu' = mu / 2 (Trefethen &
    Embree, *Spectra and Pseudospectra*, 2005, ch. 14-15).

    F = A + mu' I - 2 mu' S_inf is Hurwitz, and exp(A t) - S_inf =
    exp(-mu' t) exp(F t) (I - S_inf). If X > 0 and -(F* X + X F) > 0, then
    x* X x decreases along x' = F x, so norm(exp(F t)) <= sqrt(cond X).
    The idempotent S_inf = Z [[I, -R], [0, 0]] Z* of the :attr:`split`
    gives norm(I - S_inf) = norm(S_inf) <= sqrt(1 + |R|_F^2) for 0 < k < n,
    and 1 for k = 0, which the same expression gives.

    In the split's Schur basis Z* F Z = [[T11 - mu' I, T12 + 2 mu' R],
    [0, T22 + mu' I]] is upper (quasi-)triangular, so F* X + X F = -I is
    one ?trsyl solve (:func:`_solve_transient_lyapunov`). The solution is
    certified in the original coordinates, with F formed from A and the
    certified S_inf: the Frobenius residual of F* X + X F = -I, plus the
    rounding of forming it, must be at most 1/2, so -(F* X + X F) is
    positive definite, and the least eigenvalue of X must exceed the
    eigensolver's backward error delta = n eps lambda_max. Then K =
    sqrt((lambda_max + delta) / (lambda_min - delta)) sqrt(1 + |R|_F^2).
    Raises ConditioningError if either check fails.
    """
    t, z, r = spectral.split
    n, k = spectral.n, r.shape[0]
    rate = 0.5 * spectral.mu
    f_schur = t + rate * np.eye(n)
    f_schur[:k, :k] -= 2.0 * rate * np.eye(k)
    f_schur[:k, k:] += 2.0 * rate * r
    x = z @ _solve_transient_lyapunov(f_schur) @ z.conj().T
    x = 0.5 * (x + x.conj().T)
    f = spectral.a - 2.0 * rate * spectral.projector.s_inf
    f[np.diag_indices(n)] += rate
    g = f.conj().T @ x
    g += g.conj().T
    g[np.diag_indices(n)] += 1.0
    frob = np.linalg.norm
    residual = float(frob(g)) + 2.0 * n * EPS * float(frob(f) * frob(x))
    if not residual <= 0.5:
        raise ConditioningError(
            "decay bound failed its Lyapunov certificate (residual %.3e "
            "exceeds 1/2)" % residual)
    lam = np.linalg.eigvalsh(x)
    delta = n * EPS * lam[-1]
    if not lam[0] > delta:
        raise ConditioningError(
            "decay bound failed its Lyapunov certificate (least eigenvalue "
            "%.3e of X within its backward error %.3e)" % (lam[0], delta))
    cond_x = (lam[-1] + delta) / (lam[0] - delta)
    constant = np.sqrt(cond_x * (1.0 + float(frob(r)) ** 2))
    return DecayBound(constant=float(constant), rate=rate)


def _solve_transient_lyapunov(f):
    """X with F* X + X F = -I for an upper (quasi-)triangular Hurwitz F,
    by one LAPACK ``?trsyl`` solve; raises ConditioningError when
    ``?trsyl`` reports F* and -F too close to separate."""
    return lapack.trsyl(f, f, -np.eye(f.shape[0], dtype=f.dtype),
                        "solve the decay bound's Lyapunov equation", trana="C")


def _decouple(t, k):
    """R with T11 R - R T22 = -T12 for the leading k x k block of a Schur
    form T, so that M = [[I, R], [0, I]] gives M^-1 T M = diag(T11, T22).

    Solved by LAPACK ``?trsyl`` on the triangular blocks, which also
    covers a defective T22, where no eigenvector basis exists. Raises
    ConditioningError when ``?trsyl`` reports the blocks too close to
    decouple.
    """
    n = t.shape[0]
    if k in (0, n):  # ?trsyl rejects empty blocks
        return np.zeros((k, n - k), dtype=t.dtype)
    return lapack.trsyl(t[:k, :k], t[k:, k:], -t[:k, k:],
                        "decouple the leading %d modes" % k, isgn=-1)


def _reorder(t, z, eigenvalues, modes):
    """Schur pair ``(T, Z)`` reordered by LAPACK ``?trsen`` so that the
    diagonal positions whose nearest of ``eigenvalues`` has an index in
    ``modes`` lead, and m, the number of leading positions (a 2x2 block of
    a real Schur form moves whole). Raises ConditioningError when
    ``?trsen`` fails.
    """
    # clusters lie farther apart than rounding moves an eigenvalue
    lam = _schur_eigenvalues(t)
    nearest = np.abs(lam[:, None] - eigenvalues[None, :]).argmin(axis=1)
    return lapack.trsen(np.isin(nearest, modes), t, z)


def _schur_eigenvalues(t):
    """Eigenvalues of a Schur form in diagonal order.

    LAPACK returns real Schur forms standardized: a 2x2 diagonal block
    [[a, b], [c, a]] has bc < 0 and the eigenvalues a +- i sqrt(-bc).
    """
    lam = np.diagonal(t).astype(np.complex128)
    if np.isrealobj(t):
        first = np.flatnonzero(np.diagonal(t, -1))
        root = np.sqrt(-np.diagonal(t, 1)[first] * np.diagonal(t, -1)[first])
        lam[first] += 1j * root
        lam[first + 1] -= 1j * root
    return lam


def _projector_matrix(spectral):
    """S_inf with a proven lower bound on its spectral norm and the
    Frobenius norms of its idempotency and annihilation defects (at least
    the spectral norms, so the gates they feed are at least as strict);
    the measurement is the certificate :attr:`SpectralData.projector`
    checks."""
    a, k = spectral.a, spectral.kernel_dim
    if k == 0:
        s = np.zeros_like(a)
    elif spectral.hermitian:
        s = spectral.kernel_basis @ spectral.kernel_basis.conj().T
    else:
        _, z, r = spectral.split
        z_k, z_r = z[:, :k], z[:, k:]
        s = z_k @ (z_k.conj().T - r @ z_r.conj().T)
    frob = np.linalg.norm
    return (s, opnorm_lower_bound(s), float(frob(s @ s - s)),
            float(max(frob(s @ a), frob(a @ s))))

