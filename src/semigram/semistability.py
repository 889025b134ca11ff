"""Semistability classification and the limit operator of the semigroup.

A generator A is exponentially semistable when every trajectory of
``xdot = A x`` converges exponentially to an equilibrium in ker A that
depends on the initial condition. In finite dimensions this holds exactly
when every eigenvalue has nonpositive real part and each eigenvalue on the
imaginary axis is real (i.e. zero) and semisimple. The limit operator
``S_inf = lim exp(A t)`` is then a bounded idempotent onto ker A: the
orthogonal projector for self-adjoint A, an oblique spectral projector in
general. A self-adjoint diagonal A is its own eigendecomposition; any
other self-adjoint A is analysed by numpy's ``eigh``, and any other A on
its Schur form, whose LAPACK routines :mod:`semigram.lapack` wraps.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lapack
from .errors import (
    ConditioningError,
    DimensionError,
    InvalidSelectionError,
    NotSemistableError,
)
from .linalg import (
    EPS,
    as_operator,
    default_rank_tol,
    hermitian_part,
    opnorm,
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
    "is_controllable",
]

STABLE = "stable"
SEMISTABLE = "semistable"
NOT_SEMISTABLE = "not_semistable"

# relative symmetry defect below which a generator is treated as self-adjoint
HERMITIAN_RTOL = 1e-10

# largest spectral projector bound 1 + |R| that projection_pair accepts
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

    ``diagonal`` says whether every off-diagonal entry of ``a`` is zero;
    it is decided once, here, and every other module reads it. The record
    holds one factorization of ``a``. For self-adjoint ``a``
    (``hermitian``) it is ``eigenvectors``, orthonormal, column i for
    mode i, and ``schur`` is None; ``norm_a`` and the orthonormal
    ``kernel_basis`` come from it, as the singular values are the
    eigenvalues' magnitudes. A self-adjoint diagonal ``a`` is its own
    eigendecomposition: the eigenvalues are its diagonal and the
    eigenvectors the identity's columns, in ``a``'s dtype, so modes with
    equal eigenvalues keep their diagonal order. Otherwise ``norm_a`` and
    ``kernel_basis`` come from one SVD of ``a``, ``eigenvectors`` is
    None, and ``schur`` is the kernel-first Schur pair ``(T, Z)`` with
    ``a = Z T Z*`` (real Schur form for a real ``a``, complex otherwise),
    whose ``zero_eig_algebraic_multiplicity`` zero eigenvalues lead; the
    eigenvalues and every invariant subspace are read from it. The
    certified limit operator ``projector``, held as its rank-k factor pair
    sigma pi and applied at O(n^2 k), the proven ``decay_bound``, the
    Schur ``split`` and the eigenvalue ``clusters`` are computed on first
    use and cached. No other module reads which factorization the record
    holds: they take :meth:`projection_pair`, :meth:`solve_lyapunov` and
    the controllability test :func:`is_controllable`.
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
    diagonal: bool

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

    def projection_pair(self, modes, real=True):
        """Projection pair ``(sigma, pi)`` of the modes' invariant subspace:
        sigma has orthonormal columns, pi sigma = I, and sigma pi is the
        spectral projector onto the modes (indices in canonical order).

        For self-adjoint A, sigma is the modes' eigenvectors and pi =
        sigma*. Otherwise ``modes`` must hold whole :attr:`clusters`;
        LAPACK ``?trsen`` reorders the :attr:`schur` pair so that the
        positions whose nearest record eigenvalue is one of ``modes`` lead
        (:func:`_reorder`), R decouples them as in :attr:`split`, and
        |sigma pi| <= 1 + |R| (:func:`_projection_pair`). A 2x2 block of
        a real Schur form moves whole; ``real=False`` converts to the
        complex form (``rsf2csf``) first, where every eigenvalue moves alone.

        Raises
        ------
        InvalidSelectionError
            If A is not self-adjoint and ``modes`` split a cluster, or
            with ``real`` a conjugate pair.
        ConditioningError
            If ``?trsen`` or ``?trsyl`` fails, or 1 + |R|_F exceeds
            COND_LIMIT.
        """
        if self.hermitian:
            sigma = self.eigenvectors[:, modes].copy()
            return sigma, sigma.conj().T.copy()
        # splitting a cluster of (numerically) equal eigenvalues would cut
        # through a Jordan chain; whole clusters travel together
        labels = self.clusters
        split = np.isin(labels[modes], np.delete(labels, modes))
        if split.any():
            raise InvalidSelectionError(
                "selection splits the eigenvalue cluster near %s; "
                "repeated modes must be kept or dropped together"
                % self.eigenvalues[modes[np.argmax(split)]]
            )
        t, z = self.schur
        if not real and np.isrealobj(t):
            t, z = lapack.rsf2csf(t, z)
        t, z, m = _reorder(t, z, self.eigenvalues, modes)
        r = _decouple(t, m)
        bound = 1.0 + float(np.linalg.norm(r))
        if bound > COND_LIMIT:
            raise ConditioningError(
                "spectral projector bound 1 + |R| = %.3e exceeds the "
                "mode-truncation limit" % bound)
        if m != len(modes):
            raise InvalidSelectionError(
                "a real-valued reduction must keep or drop complex "
                "conjugate eigenvalue pairs together"
            )
        return _projection_pair(z, r)

    def solve_lyapunov(self, q):
        """W core W*, the P with A P + P A* = -Q and S_inf P = 0 for
        Q = (I - S_inf) Q (I - S_inf)*, with W spanning the stable modes.

        For self-adjoint A, W holds the stable eigenvectors and core_ij =
        (W* Q W)_ij / -(lambda_i + lambda_j). When A is also
        :attr:`diagonal`, W is the identity's columns at the stable modes'
        diagonal positions s, so W* Q W is the selection Q[s][:, s] and
        W core W* a scatter into zeros: indexing, with no product, that
        gives the products' values exactly. Otherwise M = Z [[I, R],
        [0, I]] of the :attr:`split` gives M^-1 A M = diag(T11, T22), so
        P = M diag(0, P22) M*: W = Z_k R + Z_r, and core = P22 solves
        T22 P22 + P22 T22* = -Z_r* Q Z_r by one ``?trsyl`` back
        substitution (the second half of Bartels & Stewart's method).
        Without stable modes (k = n, n = 0 included) W has no columns and
        either route gives P = 0, with no branch: :func:`lapack.trsyl`
        returns the empty P22 of an empty T22.
        Raises ConditioningError if the split or that solve fails.
        """
        if self.hermitian:
            k = self.kernel_dim
            w = self.eigenvectors[:, k:]
            lam = self.eigenvalues.real[k:]
            divisor = -(lam[:, None] + lam[None, :])
            if self.diagonal:
                # column j of W is e_s[j]: s[j] is the row of its one
                # nonzero, read with no reduction over an empty axis
                s = np.nonzero(w.T)[1]
                block = np.ix_(s, s)
                core = hermitian_part(q[block]) / divisor
                p = np.zeros(q.shape, dtype=np.result_type(w, core))
                p[block] = core
                return p
            core = hermitian_part(w.conj().T @ q @ w) / divisor
        else:
            t, z, r = self.split
            k = r.shape[0]
            z_r, t22 = z[:, k:], t[k:, k:]
            q22 = hermitian_part(z_r.conj().T @ q @ z_r)
            core = hermitian_part(lapack.trsyl(
                t22, t22, -q22, "solve the stable block's Lyapunov equation",
                tranb="C"))
            w = z[:, :k] @ r + z_r
        return w @ core @ w.conj().T

    @cached_property
    def projector(self):
        """The certified limit operator S_inf = lim exp(A t), held as its
        rank-k factor pair (:class:`LimitProjector`).

        For self-adjoint A, S_inf is the orthogonal projector K K* onto
        the kernel, sigma = K and pi = K*; for general semistable A it is
        the spectral projector Z_k (Z_k* - R Z_r*) of the ordered Schur
        :attr:`split`, sigma = Z_k and pi = Z_k* - R Z_r*, where Z_k and
        Z_r are the first k and the remaining columns of Z.

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
        sigma, pi, norm_s, idem, annih = _limit_factors(self)
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
        for m in (sigma, pi):
            m.flags.writeable = False  # every caller shares them
        return LimitProjector(
            sigma=sigma, pi=pi, idempotency_defect=idem, annihilation_defect=annih
        )

    @cached_property
    def decay_bound(self):
        """Proven bound norm(exp(A t) - S_inf) <= K exp(-mu' t) for t >= 0,
        as a :class:`DecayBound`; None if the record is not semistable.

        For self-adjoint or exactly diagonal A (:attr:`diagonal`, so a
        complex diagonal A too), and for A without decaying modes,
        norm(exp(A t) - S_inf) is exp(-mu t): K = 1 at the exact rate mu. Any other A takes the Lyapunov
        transient bound at mu' = mu / 2 (:func:`_transient_bound`).

        Raises
        ------
        ConditioningError
            If the transient bound fails its certificate.
        """
        if self.verdict == NOT_SEMISTABLE:
            return None
        if self.hermitian or self.diagonal or not np.isfinite(self.mu):
            return DecayBound(constant=1.0, rate=self.mu)
        return _transient_bound(self)


@dataclass(frozen=True)
class LimitProjector:
    """The limit operator of the semigroup with its certificate defects.

    S_inf, of rank k = dim ker A, is held as the factor pair
    S_inf = sigma pi: ``sigma`` (n x k) has orthonormal columns spanning
    ker A and ``pi`` (k x n) satisfies pi sigma = I, so a product with
    S_inf costs O(n^2 k) as sigma (pi X) (:meth:`apply`) and no n x n
    matrix is stored. ``idempotency_defect`` is the Frobenius norm of
    S_inf^2 - S_inf and ``annihilation_defect`` the larger Frobenius norm
    of S_inf A and A S_inf.
    """

    sigma: np.ndarray
    pi: np.ndarray
    idempotency_defect: float
    annihilation_defect: float

    @property
    def s_inf(self):
        """S_inf as an n x n matrix, sigma pi, formed at O(n^2 k) on every
        read; :meth:`apply` multiplies by it without forming it."""
        return self.sigma @ self.pi

    def apply(self, x):
        """S_inf X = sigma (pi X), at O(n k m) for an n x m X."""
        return self.sigma @ (self.pi @ x)


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
    so its zero is semisimple; a self-adjoint diagonal A takes its
    eigenvalues off its diagonal, with no eigensolver. Otherwise the Schur
    form is reordered once so that the zero eigenvalues lead, and zero is
    semisimple exactly when the leading block T11 vanishes
    (|T11|_F <= zero_tol), which avoids a fragile Jordan computation.

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
    # counts the off-diagonal nonzeros without an n x n temporary
    diagonal = bool(np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)))
    # a proven lower bound of |A| as the scale keeps the test at least as
    # strict as with |A| itself, which is not known yet
    hermitian = is_hermitian(a, opnorm_lower_bound(a))
    if hermitian:
        # A = V diag(w) V*: the singular values are |w| and the rows of V*
        # are right singular vectors; a diagonal A has V = I
        if diagonal:
            w, v = np.diagonal(a).real, np.eye(n, dtype=a.dtype)
        else:
            w, v = np.linalg.eigh(hermitian_part(a))
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
            m.flags.writeable = False  # split and projection_pair read them
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
        diagonal=diagonal,
    )


def is_controllable(spectral, b):
    """Popov-Belevitch-Hautus test of (A, B) over the analysis record of A.

    (A, B) is controllable iff no left eigenvector of A is orthogonal to
    every column of B (Hautus 1969). Each cluster of numerically equal
    eigenvalues (:attr:`SpectralData.clusters`), of m modes, takes a basis
    L of its left invariant subspace with orthonormal rows, read from the
    record's one factorization: rows of V* for self-adjoint A. Otherwise a
    one-mode cluster's row is its unit left eigenvector from LAPACK
    ``ztrevc`` on the complex Schur form (:func:`lapack.trevc`); a larger
    cluster's rows, the kernel cluster's too, are the pi of its
    :meth:`SpectralData.projection_pair` on the complex Schur form,
    orthonormalized, whatever the verdict. So no eigenvector basis of a
    repeated or nearly defective eigenvalue is ever formed.

    With T = L A L*, a left eigenvector of the cluster is y L with y T =
    mu y, so the cluster passes iff [T - lam_c I, L B] has full row rank
    m, lam_c = trace(T) / m being the mean of T's eigenvalues. The rank is
    taken at

        delta = spread + |L A - T L|_F + n eps (|A| + |B|),

    the spread max |lam - lam_c| of the cluster's eigenvalues, the
    measured residual of L, and the rounding of forming T and L B (2-norms
    of A and B). If B misses the left eigenvector y L, the block has the
    singular value |mu - lam_c|, within the spread. Conversely a unit y
    with |y [T - lam_c I, L B]| <= delta makes w = y L a unit vector with
    |w [A - lam_c I, B]| <= delta + |L A - T L|: a False answer certifies
    that (A, B) lies that close to an uncontrollable pair (Paige 1981;
    Eising 1984), whatever the condition number of the eigenvectors.

    Raises
    ------
    DimensionError
        If B's row count is not A's.
    ConditioningError
        If a cluster's :meth:`SpectralData.projection_pair` fails.
    """
    b = as_operator(b, "input matrix")
    n = spectral.n
    if b.shape[0] != n:
        raise DimensionError("input matrix row count must match the state size")
    scale = n * EPS * (spectral.norm_a + opnorm(b))
    labels = spectral.clusters
    sizes = np.bincount(labels)[labels]
    if not spectral.hermitian:
        lam, rows = lapack.trevc(*spectral.schur)
        row_of = np.empty(n, dtype=int)
        row_of[_modes_of(lam, spectral.eigenvalues)] = np.arange(n)
    controllable = True
    # the sizes present; np.unique's first call adds about 1 MB of RSS
    for m in np.flatnonzero(np.bincount(sizes)):
        modes = np.flatnonzero(sizes == m)
        modes = modes[np.argsort(labels[modes], kind="stable")].reshape(-1, m)
        if spectral.hermitian:
            left = spectral.eigenvectors.T[modes].conj()
        elif m == 1:
            left = rows[row_of[modes]]
            left /= np.linalg.norm(left, axis=2, keepdims=True)
        else:
            left = np.stack([spectral.projection_pair(cluster, real=False)[1]
                             for cluster in modes])
            left = np.linalg.qr(left.conj().swapaxes(1, 2))[0].conj().swapaxes(1, 2)
        # one product of all rows with A, and one with B, not one per cluster
        left_a = (left.reshape(-1, n) @ spectral.a).reshape(left.shape)
        t = left_a @ left.conj().swapaxes(1, 2)
        left_a -= t @ left
        residual = np.linalg.norm(left_a, axis=(1, 2))
        # trace(T) / m keeps a real T's block real
        mean = np.trace(t, axis1=1, axis2=2)[:, None] / m
        spread = np.abs(spectral.eigenvalues[modes] - mean).max(axis=1)
        delta = spread + residual + scale
        left_b = (left.reshape(-1, n) @ b).reshape(*modes.shape, -1)
        block = np.concatenate((t - mean[:, :, None] * np.eye(m), left_b), axis=2)
        if m == 1:  # the one singular value of a row is its norm
            smallest = np.linalg.norm(block[:, 0], axis=1)
        else:
            smallest = np.linalg.svd(block, compute_uv=False)[:, m - 1]
        # a later size may still raise, so none returns early
        controllable &= not np.any(smallest <= delta)
    return controllable


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
    certified S_inf (the one n x n sigma pi the package forms, at
    O(n^2 k)): the Frobenius residual of F* X + X F = -I, plus the
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
    x = hermitian_part(x)
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
    covers a defective T22, where no eigenvector basis exists; for k = 0
    or k = n one block is empty and :func:`lapack.trsyl` returns the
    empty R. Raises ConditioningError when ``?trsyl`` reports the blocks
    too close to decouple.
    """
    return lapack.trsyl(t[:k, :k], t[k:, k:], -t[:k, k:],
                        "decouple the leading %d modes" % k, isgn=-1)


def _reorder(t, z, eigenvalues, modes):
    """Schur pair ``(T, Z)`` reordered by LAPACK ``?trsen`` so that the
    diagonal positions of ``modes`` (:func:`_modes_of`) lead, and m, the
    number of leading positions (a 2x2 block of a real Schur form moves
    whole). Raises ConditioningError when ``?trsen`` fails.
    """
    owner = _modes_of(_schur_eigenvalues(t), eigenvalues)
    return lapack.trsen(np.isin(owner, modes), t, z)


def _modes_of(lam, eigenvalues):
    """Per eigenvalue in ``lam``, the index of its nearest of ``eigenvalues``:
    the mode that a Schur position or a left eigenvector belongs to.
    Clusters lie farther apart than rounding moves an eigenvalue, so the
    match is exact up to the cluster."""
    return np.abs(lam[:, None] - eigenvalues[None, :]).argmin(axis=1)


def _projection_pair(z, r):
    """The projection pair (Z[:, :m], Z[:, :m]* - R Z[:, m:]*) of the
    leading m modes of a Schur basis Z that the coupling R decouples;
    sigma is a copy, as a view would keep all of Z alive."""
    m = r.shape[0]
    sigma = z[:, :m].copy()
    return sigma, sigma.conj().T - r @ z[:, m:].conj().T


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


def _limit_factors(spectral):
    """The factor pair (sigma, pi) of S_inf with a proven lower bound on
    |S_inf|_2 and the Frobenius norms of its idempotency and annihilation
    defects (at least the spectral norms, so the gates they feed are at
    least as strict); the measurement is the certificate
    :attr:`SpectralData.projector` checks.

    Every product is with an n x k or k x n factor, O(n^2 k) in all:
    S_inf^2 - S_inf = sigma ((pi sigma - I) pi), S_inf A = sigma (pi A)
    and A S_inf = (A sigma) pi. As |sigma pi x| >= s_min(sigma) |pi x| and
    s_min(sigma)^2 >= 1 - |sigma* sigma - I|_F, the lower bound of |pi|_2
    (:func:`opnorm_lower_bound`) times the square root of the latter, or 0,
    bounds |S_inf|_2 from below.
    """
    a, k = spectral.a, spectral.kernel_dim
    if spectral.hermitian:
        sigma = spectral.kernel_basis.copy()
        pi = sigma.conj().T.copy()
    else:
        sigma, pi = _projection_pair(*spectral.split[1:])
    frob = np.linalg.norm
    eye = np.eye(k)
    spread = float(frob(sigma.conj().T @ sigma - eye))
    norm_s = opnorm_lower_bound(pi) * np.sqrt(max(1.0 - spread, 0.0))
    idem = float(frob(sigma @ ((pi @ sigma - eye) @ pi)))
    annih = float(max(frob(sigma @ (pi @ a)), frob((a @ sigma) @ pi)))
    return sigma, pi, float(norm_s), idem, annih
