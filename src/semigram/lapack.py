"""LAPACK's Schur-form routines, which numpy's API lacks: the Schur
factorization ``?gees``, its reordering ``?trsen``, the triangular
Sylvester solver ``?trsyl`` (Bartels & Stewart, CACM 15, 1972), the left
eigenvectors ``ztrevc`` of a complex Schur form, and ``rsf2csf``, which
turns a real Schur form into the complex one.

Only a generator that is not self-adjoint needs them; a self-adjoint or
diagonal one is analysed with numpy alone. numpy's Linux and Windows
wheels bundle an ILP64 OpenBLAS, and on Linux its LAPACKE entry points
(``scipy_LAPACKE_dgees64_`` and the like) resolve through numpy's own
``linalg`` extension. Where they do, this module calls them through
ctypes, column-major on Fortran-ordered copies, as scipy's wrappers call
LAPACK; the symbols are looked up on the first call, not on import.
Where they do not resolve (another LAPACK, or numpy < 2), the same
routines come from ``scipy.linalg``, which is imported on first use and
costs about 0.24 s. scipy wraps no ``?trevc``, so there the left
eigenvectors come from ``scipy.linalg.eig(T, left=True, right=False)`` on
the triangular factor, in eig's own order. So this is the one module that
names scipy or ctypes.
"""

import ctypes
import functools

import numpy as np

from .errors import ConditioningError, DimensionError
from .linalg import EPS

__all__ = ["schur", "rsf2csf", "trsen", "trsyl", "trevc"]

_COL_MAJOR = 102  # LAPACKE's matrix_layout for Fortran order


def _signatures():
    """Argument types of the LAPACKE routines used, after the layout;
    lapack_int and lapack_logical are 64-bit in an ILP64 build."""
    from numpy.ctypeslib import ndpointer

    d = ndpointer(np.float64, flags="F_CONTIGUOUS")
    z = ndpointer(np.complex128, flags="F_CONTIGUOUS")
    i = ndpointer(np.int64)
    char, num, null = ctypes.c_char, ctypes.c_int64, ctypes.c_void_p
    return {
        # jobvs, sort, select, n, a, lda, sdim, (wr, wi | w), vs, ldvs
        "dgees": (char, char, null, num, d, num, i, d, d, d, num),
        "zgees": (char, char, null, num, z, num, i, z, z, num),
        # job, compq, select, n, t, ldt, q, ldq, (wr, wi | w), m, s, sep
        "dtrsen": (char, char, i, num, d, num, d, num, d, d, i, d, d),
        "ztrsen": (char, char, i, num, z, num, z, num, z, i, d, d),
        # trana, tranb, isgn, m, n, a, lda, b, ldb, c, ldc, scale
        "dtrsyl": (char, char, num, num, num, d, num, d, num, d, num, d),
        "ztrsyl": (char, char, num, num, num, z, num, z, num, z, num, d),
        # side, howmny, select, n, t, ldt, vl, ldvl, vr, ldvr, mm, m
        "ztrevc": (char, char, i, num, z, num, z, num, z, num, num, i),
    }


@functools.cache
def _lapacke():
    """The LAPACKE routines of the OpenBLAS that numpy's ``linalg``
    extension links, by name ("dgees", ...), or None where they do not
    resolve."""
    signatures = _signatures()
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {name: getattr(lib, "scipy_LAPACKE_%s64_" % name)
                    for name in signatures}
    except (ImportError, AttributeError, OSError):
        return None
    for name, argtypes in signatures.items():
        routines[name].argtypes = (ctypes.c_int,) + argtypes
        routines[name].restype = ctypes.c_int64
    return routines


def _call(routine, *args):
    """``info`` of one column-major LAPACKE call. A negative info names an
    argument the call got wrong (-1010: a workspace allocation failed),
    which no input of the package's callers can cause, so it raises."""
    info = _lapacke()[routine](_COL_MAJOR, *args)
    if info < 0:
        raise RuntimeError("LAPACKE_%s returned info %d" % (routine, info))
    return info


def _shaped(shape, *operands):
    """Refuse operands without ``shape``, since LAPACK reads them by the
    sizes passed beside them; checked before a binding is chosen, so both
    raise DimensionError."""
    for x in operands:
        if np.shape(x) != shape:
            raise DimensionError("LAPACK operand of shape %s, expected %s"
                                 % (np.shape(x), shape))


def _fortran(x, dtype=None):
    """A Fortran-ordered copy of ``x``."""
    return np.array(x, dtype=dtype, order="F")


def _scipy_linalg():
    import scipy.linalg  # about 0.24 s, paid on the first call only

    return scipy.linalg


def schur(a):
    """Schur pair (T, Z) with A = Z T Z*, real for a real A, else complex;
    raises ConditioningError if ``?gees`` fails to converge."""
    n = len(a)
    _shaped((n, n), a)
    if _lapacke() is None:
        try:
            return _scipy_linalg().schur(
                a, output="real" if np.isrealobj(a) else "complex")
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(
                "failed to compute the Schur form (%s)" % exc) from exc
    t = _fortran(a)
    z = np.empty_like(t)
    ld, sdim = max(1, n), np.zeros(1, np.int64)
    if np.isrealobj(t):
        info = _call("dgees", b"V", b"N", None, n, t, ld, sdim,
                     np.empty(n), np.empty(n), z, ld)
    else:
        info = _call("zgees", b"V", b"N", None, n, t, ld, sdim,
                     np.empty(n, np.complex128), z, ld)
    if info:
        raise ConditioningError(
            "failed to compute the Schur form (?gees info %d)" % info)
    return t, z


def rsf2csf(t, z):
    """The complex Schur pair of a real one: one Givens rotation makes each
    2x2 block of T triangular, the rotation of ``scipy.linalg.rsf2csf``.

    A rotation is fixed by its own diagonal block, [[a, b], [c, d]], and
    acts only on that block's row pair and column pair. The blocks of a
    real Schur form do not overlap, so the rotations commute: all are
    computed from the blocks at once and applied in one step. Each takes
    mu = lambda - d for the block's eigenvalue lambda of positive
    imaginary part, the one LAPACK lists first: mu = h + sqrt(h^2 + bc)
    with h = (a - d) / 2.
    """
    t, z = t.astype(np.complex128), z.astype(np.complex128)
    diag, sub = np.diagonal(t).real, np.diagonal(t, -1).real
    top = np.flatnonzero(np.abs(sub) > EPS * (np.abs(diag[:-1]) + np.abs(diag[1:])))
    low = top + 1
    h = 0.5 * (diag[top] - diag[low])
    mu = h + np.sqrt(h * h + t[top, low].real * sub[top] + 0j)
    r = np.hypot(np.abs(mu), sub[top])
    c, s = (mu / r)[:, None], (sub[top] / r)[:, None]
    # G = [[conj(c), s], [-s, c]] on the rows, G* on the columns
    upper, lower = t[top], t[low]
    t[top], t[low] = c.conj() * upper + s * lower, c * lower - s * upper
    for m in (t, z):
        left, right = m[:, top], m[:, low]
        m[:, top], m[:, low] = left * c.T + right * s.T, right * c.T.conj() - left * s.T
    n = t.shape[0]
    t[np.arange(1, n), np.arange(n - 1)] = 0.0
    return t, z


def trsen(select, t, z):
    """(T, Z) reordered so that the positions where ``select`` holds lead,
    and their number m; raises ConditioningError if ``?trsen`` fails."""
    n = len(t)
    _shaped((n, n), t, z)
    _shaped((n,), select)
    if _lapacke() is None:
        out = _scipy_linalg().get_lapack_funcs("trsen", (t,))(select, t, z, job="N")
        t, z, m, info = out[0], out[1], out[-4], out[-1]
    else:
        t, z = _fortran(t), _fortran(z, t.dtype)
        select = _fortran(select, np.int64)
        ld, found = max(1, n), np.zeros(1, np.int64)
        s, sep = np.zeros(1), np.zeros(1)
        if np.isrealobj(t):
            info = _call("dtrsen", b"N", b"V", select, n, t, ld, z, ld,
                         np.empty(n), np.empty(n), found, s, sep)
        else:
            info = _call("ztrsen", b"N", b"V", select, n, t, ld, z, ld,
                         np.empty(n, np.complex128), found, s, sep)
        m = int(found[0])
    if info:
        raise ConditioningError(
            "failed to reorder the Schur form (?trsen info %d)" % info)
    return t, z, m


def trsyl(a, b, c, task, trana="N", tranb="N", isgn=1):
    """X with op(A) X + isgn X op(B) = C for upper (quasi-)triangular A and
    B; raises ConditioningError "failed to <task>" if ``?trsyl`` finds A
    and -isgn B too close.

    LAPACK rejects an empty A or B, so for one this returns the empty X of
    C's shape itself, in either binding; an operand of the wrong shape
    still raises DimensionError.
    """
    rows, cols = np.shape(c)
    _shaped((rows, rows), a)
    _shaped((cols, cols), b)
    if not rows or not cols:
        return np.zeros((rows, cols), np.result_type(a, b, c))
    if _lapacke() is None:
        solve = _scipy_linalg().get_lapack_funcs("trsyl", (a, b, c))
        x, scale, info = solve(a, b, c, trana=trana, tranb=tranb, isgn=isgn)
    else:
        dtype = np.result_type(a, b, c)
        a, b, x = _fortran(a, dtype), _fortran(b, dtype), _fortran(c, dtype)
        scale = np.ones(1)
        info = _call("dtrsyl" if dtype == np.float64 else "ztrsyl",
                     trana.encode(), tranb.encode(), isgn, rows, cols,
                     a, max(1, rows), b, max(1, cols), x, max(1, rows), scale)
        scale = scale[0]
    if info:
        raise ConditioningError("failed to %s (?trsyl info %d)" % (task, info))
    return x / scale


def trevc(t, z):
    """Left eigenvectors of A = Z T Z* for a Schur pair (T, Z), a real one
    going through :func:`rsf2csf` first: eigenvalues lam and rows W with
    W[i] A = lam[i] W[i], unnormalized.

    ``ztrevc`` (side ``L``, back-transformed by Z) returns them in the
    diagonal order of the complex T; the scipy fallback returns eig's
    order, so a caller matches rows to eigenvalues by ``lam``.
    """
    n = len(t)
    _shaped((n, n), t, z)
    if np.isrealobj(t):
        t, z = rsf2csf(t, z)
    if _lapacke() is None:
        lam, vl = _scipy_linalg().eig(t, left=True, right=False)
        return lam, (z @ vl).conj().T
    t, vl = _fortran(t), _fortran(z, t.dtype)
    ld, found = max(1, n), np.zeros(1, np.int64)
    _call("ztrevc", b"L", b"B", np.zeros(n, np.int64), n, t, ld, vl, ld,
          np.empty((1, 1), np.complex128, order="F"), 1, n, found)
    return np.diagonal(t).copy(), np.conjugate(vl, out=vl).T
