"""LAPACK's Schur-form routines, which numpy's API lacks: the Schur
factorization ``?gees``, its reordering ``?trsen``, the triangular
Sylvester solver ``?trsyl`` (Bartels & Stewart, CACM 15, 1972), and
``rsf2csf``, which turns a real Schur form into the complex one.

Only a generator that is not self-adjoint needs them; a self-adjoint or
diagonal one is analysed with numpy alone. numpy's Linux and Windows
wheels bundle an ILP64 OpenBLAS, and on Linux its LAPACKE entry points
(``scipy_LAPACKE_dgees64_`` and the like) resolve through numpy's own
``linalg`` extension. Where they do, this module calls them through
ctypes, column-major on Fortran-ordered copies, as scipy's wrappers call
LAPACK; the symbols are looked up on the first call, not on import.
Where they do not resolve (another LAPACK, or numpy < 2), the same
routines come from ``scipy.linalg``, which is imported on first use and
costs about 0.24 s. So this is the one module that names scipy or ctypes.
"""

import ctypes
import functools

import numpy as np

from .errors import ConditioningError, DimensionError
from .linalg import EPS

__all__ = ["schur", "rsf2csf", "trsen", "trsyl"]

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


def _fortran(x, shape, dtype=None):
    """A Fortran-ordered copy of ``x``, which must have ``shape``, since
    LAPACK reads it by the sizes passed beside it."""
    x = np.array(x, dtype=dtype, order="F")
    if x.shape != shape:
        raise DimensionError("LAPACK operand of shape %s, expected %s"
                             % (x.shape, shape))
    return x


def _scipy_linalg():
    import scipy.linalg  # about 0.24 s, paid on the first call only

    return scipy.linalg


def schur(a):
    """Schur pair (T, Z) with A = Z T Z*, real for a real A, else complex;
    raises ConditioningError if ``?gees`` fails to converge."""
    if _lapacke() is None:
        try:
            return _scipy_linalg().schur(
                a, output="real" if np.isrealobj(a) else "complex")
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(
                "failed to compute the Schur form (%s)" % exc) from exc
    n = len(a)
    t = _fortran(a, (n, n))
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
    2x2 block of T triangular (the loop of ``scipy.linalg.rsf2csf``)."""
    t, z = t.astype(np.complex128), z.astype(np.complex128)
    for m in range(t.shape[0] - 1, 0, -1):
        if abs(t[m, m - 1]) > EPS * (abs(t[m - 1, m - 1]) + abs(t[m, m])):
            mu = np.linalg.eigvals(t[m - 1:m + 1, m - 1:m + 1]) - t[m, m]
            r = np.linalg.norm((mu[0], t[m, m - 1]))
            c, s = mu[0] / r, t[m, m - 1] / r
            g = np.array([[c.conjugate(), s], [-s, c]])
            t[m - 1:m + 1, m - 1:] = g @ t[m - 1:m + 1, m - 1:]
            t[:m + 1, m - 1:m + 1] = t[:m + 1, m - 1:m + 1] @ g.conj().T
            z[:, m - 1:m + 1] = z[:, m - 1:m + 1] @ g.conj().T
        t[m, m - 1] = 0.0
    return t, z


def trsen(select, t, z):
    """(T, Z) reordered so that the positions where ``select`` holds lead,
    and their number m; raises ConditioningError if ``?trsen`` fails."""
    if _lapacke() is None:
        out = _scipy_linalg().get_lapack_funcs("trsen", (t,))(select, t, z, job="N")
        t, z, m, info = out[0], out[1], out[-4], out[-1]
    else:
        n = len(t)
        t, z = _fortran(t, (n, n)), _fortran(z, (n, n), t.dtype)
        select = _fortran(select, (n,), np.int64)
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
    and -isgn B too close."""
    if _lapacke() is None:
        solve = _scipy_linalg().get_lapack_funcs("trsyl", (a, b, c))
        x, scale, info = solve(a, b, c, trana=trana, tranb=tranb, isgn=isgn)
    else:
        dtype = np.result_type(a, b, c)
        rows, cols = np.shape(c)
        a, b = _fortran(a, (rows, rows), dtype), _fortran(b, (cols, cols), dtype)
        x = _fortran(c, (rows, cols), dtype)
        scale = np.ones(1)
        info = _call("dtrsyl" if dtype == np.float64 else "ztrsyl",
                     trana.encode(), tranb.encode(), isgn, rows, cols,
                     a, max(1, rows), b, max(1, cols), x, max(1, rows), scale)
        scale = scale[0]
    if info:
        raise ConditioningError("failed to %s (?trsyl info %d)" % (task, info))
    return x / scale
