"""LAPACK's Schur-form routines, which numpy lacks: the Schur factorization
(``scipy.linalg.schur``), ``rsf2csf``, ``?trsen`` and ``?trsyl``.

Only a generator that is not self-adjoint needs them; a self-adjoint or
diagonal one is analysed with numpy alone. So this is the one module that
names scipy, and it imports ``scipy.linalg`` on first use, not on import.
"""

import numpy as np

from .errors import ConditioningError

__all__ = ["schur", "rsf2csf", "trsen", "trsyl"]


def _scipy_linalg():
    import scipy.linalg  # about 0.3 s, paid on the first call only

    return scipy.linalg


def schur(a):
    """Schur pair (T, Z) with A = Z T Z*, real for a real A, else complex."""
    return _scipy_linalg().schur(a, output="real" if np.isrealobj(a) else "complex")


def rsf2csf(t, z):
    """The complex Schur pair of a real one."""
    return _scipy_linalg().rsf2csf(t, z)


def trsen(select, t, z):
    """(T, Z) reordered so that the positions where ``select`` holds lead,
    and their number m; raises ConditioningError if ``?trsen`` fails."""
    out = _scipy_linalg().get_lapack_funcs("trsen", (t,))(select, t, z, job="N")
    t, z, m, info = out[0], out[1], out[-4], out[-1]
    if info:
        raise ConditioningError(
            "failed to reorder the Schur form (?trsen info %d)" % info)
    return t, z, m


def trsyl(a, b, c, task, **flags):
    """X with op(A) X + isgn X op(B) = C for upper (quasi-)triangular A and
    B (``flags``: ``trana``, ``tranb``, ``isgn``); raises ConditioningError
    "failed to <task>" if ``?trsyl`` finds A and -isgn B too close."""
    solve = _scipy_linalg().get_lapack_funcs("trsyl", (a, b, c))
    x, scale, info = solve(a, b, c, **flags)
    if info:
        raise ConditioningError("failed to %s (?trsyl info %d)" % (task, info))
    return x / scale
