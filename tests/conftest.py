"""Shared factories for randomized system fixtures.

Random semistable generators are built from an explicit spectrum so the
kernel dimension is exact by construction: decay rates are bounded away
from zero (>= 0.5) to keep classification unambiguous at default
tolerances.
"""

import numpy as np

from semigram import is_controllable, limit_projector, spectral_data


def random_selfadjoint_semistable(rng, n, kernel_dim):
    """Random symmetric semistable matrix with the given kernel dimension."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.concatenate(
        [np.zeros(kernel_dim), -rng.uniform(0.5, 3.0, size=n - kernel_dim)]
    )
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


def random_controllable_pair(rng, n, kernel_dim, n_inputs=2):
    """(A, B) with A symmetric semistable and (A, B) controllable."""
    a = random_selfadjoint_semistable(rng, n, kernel_dim)
    for _ in range(50):
        b = rng.normal(size=(n, n_inputs))
        if is_controllable(a, b):
            return a, b
    raise AssertionError("failed to draw a controllable pair")


def semistability_bundle(a):
    """(record, report, limit projector) for a generator.

    One analysis record serves as both the spectral data and the report
    that the quadrature routes read.
    """
    spectral = spectral_data(a)
    return spectral, spectral, limit_projector(a, spectral)
