"""Calibration kernel: a fixed piece of work whose time tracks the machine's speed.

On a shared host the speed a process gets drifts by tens of percent within
seconds, as other tenants load the cores and caches. The worker times this
kernel right before and after every command; on the calibrated workloads
(``workloads.CALIBRATED``) the benchmark divides the command's time by the
kernel's, which cancels that drift, and multiplies by ``REFERENCE_S`` to
turn the ratio back into seconds at a fixed reference speed. The kernel
mixes a small LAPACK eigendecomposition with pure-Python float parsing, as
those workloads' commands do, and uses numpy only, so no change to the
program under test changes its time.
"""

import time

import numpy as np

# the kernel's median time on the machine the benchmark was tuned on (a
# shared 2-core Intel Xeon, one OpenBLAS thread); any fixed value would do
REFERENCE_S = 0.01

_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
_TOKENS = ["%.17g" % x for x in _MATRIX.ravel()]


def kernel_s():
    """Run the kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    np.linalg.eigvals(_MATRIX)
    sum(float(t) for t in _TOKENS)
    return time.perf_counter() - t0
