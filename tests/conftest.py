"""Shared factories for randomized system fixtures, and the sampled
defects that the tests check the package's results against.

Random semistable generators are built from an explicit spectrum so the
kernel dimension is exact by construction: decay rates are bounded away
from zero (>= 0.5) to keep classification unambiguous at default
tolerances.
"""

import os

# one BLAS thread, set before numpy loads OpenBLAS: the n = 200 matrix
# exponentials of the oracle tests run about 4 times slower with two
# threads on two cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from semigram import is_controllable, linalg, propagator, spectral_data
from semigram.linalg import EPS, opnorm


def random_selfadjoint_semistable(rng, n, kernel_dim):
    """Random symmetric semistable matrix with the given kernel dimension."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.concatenate(
        [np.zeros(kernel_dim), -rng.uniform(0.5, 3.0, size=n - kernel_dim)]
    )
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


def nonnormal_semistable_factors(rng, n, kernel_dim, cond):
    """V, diag(L) and V^-1 of :func:`random_nonnormal_semistable`.

    The exact limit operator is V[:, :kernel_dim] @ V^-1[:kernel_dim].
    """
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v = (q1 * np.geomspace(1.0, cond, n)) @ q2.T
    lam = np.concatenate(
        [np.zeros(kernel_dim), -np.linspace(0.5, 3.0, n - kernel_dim)]
    )
    return v, lam, np.linalg.inv(v)


def random_nonnormal_semistable(rng, n, kernel_dim, cond):
    """V L V^-1 with L = diag(0, ..., 0, -0.5, ..., -3) and cond(V) = cond.

    The decay rates are evenly spaced, so no two modes form a cluster; V
    has singular values spaced geometrically from 1 to ``cond`` between
    two random orthogonal factors.
    """
    v, lam, v_inv = nonnormal_semistable_factors(rng, n, kernel_dim, cond)
    return (v * lam) @ v_inv


def drift_chain(n, r):
    """Generator of a reflecting birth-death chain on n states.

    The up rate is p = 4r/(1+r) and the down rate q = 4/(1+r). Columns sum
    to zero, so A is semistable with a one-dimensional kernel spanned by
    pi_i = r^i, and S_inf = pi 1^T / sum(pi). D^-1 A D is symmetric for
    D = diag(r^(i/2)), so the spectrum is real, |A|_2 is about 8, and the
    eigenvector basis has cond(V) growing like r^((n-1)/2).
    """
    p, q = 4.0 * r / (1.0 + r), 4.0 / (1.0 + r)
    i = np.arange(n - 1)
    a = np.zeros((n, n))
    a[i + 1, i] += p
    a[i, i] -= p
    a[i, i + 1] += q
    a[i + 1, i + 1] -= q
    return a


def consensus_laplacian(rng, n, components):
    """Negated weighted Laplacian of a random graph with the given components.

    Each component is a random spanning tree plus as many random chords as
    it has nodes, with edge weights uniform in [0.5, 2]: self-adjoint and
    semistable, with a kernel of dimension ``components``.
    """
    w = np.zeros((n, n))
    for group in np.array_split(rng.permutation(n), components):
        for i in range(1, len(group)):
            j = group[int(rng.integers(0, i))]
            w[group[i], j] = w[j, group[i]] = rng.uniform(0.5, 2.0)
        for _ in range(len(group)):
            i, j = rng.choice(group, 2, replace=False)
            w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    return w - np.diag(w.sum(axis=1))


def counting_expm(monkeypatch):
    """Record the shape of every matrix exponential taken from now on."""
    calls = []
    expm = scipy.linalg.expm

    def counting(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    return calls


def counting_kernel(monkeypatch):
    """Record every exponential kernel built from now on.

    Returns a list with one entry per kernel, in the order they are built:
    the list of times at which that kernel was evaluated. Each kernel holds
    one stack of powers of its generator.
    """
    kernels = []
    build = linalg._taylor_kernel

    def counting(a):
        times = []
        kernels.append(times)
        exp_at = build(a)

        def counted(t):
            times.append(t)
            return exp_at(t)

        return counted

    monkeypatch.setattr(linalg, "_taylor_kernel", counting)
    return kernels


def transient_cases():
    """Non-normal generators whose transients a sampled overshoot missed.

    Name -> (A, B). A 50-coupling whose sup of |exp(A t) - S_inf| e^{mu t}
    tends to 250 (26 samples read 237.6); a defective stable block, where
    no finite bound exists at the exact rate mu; and two drift chains,
    whose sup at n = 60, r = 2 was 10 times the 26-sample value.
    """
    return {
        "coupling50": (np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 50.0],
                                 [0.0, 0.0, -1.2]]), np.eye(3)),
        "jordan": (np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 1.0],
                             [0.0, 0.0, -1.0]]), np.eye(3)),
        "chain60": (drift_chain(60, 2.0), np.eye(60)[:, :1]),
        "chain200": (drift_chain(200, 1.2), np.eye(200)[:, :1]),
    }


def random_controllable_pair(rng, n, kernel_dim, n_inputs=2):
    """(A, B) with A symmetric semistable and (A, B) controllable."""
    a = random_selfadjoint_semistable(rng, n, kernel_dim)
    for _ in range(50):
        b = rng.normal(size=(n, n_inputs))
        if is_controllable(spectral_data(a), b):
            return a, b
    raise AssertionError("failed to draw a controllable pair")


def decay_defects(record, times):
    """|exp(A t) - S_inf|_2 at each time, for the record's generator."""
    at = propagator(record.a, np.eye(record.n))
    s_inf = record.projector.s_inf
    return np.array([opnorm(at(t) - s_inf) for t in times])


def intertwining_defect(red, times):
    """The largest |pi exp(A t) - exp(a_hat t) pi|_2 over the times."""
    full_at = propagator(red.system.a, np.eye(red.system.n))
    reduced_at = propagator(red.a_hat, np.eye(red.order))
    return max(opnorm(red.pi @ full_at(t) - reduced_at(t) @ red.pi)
               for t in times)


def sync_defects(red, x0, times):
    """|exp(A t) x0 - sigma exp(a_hat t) pi x0| at each time: how far the
    full trajectory is from its lifted reduced twin."""
    full_at = propagator(red.system.a, np.eye(red.system.n))
    reduced_at = propagator(red.a_hat, np.eye(red.order))
    z0 = red.pi @ x0
    return np.array([
        np.linalg.norm(full_at(t) @ x0 - red.sigma @ (reduced_at(t) @ z0))
        for t in times])


def difference_structure(record, p1, p2):
    """|D|_2, |S* D S - D|_F, |A* U|_2 and |A D + D A*|_F for D = P2 - P1.

    The difference of two self-adjoint solutions of one semistability
    Lyapunov equation solves the homogeneous equation, is reproduced by
    compression with S = S_inf, and has its range in ker A*. U spans the
    right singular vectors of D above max(n eps, 1e-8) |D|_2: directions
    below 1e-8 |D| are roundoff from forming D.
    """
    a, s_inf = record.a, record.projector.s_inf
    delta = p2 - p1
    _, sv, vh = np.linalg.svd(delta)
    norm_delta = float(sv[0])
    range_basis = vh[sv > max(delta.shape[0] * EPS, 1e-8) * norm_delta].conj().T
    return (norm_delta,
            float(np.linalg.norm(s_inf.conj().T @ delta @ s_inf - delta)),
            opnorm(a.conj().T @ range_basis),
            float(np.linalg.norm(a @ delta + delta @ a.conj().T)))
