import numpy as np
import pytest

from semigram import (
    InconsistencyError,
    NotSemistableError,
    PreconditionError,
    classify,
    gramian_by_quadrature,
    limit_projector,
    lyapunov_rhs,
    solve_semistability_lyapunov,
    spectral_data,
    verify_solution_structure,
)
from semigram.linalg import opnorm

from conftest import random_selfadjoint_semistable, semistability_bundle


def heat3():
    return np.diag([0.0, -np.pi**2, -4.0 * np.pi**2])


def path_laplacian3():
    return -np.array([
        [1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0],
    ])


def test_quadrature_scalar():
    a = np.array([[-1.0]])
    spectral, report, s_inf = semistability_bundle(a)
    g = gramian_by_quadrature(a, np.eye(1), s_inf, report, 1e-10)
    assert abs(g.p_inf[0, 0] - 0.5) <= 1e-10
    assert g.method == "quadrature"
    assert g.quadrature_tol == 1e-10


def test_quadrature_semistable_diagonal():
    a = np.diag([0.0, -1.0])
    spectral, report, s_inf = semistability_bundle(a)
    g = gramian_by_quadrature(a, np.eye(2), s_inf, report, 1e-10)
    assert np.abs(g.p_inf - np.diag([0.0, 0.5])).max() <= 1e-10


def test_quadrature_heat_modal_integrals():
    a = heat3()
    spectral, report, s_inf = semistability_bundle(a)
    g = gramian_by_quadrature(a, np.eye(3), s_inf, report, 1e-11)
    expected = np.diag([0.0, 1.0 / (2 * np.pi**2), 1.0 / (8 * np.pi**2)])
    assert np.abs(g.p_inf - expected).max() <= 1e-11
    assert g.constraint_defect <= 1e-8 * opnorm(g.p_inf)


def test_quadrature_rejects_not_semistable():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = classify(a)
    with pytest.raises(NotSemistableError):
        gramian_by_quadrature(a, np.eye(2), np.eye(2), report, 1e-9)


def test_quadrature_zero_generator():
    a = np.zeros((2, 2))
    spectral, report, s_inf = semistability_bundle(a)
    g = gramian_by_quadrature(a, np.eye(2), s_inf, report, 1e-9)
    assert np.array_equal(g.p_inf, np.zeros((2, 2)))


def test_lyapunov_rhs_examples():
    a = np.diag([-1.0, -2.0])
    _, _, s_inf = semistability_bundle(a)
    assert np.allclose(lyapunov_rhs(np.eye(2), s_inf), np.eye(2), atol=1e-14)

    a = np.diag([0.0, -1.0])
    _, _, s_inf = semistability_bundle(a)
    assert np.allclose(
        lyapunov_rhs(np.eye(2), s_inf), np.diag([0.0, 1.0]), atol=1e-14
    )

    # complete-graph Laplacian: averaging projector complement
    a = -(3 * np.eye(3) - np.ones((3, 3)))
    _, _, s_inf = semistability_bundle(a)
    expected = np.eye(3) - np.ones((3, 3)) / 3.0
    assert np.allclose(lyapunov_rhs(np.eye(3), s_inf), expected, atol=1e-12)


def test_solve_scalar():
    a = np.array([[-1.0]])
    spectral, _, s_inf = semistability_bundle(a)
    g = solve_semistability_lyapunov(a, np.eye(1), s_inf, spectral)
    assert abs(g.p_inf[0, 0] - 0.5) <= 1e-14
    assert g.method == "lyapunov_split"
    assert g.quadrature_tol is None


def test_solve_matches_modal_integral():
    a = np.diag([0.0, -np.pi**2])
    spectral, _, s_inf = semistability_bundle(a)
    q = lyapunov_rhs(np.eye(2), s_inf)
    g = solve_semistability_lyapunov(a, q, s_inf, spectral)
    assert np.abs(g.p_inf - np.diag([0.0, 1.0 / (2 * np.pi**2)])).max() <= 1e-14


def test_solve_agrees_with_quadrature_on_path_laplacian():
    a = path_laplacian3()
    spectral, report, s_inf = semistability_bundle(a)
    q = lyapunov_rhs(np.eye(3), s_inf)
    split = solve_semistability_lyapunov(a, q, s_inf, spectral)
    quad = gramian_by_quadrature(a, np.eye(3), s_inf, report, 1e-10)
    assert opnorm(split.p_inf - quad.p_inf) <= 1e-6
    assert split.lyapunov_residual <= 1e-8 * (
        opnorm(a) * opnorm(split.p_inf) + opnorm(q)
    )


def _solve_lstsq(a, q, s):
    """Reference: minimum-norm solution of the vectorized equation, constrained.

    The vectorized operator acts on row-major vec(P):
    vec(A P + P A*) = (kron(A, I) + kron(I, conj(A))) vec(P). The
    least-squares solution is SOME solution of the singular equation; the
    congruence by (I - S_inf) moves it to the constrained one without
    changing the residual (exactly, in exact arithmetic). O(n^6), so only
    for small test systems.
    """
    n = a.shape[0]
    eye = np.eye(n)
    lhs = np.kron(a, eye) + np.kron(eye, a.conj())
    vec_p, *_ = np.linalg.lstsq(lhs, -q.reshape(-1), rcond=None)
    p = vec_p.reshape(n, n)
    p = 0.5 * (p + p.conj().T)
    proj = eye - s
    return proj @ p @ proj.conj().T


def test_solve_lstsq_strategy_matches_split():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        a = random_selfadjoint_semistable(rng, n, k)
        b = rng.normal(size=(n, 2))
        spectral, _, s_inf = semistability_bundle(a)
        q = lyapunov_rhs(b, s_inf)
        split = solve_semistability_lyapunov(a, q, s_inf, spectral)
        lstsq = _solve_lstsq(a, q, s_inf.s_inf)
        assert split.method == "lyapunov_split"
        assert opnorm(split.p_inf - lstsq) <= 1e-8 * max(
            1.0, opnorm(split.p_inf)
        )


def test_solve_nonhermitian_oblique():
    a = np.array([[0.0, 1.0], [0.0, -1.0]])
    spectral, report, s_inf = semistability_bundle(a)
    q = lyapunov_rhs(np.eye(2), s_inf)
    g = solve_semistability_lyapunov(a, q, s_inf, spectral)
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.abs(g.p_inf - expected).max() <= 1e-12
    quad = gramian_by_quadrature(a, np.eye(2), s_inf, report, 1e-10)
    assert opnorm(g.p_inf - quad.p_inf) <= 1e-8


def test_solve_gramian_invariants_random():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, min(3, n) + 1))
        a = random_selfadjoint_semistable(rng, n, k)
        b = rng.normal(size=(n, int(rng.integers(1, 4))))
        spectral, _, s_inf = semistability_bundle(a)
        q = lyapunov_rhs(b, s_inf)
        g = solve_semistability_lyapunov(a, q, s_inf, spectral)
        p = g.p_inf
        norm_p = opnorm(p)
        assert opnorm(p - p.conj().T) <= 1e-8 * norm_p + 1e-30
        assert np.linalg.eigvalsh(p).min() >= -1e-8 * norm_p
        assert g.constraint_defect <= 1e-8 * norm_p + 1e-30
        assert g.lyapunov_residual <= 1e-8 * (opnorm(a) * norm_p + opnorm(q))


def test_constraint_correction_uniqueness():
    # shifting a solution by kernel directions changes nothing after the
    # annihilation correction
    rng = np.random.default_rng(29)
    a = random_selfadjoint_semistable(rng, 6, 2)
    b = rng.normal(size=(6, 2))
    spectral, _, s_inf = semistability_bundle(a)
    q = lyapunov_rhs(b, s_inf)
    g = solve_semistability_lyapunov(a, q, s_inf, spectral)
    s = s_inf.s_inf
    for kappa in (0.1, 1.0, 10.0):
        shifted = g.p_inf + kappa * (s @ s.conj().T)
        residual = opnorm(a @ shifted + shifted @ a.conj().T + q)
        assert residual <= 1e-8 * (opnorm(a) * opnorm(shifted) + opnorm(q))
        recovered = shifted - s @ shifted
        assert opnorm(recovered - g.p_inf) <= 1e-8 * max(1.0, opnorm(g.p_inf))


def test_solve_rejects_inconsistent_rhs():
    # rhs with mass on the kernel: no solution exists
    a = np.diag([0.0, -1.0])
    spectral, _, s_inf = semistability_bundle(a)
    with pytest.raises(InconsistencyError):
        solve_semistability_lyapunov(a, np.eye(2), s_inf, spectral)


def test_solve_rejects_nonsymmetric_rhs():
    a = np.diag([0.0, -1.0])
    spectral, _, s_inf = semistability_bundle(a)
    q = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        solve_semistability_lyapunov(a, q, s_inf, spectral)


def test_verify_structure_trivial_and_shifted():
    a = np.diag([0.0, -1.0])
    spectral, _, s_inf = semistability_bundle(a)
    p1 = np.diag([0.0, 0.5])
    same = verify_solution_structure(a, p1, p1, s_inf)
    assert same.delta_norm == 0.0
    assert same.compression_defect == 0.0
    assert same.kernel_range_defect == 0.0

    p2 = np.diag([3.0, 0.5])
    shifted = verify_solution_structure(a, p1, p2, s_inf)
    assert shifted.delta_norm == pytest.approx(3.0)
    assert shifted.compression_defect <= 1e-6 * shifted.delta_norm
    assert shifted.kernel_range_defect <= 1e-6 * shifted.delta_norm


def test_verify_structure_rejects_non_solution():
    a = np.diag([0.0, -1.0])
    spectral, _, s_inf = semistability_bundle(a)
    p1 = np.diag([0.0, 0.5])
    bad = p1 + np.array([[0.0, 1e-2], [1e-2, 0.0]])
    with pytest.raises(PreconditionError):
        verify_solution_structure(a, p1, bad, s_inf)


def test_verify_structure_random_kernel_shifts():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, 3))
        a = random_selfadjoint_semistable(rng, n, k)
        b = rng.normal(size=(n, 2))
        spectral, _, s_inf = semistability_bundle(a)
        q = lyapunov_rhs(b, s_inf)
        g = solve_semistability_lyapunov(a, q, s_inf, spectral)
        s = s_inf.s_inf
        w = rng.normal(size=(n, n))
        shift = s @ (0.5 * (w + w.T)) @ s.conj().T
        report = verify_solution_structure(a, g.p_inf, g.p_inf + shift, s_inf)
        assert report.compression_defect <= 1e-6 * max(report.delta_norm, 1e-12)
        assert report.kernel_range_defect <= 1e-6 * max(report.delta_norm, 1e-12)
