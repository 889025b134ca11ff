import numpy as np
import pytest
import scipy.linalg

from semigram import (
    InconsistencyError,
    NotSemistableError,
    SpectralData,
    StateSpaceSystem,
    gramian_by_quadrature,
    integrate_operator_valued,
    propagator,
    solve_semistability_lyapunov,
    spectral_data,
)
from semigram import gramian
from semigram.linalg import opnorm

from conftest import (
    consensus_laplacian,
    counting_expm,
    counting_kernel,
    difference_structure,
    drift_chain,
    nonnormal_semistable_factors,
    random_selfadjoint_semistable,
)


def heat3():
    return np.diag([0.0, -np.pi**2, -4.0 * np.pi**2])


def path_laplacian3():
    return -np.array([
        [1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0],
    ])


def test_quadrature_scalar():
    g = gramian_by_quadrature(StateSpaceSystem(np.array([[-1.0]])), 1e-10)
    assert abs(g.p_inf[0, 0] - 0.5) <= 1e-10
    assert g.method == "quadrature"
    assert g.quadrature_tol == 1e-10


def test_quadrature_semistable_diagonal():
    g = gramian_by_quadrature(StateSpaceSystem(np.diag([0.0, -1.0])), 1e-10)
    assert np.abs(g.p_inf - np.diag([0.0, 0.5])).max() <= 1e-10


def test_quadrature_heat_modal_integrals():
    g = gramian_by_quadrature(StateSpaceSystem(heat3()), 1e-11)
    expected = np.diag([0.0, 1.0 / (2 * np.pi**2), 1.0 / (8 * np.pi**2)])
    assert np.abs(g.p_inf - expected).max() <= 1e-11
    assert g.constraint_defect <= 1e-8 * opnorm(g.p_inf)


def test_quadrature_rejects_not_semistable():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSemistableError):
        gramian_by_quadrature(StateSpaceSystem(a), 1e-9)


def test_quadrature_zero_generator():
    g = gramian_by_quadrature(StateSpaceSystem(np.zeros((2, 2))), 1e-9)
    assert np.array_equal(g.p_inf, np.zeros((2, 2)))


def test_lyapunov_rhs_examples():
    sys = StateSpaceSystem(np.diag([-1.0, -2.0]))
    assert np.allclose(gramian._lyapunov_rhs(sys), np.eye(2), atol=1e-14)

    sys = StateSpaceSystem(np.diag([0.0, -1.0]))
    assert np.allclose(
        gramian._lyapunov_rhs(sys), np.diag([0.0, 1.0]), atol=1e-14
    )

    # complete-graph Laplacian: averaging projector complement
    sys = StateSpaceSystem(-(3 * np.eye(3) - np.ones((3, 3))))
    expected = np.eye(3) - np.ones((3, 3)) / 3.0
    assert np.allclose(gramian._lyapunov_rhs(sys), expected, atol=1e-12)


def test_solve_scalar():
    g = solve_semistability_lyapunov(StateSpaceSystem(np.array([[-1.0]])))
    assert abs(g.p_inf[0, 0] - 0.5) <= 1e-14
    assert g.method == "lyapunov_split"
    assert g.quadrature_tol is None


def test_solve_matches_modal_integral():
    g = solve_semistability_lyapunov(StateSpaceSystem(np.diag([0.0, -np.pi**2])))
    assert np.abs(g.p_inf - np.diag([0.0, 1.0 / (2 * np.pi**2)])).max() <= 1e-14


def test_solve_agrees_with_quadrature_on_path_laplacian():
    a = path_laplacian3()
    sys = StateSpaceSystem(a)
    q = gramian._lyapunov_rhs(sys)
    split = solve_semistability_lyapunov(sys)
    quad = gramian_by_quadrature(sys, 1e-10)
    assert opnorm(split.p_inf - quad.p_inf) <= 1e-6
    assert split.lyapunov_residual <= 1e-8 * (
        opnorm(a) * opnorm(split.p_inf) + opnorm(q)
    )


def consensus90():
    a = consensus_laplacian(np.random.default_rng(13), 90, 2)
    return a, np.eye(90)[:, [4, 40, 77]]


def record_oracle_nodes(monkeypatch):
    """Record every time at which the Gramian oracle evaluates its integrand."""
    times = []

    def recording(f, *args, **kwargs):
        def g(t):
            times.append(t)
            return f(t)
        return integrate_operator_valued(g, *args, **kwargs)

    monkeypatch.setattr(gramian, "integrate_operator_valued", recording)
    return times


@pytest.mark.parametrize("case, tol", [
    # measured: 4.2e-14 (consensus) and 1.8e-13 (chain) relative to the
    # largest entry; on the consensus case both are 9e-14 and 7e-14 off the
    # exact exp(lambda t) in the eigh basis
    ("consensus90", 1e-13),
    ("chain60", 1e-12),
], ids=["consensus90", "chain60"])
def test_propagator_agrees_with_expm_at_every_oracle_node(case, tol, monkeypatch):
    a, b = consensus90() if case == "consensus90" else (drift_chain(60, 2.0), np.eye(60)[:, :1])
    times = record_oracle_nodes(monkeypatch)
    gramian_by_quadrature(StateSpaceSystem(a, b), 1e-9)
    # a fresh map at the same times in the same order squares the same
    # remembered exponentials as the oracle's own
    response = propagator(a, b)
    for t in times:
        expected = scipy.linalg.expm(a * t) @ b
        assert np.abs(response(t) - expected).max() <= tol * np.abs(expected).max(), t


def test_quadrature_evaluates_the_kernel_on_the_two_finest_panels_only(monkeypatch):
    a, b = consensus90()
    sys = StateSpaceSystem(a, b)
    sys.spectral  # the record is built before the counts start
    times = record_oracle_nodes(monkeypatch)
    calls = counting_expm(monkeypatch)
    kernels = counting_kernel(monkeypatch)
    stacks = []
    empty = np.empty

    def recording(shape, *args, **kwargs):
        if np.shape(shape)[:1] == (3,) and tuple(shape[1:]) == a.shape:
            stacks.append(shape[0])
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recording)
    gramian_by_quadrature(sys, 1e-9)
    # one kernel, which allocates one stack for the powers of A up to
    # degree 14 and fills it as the nodes need them; every other start-mesh
    # node squares exp(A t/2) from the finer panel
    assert calls == []
    assert len(kernels) == 1
    assert stacks == [15]
    assert len(kernels[0]) == 2 * 15
    assert len(times) >= 150


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
        sys = StateSpaceSystem(a, rng.normal(size=(n, 2)))
        q = gramian._lyapunov_rhs(sys)
        split = solve_semistability_lyapunov(sys)
        lstsq = _solve_lstsq(a, q, sys.spectral.projector.s_inf)
        assert split.method == "lyapunov_split"
        assert opnorm(split.p_inf - lstsq) <= 1e-8 * max(
            1.0, opnorm(split.p_inf)
        )


def nonhermitian_cases():
    """Non-self-adjoint semistable generators A with exact limit-operator
    factors V_k, W_k (S_inf = V_k W_k)."""
    e1 = np.eye(3)[:, :1]
    yield "oblique", np.array([[0.0, 1.0], [0.0, -1.0]]), np.eye(2)[:, :1], np.ones((1, 2))
    yield "jordan-stable", np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]), e1, e1.T
    yield "coupling", np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 50.0], [0.0, 0.0, -1.2]]), e1, e1.T
    rng = np.random.default_rng(37)
    for k in (1, 2, 3):
        v, lam, v_inv = nonnormal_semistable_factors(rng, int(rng.integers(k + 2, 12)), k, 30.0)
        yield "nonnormal-k%d" % k, (v * lam) @ v_inv, v[:, :k], v_inv[:k]
    v = np.eye(4) + 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    v_inv = np.linalg.inv(v)
    yield "complex", (v * np.array([0.0, -1.0 + 2.0j, -0.5 - 1.0j, -2.0])) @ v_inv, v[:, :1], v_inv[:1]
    # eig returns this double zero as a +-i eps pair
    v, lam, v_inv = nonnormal_semistable_factors(np.random.default_rng(4), 50, 2, 30.0)
    yield "eig-pair-50", (v * lam) @ v_inv, v[:, :2], v_inv[:2]


def test_solve_nonhermitian_oblique(monkeypatch):
    def no_dense_solver(*args, **kwargs):
        raise AssertionError("the split route called a dense Schur solver")

    monkeypatch.setattr(scipy.linalg, "solve_sylvester", no_dense_solver)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", no_dense_solver)
    sys = StateSpaceSystem(np.array([[0.0, 1.0], [0.0, -1.0]]))
    g = solve_semistability_lyapunov(sys)
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.abs(g.p_inf - expected).max() <= 1e-12
    quad = gramian_by_quadrature(sys, 1e-10)
    assert opnorm(g.p_inf - quad.p_inf) <= 1e-8

    rng = np.random.default_rng(41)
    for name, a, v_k, w_k in nonhermitian_cases():
        sys = StateSpaceSystem(a, rng.normal(size=(a.shape[0], 2)))
        assert not sys.spectral.hermitian, name
        s = sys.spectral.projector.s_inf
        assert np.iscomplexobj(s) == np.iscomplexobj(a), name
        assert opnorm(s - v_k @ w_k) <= 1e-10 * opnorm(v_k @ w_k), name
        q = gramian._lyapunov_rhs(sys)
        g = solve_semistability_lyapunov(sys)
        ref = _solve_lstsq(a, q, v_k @ w_k)
        assert opnorm(g.p_inf - ref) <= 1e-8 * max(1.0, opnorm(ref)), name


def test_solve_gramian_invariants_random():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, min(3, n) + 1))
        a = random_selfadjoint_semistable(rng, n, k)
        sys = StateSpaceSystem(a, rng.normal(size=(n, int(rng.integers(1, 4)))))
        q = gramian._lyapunov_rhs(sys)
        g = solve_semistability_lyapunov(sys)
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
    sys = StateSpaceSystem(a, rng.normal(size=(6, 2)))
    q = gramian._lyapunov_rhs(sys)
    g = solve_semistability_lyapunov(sys)
    s = sys.spectral.projector.s_inf
    for kappa in (0.1, 1.0, 10.0):
        shifted = g.p_inf + kappa * (s @ s.conj().T)
        residual = opnorm(a @ shifted + shifted @ a.conj().T + q)
        assert residual <= 1e-8 * (opnorm(a) * opnorm(shifted) + opnorm(q))
        recovered = shifted - s @ shifted
        assert opnorm(recovered - g.p_inf) <= 1e-8 * max(1.0, opnorm(g.p_inf))


def test_solve_rejects_a_solution_that_misses_the_equation(monkeypatch):
    # 1.2 P is self-adjoint, semidefinite and annihilated by S_inf, but it
    # leaves the residual 0.2 |Q|: only the residual gate can refuse it
    solve = SpectralData.solve_lyapunov
    monkeypatch.setattr(SpectralData, "solve_lyapunov",
                        lambda spectral, q: 1.2 * solve(spectral, q))
    with pytest.raises(InconsistencyError, match="Lyapunov residual"):
        solve_semistability_lyapunov(StateSpaceSystem(np.diag([0.0, -1.0])))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_diagonal_gramian_eigenvalues_are_eigvalsh_bitwise(dtype, monkeypatch):
    # unsorted, with zeros and negative entries of several magnitudes; the
    # sorted diagonal is what eigvalsh returns, bit for bit
    entries = [0.3, 0.0, -2.5e-9, 7.0, 1e-300, -4.0, 0.0, 12.5, -1e-17, 3e8]
    p = np.diag(entries).astype(dtype)
    expected = np.linalg.eigvalsh(p)

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh ran on a diagonal P")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert gramian._eigenvalues(p).tobytes() == expected.tobytes()
    monkeypatch.undo()
    # a certified Gramian, with a rounding-size negative entry on the
    # kernel, reports the eigvalsh norm too
    solve = SpectralData.solve_lyapunov

    def dented(spectral, q):
        p = solve(spectral, q)
        p[0, 0] = -1e-12 * np.abs(p).max()
        return p

    monkeypatch.setattr(SpectralData, "solve_lyapunov", dented)
    g = solve_semistability_lyapunov(StateSpaceSystem(heat3().astype(dtype)))
    assert g.p_inf.dtype == dtype and g.p_inf[0, 0] < 0.0
    eigs = np.linalg.eigvalsh(g.p_inf)
    assert g.norm_p_inf == float(np.abs(eigs[[0, -1]]).max())


def test_diagonal_gramian_with_a_negative_entry_is_refused(monkeypatch):
    # the sorted diagonal feeds the same semidefiniteness gate as eigvalsh
    solve = SpectralData.solve_lyapunov

    def dented(spectral, q):
        p = solve(spectral, q)
        p[0, 0] = -1e-7 * np.abs(p).max()
        return p

    monkeypatch.setattr(SpectralData, "solve_lyapunov", dented)
    with pytest.raises(InconsistencyError, match="not positive semidefinite"):
        solve_semistability_lyapunov(StateSpaceSystem(heat3()))


def test_one_offdiagonal_entry_sends_the_gramian_through_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(p, *args, **kwargs):
        calls.append(p.shape)
        return eigvalsh(p, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    sys = StateSpaceSystem(heat3())
    solve_semistability_lyapunov(sys)
    assert calls == []
    solve = SpectralData.solve_lyapunov

    def coupled(spectral, q):
        p = solve(spectral, q)
        p[1, 2] = p[2, 1] = 1e-9 * p[1, 1]
        return p

    monkeypatch.setattr(SpectralData, "solve_lyapunov", coupled)
    p = coupled(sys.spectral, gramian._lyapunov_rhs(sys))
    g = solve_semistability_lyapunov(sys)
    assert calls == [(3, 3)]
    assert g.norm_p_inf == eigvalsh(p)[-1]


def test_verify_structure_trivial_and_shifted():
    a = np.diag([0.0, -1.0])
    spectral = spectral_data(a)
    p1 = np.diag([0.0, 0.5])
    assert difference_structure(spectral, p1, p1) == (0.0, 0.0, 0.0, 0.0)

    p2 = np.diag([3.0, 0.5])
    delta_norm, compression, kernel_range, homogeneous = difference_structure(
        spectral, p1, p2)
    assert delta_norm == pytest.approx(3.0)
    assert compression <= 1e-6 * delta_norm
    assert kernel_range <= 1e-6 * delta_norm
    assert homogeneous <= 1e-7 * spectral.norm_a * (opnorm(p1) + opnorm(p2))


def test_verify_structure_random_kernel_shifts():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, 3))
        a = random_selfadjoint_semistable(rng, n, k)
        sys = StateSpaceSystem(a, rng.normal(size=(n, 2)))
        spectral = sys.spectral
        g = solve_semistability_lyapunov(sys)
        s = spectral.projector.s_inf
        w = rng.normal(size=(n, n))
        shifted = g.p_inf + s @ (0.5 * (w + w.T)) @ s.conj().T
        delta_norm, compression, kernel_range, homogeneous = difference_structure(
            spectral, g.p_inf, shifted)
        assert compression <= 1e-6 * max(delta_norm, 1e-12)
        assert kernel_range <= 1e-6 * max(delta_norm, 1e-12)
        scale = spectral.norm_a * (opnorm(g.p_inf) + opnorm(shifted))
        assert homogeneous <= 1e-7 * scale


def complete_graph_laplacian(n):
    """Negated Laplacian of K_n: eigenvalue 0 once and -n with multiplicity n - 1."""
    return np.ones((n, n)) - n * np.eye(n)


def three_component_laplacian():
    """Negated Laplacian of a 2-path, a weighted 3-path and a triangle."""
    blocks = (
        -np.array([[1.0, -1.0], [-1.0, 1.0]]),
        -np.array([[0.5, -0.5, 0.0], [-0.5, 2.5, -2.0], [0.0, -2.0, 2.0]]),
        complete_graph_laplacian(3),
    )
    return scipy.linalg.block_diag(*blocks)


@pytest.mark.parametrize("a", [complete_graph_laplacian(6), three_component_laplacian()],
                         ids=["complete-6", "three-components"])
def test_eigenbasis_solve_matches_lstsq_on_laplacians(a, monkeypatch):
    def no_schur_solver(*args, **kwargs):
        raise AssertionError("self-adjoint A went through the Schur solver")

    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", no_schur_solver)
    rng = np.random.default_rng(31)
    n = a.shape[0]
    for b in (np.eye(n), rng.normal(size=(n, 2))):
        sys = StateSpaceSystem(a, b)
        assert sys.spectral.hermitian
        q = gramian._lyapunov_rhs(sys)
        g = solve_semistability_lyapunov(sys)
        ref = _solve_lstsq(a, q, sys.spectral.projector.s_inf)
        assert opnorm(g.p_inf - ref) <= 1e-10 * max(1.0, opnorm(ref))
        assert g.norm_p_inf == pytest.approx(opnorm(g.p_inf), rel=1e-12)
        assert g.constraint_defect <= 1e-12 * g.norm_p_inf
