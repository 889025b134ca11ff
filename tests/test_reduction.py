import numpy as np
import pytest

from semigram import (
    ConditioningError,
    DimensionError,
    InvalidSelectionError,
    StateSpaceSystem,
    check_preservation,
    is_controllable,
    mode_truncation,
    propagator,
    spectral_data,
)
from semigram import lapack, semistability
from semigram.linalg import opnorm

from conftest import (
    intertwining_defect,
    nonnormal_semistable_factors,
    random_controllable_pair,
    random_nonnormal_semistable,
    random_selfadjoint_semistable,
    sync_defects,
)


def truncate(a, keep, b=None, c=None):
    sys = StateSpaceSystem(a, b, c)
    spectral = spectral_data(np.asarray(a, dtype=float))
    return sys, spectral, mode_truncation(sys, spectral, keep)


def test_system_defaults_and_validation():
    a = np.diag([0.0, -1.0])
    sys = StateSpaceSystem(a)
    assert np.array_equal(sys.b, np.eye(2))
    assert np.array_equal(sys.c, np.eye(2))
    assert sys.n == 2 and sys.n_inputs == 2 and sys.n_outputs == 2
    with pytest.raises(DimensionError):
        StateSpaceSystem(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        StateSpaceSystem(a, b=np.ones((3, 1)))
    with pytest.raises(DimensionError):
        StateSpaceSystem(a, c=np.ones((1, 3)))


def test_truncation_keeps_slowest_modes():
    a = np.diag([0.0, -1.0, -2.0])
    _, _, red = truncate(a, 2)
    assert red.order == 2
    assert np.allclose(red.sigma @ red.pi, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(red.a_hat, np.diag([0.0, -1.0]), atol=1e-12)
    assert red.commutativity_defect <= 1e-12
    assert red.kernel_identity_defect <= 1e-12


def test_truncation_heat_modes():
    a = np.diag([0.0, -np.pi**2, -4 * np.pi**2, -9 * np.pi**2])
    _, _, red = truncate(a, 2)
    assert np.allclose(red.a_hat, np.diag([0.0, -np.pi**2]), atol=1e-12)
    assert red.commutativity_defect == 0.0


def test_truncation_keep_all_is_identity_up_to_ordering():
    a = np.diag([0.0, -1.0, -2.0])
    _, _, red = truncate(a, 3)
    assert np.allclose(red.sigma @ red.pi, np.eye(3), atol=1e-10)
    assert np.allclose(red.pi @ red.sigma, np.eye(3), atol=1e-10)


def test_truncation_reduced_matrices_shapes():
    a = np.diag([0.0, -1.0, -2.0])
    b = np.ones((3, 1))
    c = np.ones((2, 3))
    _, _, red = truncate(a, 2, b=b, c=c)
    assert red.b_hat.shape == (2, 1)
    assert red.c_hat.shape == (2, 2)
    assert np.allclose(red.b_hat, red.pi @ b, atol=1e-14)
    assert np.allclose(red.c_hat, c @ red.sigma, atol=1e-14)


def test_selection_must_include_kernel():
    a = np.diag([0.0, -1.0, -2.0])
    sys = StateSpaceSystem(a)
    spectral = spectral_data(a)
    with pytest.raises(InvalidSelectionError):
        mode_truncation(sys, spectral, [1, 2])
    with pytest.raises(InvalidSelectionError):
        mode_truncation(sys, spectral, 0)


def test_selection_validation():
    a = np.diag([0.0, -1.0, -2.0])
    sys = StateSpaceSystem(a)
    spectral = spectral_data(a)
    with pytest.raises(InvalidSelectionError):
        mode_truncation(sys, spectral, [0, 3])
    with pytest.raises(InvalidSelectionError):
        mode_truncation(sys, spectral, [0, 0, 1])
    with pytest.raises(InvalidSelectionError):
        mode_truncation(sys, spectral, -1)
    with pytest.raises(InvalidSelectionError):
        mode_truncation(sys, spectral, 4)
    with pytest.raises(InvalidSelectionError):
        mode_truncation(sys, spectral, True)


def test_explicit_selection_matches_count_selection():
    a = np.diag([0.0, -1.0, -2.0])
    _, _, by_count = truncate(a, 2)
    _, _, by_index = truncate(a, [0, 1])
    assert np.allclose(by_count.a_hat, by_index.a_hat, atol=1e-14)
    assert by_count.kept_modes == by_index.kept_modes


def test_conjugate_pair_realification():
    # eigenvalues 0, -1 +/- 2i, -3 in a rotated frame
    rng = np.random.default_rng(5)
    block = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 2.0, 0.0],
        [0.0, -2.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -3.0],
    ])
    qmat, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = qmat @ block @ qmat.T
    sys = StateSpaceSystem(a)
    spectral = spectral_data(a)
    red = mode_truncation(sys, spectral, 3)
    assert red.a_hat.dtype.kind == "f"
    eig = np.sort_complex(np.linalg.eigvals(red.a_hat))
    expected = np.sort_complex(np.array([0.0, -1.0 + 2.0j, -1.0 - 2.0j]))
    assert np.abs(eig - expected).max() <= 1e-10
    assert red.commutativity_defect <= 1e-10 * max(opnorm(a) * opnorm(red.pi), 1.0)


def test_split_conjugate_pair_rejected():
    block = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 2.0, 0.0],
        [0.0, -2.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -3.0],
    ])
    sys = StateSpaceSystem(block)
    spectral = spectral_data(block)
    # find the index set {kernel, one member of the pair}
    order = np.argsort(-spectral.eigenvalues.real)
    pair = [i for i in range(4) if abs(spectral.eigenvalues[i].imag) > 1.0]
    with pytest.raises(InvalidSelectionError):
        mode_truncation(sys, spectral, [0, pair[0]])


def test_complex_system_keeps_complex_reduction():
    a = np.diag([0.0, -1.0 + 1.0j])
    sys = StateSpaceSystem(a, b=np.eye(2, dtype=complex), c=np.eye(2, dtype=complex))
    spectral = spectral_data(a)
    red = mode_truncation(sys, spectral, 2)
    assert red.a_hat.dtype.kind == "c"
    assert np.allclose(red.a_hat, a, atol=1e-12)


def test_repeated_zero_of_nonnormal_generator_gives_real_reduction():
    # eig, which the controllability test reads, returns the double zero as
    # a +-i eps pair with complex eigenvectors; the truncation reads the
    # real Schur split instead
    v = np.random.default_rng(2).standard_normal((4, 4))
    a = v @ np.diag([0.0, 0.0, -1.0, -2.0]) @ np.linalg.inv(v)
    assert np.any(np.linalg.eig(a)[0].imag != 0.0)
    spectral = spectral_data(a)
    sys = StateSpaceSystem(a)
    red = mode_truncation(sys, spectral, 2)
    assert not np.iscomplexobj(red.sigma) and not np.iscomplexobj(red.pi)
    assert opnorm(red.a_hat) <= 1e-12
    assert red.kernel_identity_defect <= 1e-12
    assert np.allclose(red.sigma @ red.pi, spectral.projector.s_inf,
                       atol=1e-10)
    assert check_preservation(sys, red).reduced_verdict == "semistable"


def test_truncation_rejects_record_of_another_generator():
    sys = StateSpaceSystem(np.diag([0.0, -1.0, -2.0]))
    with pytest.raises(DimensionError):
        mode_truncation(sys, spectral_data(np.diag([0.0, -1.0, -3.0])), 2)


def test_invariance_diagonal_exact():
    a = np.diag([0.0, -1.0, -2.0])
    sys, spectral, red = truncate(a, 2)
    assert intertwining_defect(sys, red, [0.0, 0.5, 1.0, 2.0]) <= 1e-14


def test_invariance_random_symmetric():
    rng = np.random.default_rng(11)
    a = random_selfadjoint_semistable(rng, 8, 1)
    sys = StateSpaceSystem(a)
    spectral = spectral_data(a)
    red = mode_truncation(sys, spectral, 4)
    assert intertwining_defect(sys, red, [0.0, 0.5, 1.0, 2.0]) <= 1e-8


def test_controllability_matrix_and_rank():
    spectral = spectral_data(np.diag([0.0, -1.0]))
    assert is_controllable(spectral, np.array([[1.0], [1.0]]))
    # b misses the mode at -1
    assert not is_controllable(spectral, np.array([[1.0], [0.0]]))
    with pytest.raises(DimensionError):
        is_controllable(spectral, np.ones((3, 1)))
    # a repeated eigenvalue needs as many independent inputs as its
    # multiplicity
    repeated = spectral_data(np.diag([-1.0, -1.0, -2.0]))
    assert not is_controllable(repeated, np.ones((3, 1)))
    assert is_controllable(repeated, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    # no trustworthy left eigenvectors for a nearly defective generator
    nearly_defective = spectral_data(np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-14]]))
    with pytest.raises(ConditioningError):
        is_controllable(nearly_defective, np.ones((2, 1)))


def test_selection_must_keep_eigenvalue_clusters_whole():
    v = np.triu(np.ones((4, 4)))
    a = v @ np.diag([0.0, -1.0, -1.0, -2.0]) @ np.linalg.inv(v)
    sys = StateSpaceSystem(a)
    spectral = spectral_data(a)
    assert list(spectral.clusters) == [0, 1, 1, 3]
    with pytest.raises(InvalidSelectionError):
        mode_truncation(sys, spectral, 2)
    assert mode_truncation(sys, spectral, 3).order == 3


@pytest.mark.parametrize("m", [20, 40])
def test_heat_surrogate_is_controllable(m):
    # distinct eigenvalues, each excited by the input
    a = np.diag(-(np.pi * np.arange(m)) ** 2)
    assert is_controllable(spectral_data(a), np.ones((m, 1)))


def test_nonnormal_pair_is_controllable():
    rng = np.random.default_rng(5)
    a = random_nonnormal_semistable(rng, 50, 1, 30.0)
    assert is_controllable(spectral_data(a), rng.normal(size=(50, 2)))


@pytest.mark.parametrize("uncontrollable_mode", [None, 7])
def test_pbh_over_a_kernel_pair_matches_the_exact_left_eigenvectors(uncontrollable_mode):
    # at this seed eig returns the double zero as a +-i eps pair: each of
    # its eigenvalues takes the kernel cluster's label, so the pair is
    # tested as the cluster it is; the exact PBH test reads V^-1
    rng = np.random.default_rng(4)
    v, lam, v_inv = nonnormal_semistable_factors(rng, 50, 2, 30.0)
    a = (v * lam) @ v_inv
    assert np.any(np.linalg.eig(a)[0].imag != 0.0)
    b = rng.normal(size=(50, 2))
    if uncontrollable_mode is not None:
        # B orthogonal to one stable mode's left eigenvector
        w = v_inv[uncontrollable_mode]
        b -= np.outer(w, w @ b) / (w @ w)
    stable = np.linalg.norm(v_inv[2:] @ b, axis=1)
    exact = bool(np.linalg.matrix_rank(v_inv[:2] @ b) == 2 and np.all(
        stable > 1e-10 * np.linalg.norm(v_inv[2:], axis=1) * opnorm(b)))
    assert exact == (uncontrollable_mode is None)
    assert is_controllable(spectral_data(a), b) == exact


def consensus_generator(rng, sizes):
    """Negated Laplacian of a graph with one component per entry of sizes.

    Each component is a random spanning tree plus as many random chords as
    it has nodes, with edge weights uniform in [0.5, 2].
    """
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        nodes = np.arange(start, start + size)
        for i in range(1, size):
            j = nodes[rng.integers(0, i)]
            w[nodes[i], j] = w[j, nodes[i]] = rng.uniform(0.5, 2.0)
        for _ in range(size):
            i, j = rng.choice(nodes, 2, replace=False)
            w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
        start += size
    return w - np.diag(w.sum(axis=1))


def test_leaderless_consensus_component_is_uncontrollable():
    rng = np.random.default_rng(11)
    a = consensus_generator(rng, (30, 30))
    spectral = spectral_data(a)
    nodes = np.eye(60)
    # one leader in each component reaches every mode
    assert is_controllable(spectral, nodes[:, [0, 45]])
    # both leaders in the first component: the second one's mean is unreachable
    b = nodes[:, [0, 5]]
    assert not is_controllable(spectral, b)
    sys = StateSpaceSystem(a, b)
    report = check_preservation(sys, mode_truncation(sys, spectral, 10))
    assert not report.original_controllable
    assert not report.reduced_controllable
    assert report.controllability_preserved


def test_preservation_spec_example():
    a = np.diag([0.0, -1.0, -2.0])
    b = np.ones((3, 1))
    sys, spectral, red = truncate(a, 2, b=b)
    report = check_preservation(sys, red)
    assert report.original_verdict == "semistable"
    assert report.reduced_verdict == "semistable"
    assert report.semistability_preserved
    assert report.original_controllable
    assert report.reduced_controllable
    assert report.controllability_preserved


def test_preservation_stable_case():
    a = np.diag([-1.0, -2.0])
    b = np.ones((2, 1))
    sys, spectral, red = truncate(a, 1, b=b)
    assert np.allclose(red.a_hat, [[-1.0]], atol=1e-14)
    report = check_preservation(sys, red)
    assert report.original_verdict == "stable"
    assert report.reduced_verdict == "stable"
    assert report.semistability_preserved
    assert report.controllability_preserved


def test_preservation_flags_lost_controllability():
    # drop the only mode excited by b: reduced pair keeps rank, so build one
    # where the kept modes are not excited
    a = np.diag([0.0, -1.0, -2.0])
    b = np.array([[0.0], [0.0], [1.0]])
    sys, spectral, red = truncate(a, 2, b=b)
    report = check_preservation(sys, red)
    assert not report.original_controllable
    assert not report.reduced_controllable
    # losing nothing that existed: preservation flag stays true
    assert report.controllability_preserved


def test_trajectory_sync_kernel_state():
    a = np.diag([0.0, -1.0, -4.0])
    sys, spectral, red = truncate(a, 2)
    x0 = np.array([1.0, 0.0, 0.0])
    defects = sync_defects(sys, red, x0, [0.0, 1.0, 5.0])
    assert max(defects) <= 1e-10


def test_trajectory_sync_exact_decay_oracle():
    # kept modes reproduce the slow dynamics; dropped mode decays like
    # exp(-4t) from unit initial mass
    a = np.diag([0.0, -1.0, -4.0])
    sys, spectral, red = truncate(a, 2)
    x0 = np.ones(3)
    times = [0.0, 1.0, 2.0, 3.0]
    defects = sync_defects(sys, red, x0, times)
    for t, d in zip(times, defects):
        assert abs(d - np.exp(-4.0 * t)) <= 1e-9


def test_trajectory_sync_kept_span_state():
    rng = np.random.default_rng(13)
    a = random_selfadjoint_semistable(rng, 6, 1)
    sys = StateSpaceSystem(a)
    spectral = spectral_data(a)
    red = mode_truncation(sys, spectral, 3)
    x0 = (red.sigma @ rng.normal(size=3)).real
    defects = sync_defects(sys, red, x0, [0.0, 0.7, 1.9])
    assert max(defects) <= 1e-9


def test_biorthogonality_and_idempotency_random():
    rng = np.random.default_rng(19)
    for _ in range(12):
        n = int(rng.integers(3, 12))
        kernel = int(rng.integers(1, 3))
        a = random_selfadjoint_semistable(rng, n, kernel)
        sys = StateSpaceSystem(a)
        spectral = spectral_data(a)
        r = int(rng.integers(kernel, n + 1))
        red = mode_truncation(sys, spectral, r)
        assert opnorm(red.pi @ red.sigma - np.eye(r)) <= 1e-10
        proj = red.sigma @ red.pi
        assert opnorm(proj @ proj - proj) <= 1e-8
        s_inf = np.zeros((n, n))
        kb = spectral.kernel_basis
        s_inf = kb @ kb.conj().T
        assert opnorm((np.eye(n) - proj) @ s_inf) <= 1e-8
        # dropped-mode subspace is flow-invariant
        for t in (0.5, 1.5):
            e_at = propagator(a, np.eye(n))(t)
            comp = np.eye(n) - proj
            assert opnorm(red.pi @ e_at @ comp) <= 1e-8 * max(
                1.0, opnorm(red.pi)
            )


def test_preservation_random_never_degrades():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        a, b = random_controllable_pair(rng, n, 1)
        sys = StateSpaceSystem(a, b=b)
        spectral = spectral_data(a)
        r = int(rng.integers(1, n + 1))
        red = mode_truncation(sys, spectral, r)
        report = check_preservation(sys, red)
        assert report.semistability_preserved
        assert report.controllability_preserved


def test_keep_none_of_stable_system():
    a = np.diag([-1.0, -2.0])
    sys, spectral, red = truncate(a, 0)
    assert red.order == 0
    assert red.a_hat.shape == (0, 0)
    assert red.pi.shape == (0, 2)
    assert red.sigma.shape == (2, 0)


@pytest.mark.parametrize("seed, n, kernel_dim, keep", [
    (4, 50, 2, 12),  # eig returns the double zero as a +-i eps pair
    (1, 50, 1, 13),
    (2, 200, 3, 40),
    (3, 6, 1, 3),
    (6, 30, 2, [0, 1, 4, 9, 17, 29]),
])
def test_nonnormal_truncation_projector_is_exact(seed, n, kernel_dim, keep):
    v, lam, v_inv = nonnormal_semistable_factors(
        np.random.default_rng(seed), n, kernel_dim, 30.0)
    a = (v * lam) @ v_inv
    spectral = spectral_data(a)
    red = mode_truncation(StateSpaceSystem(a), spectral, keep)
    sel = list(range(keep)) if isinstance(keep, int) else keep
    exact = v[:, sel] @ v_inv[sel]
    assert not np.iscomplexobj(red.pi) and not np.iscomplexobj(red.sigma)
    assert opnorm(red.sigma @ red.pi - exact) <= 1e-10 * opnorm(exact)


def test_nonnormal_truncation_reads_the_records_schur_split(monkeypatch):
    n = 50
    a = random_nonnormal_semistable(np.random.default_rng(4), n, 2, 30.0)
    spectral = spectral_data(a)
    assert spectral.projector.s_inf.shape == (n, n)  # builds the Schur split
    counts = dict.fromkeys(("inv", "cond", "eig", "svd", "schur"), 0)

    def counting(key, fn):
        def wrapped(m, *args, **kwargs):
            counts[key] += np.shape(m) == (n, n)
            return fn(m, *args, **kwargs)
        return wrapped

    for key in ("inv", "cond", "eig", "svd"):
        monkeypatch.setattr(np.linalg, key, counting(key, getattr(np.linalg, key)))
    monkeypatch.setattr(lapack, "schur", counting("schur", lapack.schur))
    red = mode_truncation(StateSpaceSystem(a), spectral, 12)
    assert counts == dict.fromkeys(counts, 0)
    assert red.kernel_identity_defect <= 1e-12


def rotated_pair_generator(rotate):
    """Eigenvalues 0, -1 -+ 2i and -3, in a rotated frame if ``rotate``."""
    block = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 2.0, 0.0],
        [0.0, -2.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -3.0],
    ])
    if not rotate:
        return block
    qmat, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))
    return qmat @ block @ qmat.T


@pytest.mark.parametrize("rotate", [False, True])
def test_complex_input_may_split_a_pair_of_a_real_generator(rotate):
    # the reduction is complex, so it may keep one member of the pair
    a = rotated_pair_generator(rotate)
    sys = StateSpaceSystem(a, b=1j * np.ones((4, 1)))
    spectral = spectral_data(a)
    for member in (1, 2):
        red = mode_truncation(sys, spectral, [0, member])
        assert red.a_hat.dtype.kind == "c"
        eig = np.sort_complex(np.linalg.eigvals(red.a_hat))
        expected = np.sort_complex(np.array([0.0, spectral.eigenvalues[member]]))
        assert np.abs(eig - expected).max() <= 1e-12
        assert red.commutativity_defect <= 1e-14
    with pytest.raises(InvalidSelectionError):
        mode_truncation(StateSpaceSystem(a), spectral, [0, 1])


def test_large_projector_bound_is_conditioning_error(monkeypatch):
    # the coupling c gives R = [0, -c] between the kept modes 0, -1 and the
    # dropped mode -2, and a spectral projector of norm about c. A
    # generator the record classifies as semistable cannot make |R| reach
    # COND_LIMIT: the rank test of A bounds the coupling first (at c = 1e7
    # this A already fails it), so the test lowers the limit
    c = 1e3
    a = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, c], [0.0, 0.0, -2.0]])
    sys = StateSpaceSystem(a)
    spectral = spectral_data(a)
    red = mode_truncation(sys, spectral, 2)
    assert opnorm(red.sigma @ red.pi) == pytest.approx(np.hypot(1.0, c), rel=1e-12)
    monkeypatch.setattr(semistability, "COND_LIMIT", 0.5 * c)
    with pytest.raises(ConditioningError, match="1 \\+ \\|R\\|"):
        mode_truncation(sys, spectral, 2)
