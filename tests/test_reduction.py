import dataclasses

import numpy as np
import pytest

from semigram import (
    ConditioningError,
    DimensionError,
    InvalidSelectionError,
    PreconditionError,
    StateSpaceSystem,
    check_invariance,
    check_preservation,
    controllability_matrix,
    is_controllable,
    limit_projector,
    matrix_exponential,
    mode_truncation,
    spectral_data,
    trajectory_sync_defect,
)
from semigram.linalg import opnorm

from conftest import random_controllable_pair, random_selfadjoint_semistable


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
    # eig returns the double zero as a +-i eps pair with complex
    # eigenvectors; the real kernel basis must stand in for them
    v = np.random.default_rng(2).standard_normal((4, 4))
    a = v @ np.diag([0.0, 0.0, -1.0, -2.0]) @ np.linalg.inv(v)
    spectral = spectral_data(a)
    assert np.any(spectral.eigenvalues[:2].imag != 0.0)
    sys = StateSpaceSystem(a)
    red = mode_truncation(sys, spectral, 2)
    assert not np.iscomplexobj(red.sigma) and not np.iscomplexobj(red.pi)
    assert opnorm(red.a_hat) <= 1e-12
    assert red.kernel_identity_defect <= 1e-12
    assert np.allclose(red.sigma @ red.pi, limit_projector(a, spectral).s_inf,
                       atol=1e-10)
    assert check_preservation(sys, red).reduced_verdict == "semistable"


def test_truncation_rejects_record_of_another_generator():
    sys = StateSpaceSystem(np.diag([0.0, -1.0, -2.0]))
    with pytest.raises(DimensionError):
        mode_truncation(sys, spectral_data(np.diag([0.0, -1.0, -3.0])), 2)


def test_invariance_diagonal_exact():
    a = np.diag([0.0, -1.0, -2.0])
    sys, spectral, red = truncate(a, 2)
    report = check_invariance(sys, red, [0.0, 0.5, 1.0, 2.0])
    assert report.max_defect <= 1e-14
    assert len(report.times) == len(report.defects) == 4


def test_invariance_random_symmetric():
    rng = np.random.default_rng(11)
    a = random_selfadjoint_semistable(rng, 8, 1)
    sys = StateSpaceSystem(a)
    spectral = spectral_data(a)
    red = mode_truncation(sys, spectral, 4)
    report = check_invariance(sys, red, [0.0, 0.5, 1.0, 2.0])
    assert report.max_defect <= 1e-8


def test_invariance_rejects_bad_projection():
    a = np.diag([0.0, -1.0, -2.0])
    sys, spectral, red = truncate(a, 2)
    bad = dataclasses.replace(red, pi=red.pi + 0.1, commutativity_defect=1.0)
    with pytest.raises(PreconditionError):
        check_invariance(sys, bad, [0.0, 1.0])


def test_controllability_matrix_and_rank():
    a = np.diag([0.0, -1.0])
    b = np.array([[1.0], [1.0]])
    k = controllability_matrix(a, b)
    assert k.shape == (2, 2)
    assert is_controllable(a, b)
    # second column is A b scaled; direction check only
    assert np.linalg.matrix_rank(k) == 2
    b_bad = np.array([[1.0], [0.0]])
    assert not is_controllable(a, b_bad)


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
    assert report.ok


def test_preservation_stable_case():
    a = np.diag([-1.0, -2.0])
    b = np.ones((2, 1))
    sys, spectral, red = truncate(a, 1, b=b)
    assert np.allclose(red.a_hat, [[-1.0]], atol=1e-14)
    report = check_preservation(sys, red)
    assert report.original_verdict == "stable"
    assert report.reduced_verdict == "stable"
    assert report.ok


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
    defects = trajectory_sync_defect(sys, red, x0, [0.0, 1.0, 5.0])
    assert max(defects) <= 1e-10


def test_trajectory_sync_exact_decay_oracle():
    # kept modes reproduce the slow dynamics; dropped mode decays like
    # exp(-4t) from unit initial mass
    a = np.diag([0.0, -1.0, -4.0])
    sys, spectral, red = truncate(a, 2)
    x0 = np.ones(3)
    times = [0.0, 1.0, 2.0, 3.0]
    defects = trajectory_sync_defect(sys, red, x0, times)
    for t, d in zip(times, defects):
        assert abs(d - np.exp(-4.0 * t)) <= 1e-9


def test_trajectory_sync_kept_span_state():
    rng = np.random.default_rng(13)
    a = random_selfadjoint_semistable(rng, 6, 1)
    sys = StateSpaceSystem(a)
    spectral = spectral_data(a)
    red = mode_truncation(sys, spectral, 3)
    x0 = (red.sigma @ rng.normal(size=3)).real
    defects = trajectory_sync_defect(sys, red, x0, [0.0, 0.7, 1.9])
    assert max(defects) <= 1e-9


def test_trajectory_sync_validates_state():
    a = np.diag([0.0, -1.0])
    sys, spectral, red = truncate(a, 2)
    with pytest.raises(DimensionError):
        trajectory_sync_defect(sys, red, np.ones(3), [0.0])


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
            e_at = matrix_exponential(a, t)
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
        assert report.ok


def test_keep_none_of_stable_system():
    a = np.diag([-1.0, -2.0])
    sys, spectral, red = truncate(a, 0)
    assert red.order == 0
    assert red.a_hat.shape == (0, 0)
    assert red.pi.shape == (0, 2)
    assert red.sigma.shape == (2, 0)
