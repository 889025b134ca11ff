import numpy as np
import pytest

from semigram import (
    NOT_SEMISTABLE,
    SEMISTABLE,
    STABLE,
    ConditioningError,
    NotSemistableError,
    classify,
    decay_defect,
    limit_projector,
    spectral_data,
)
from semigram.linalg import opnorm

from conftest import random_selfadjoint_semistable


def laplacian_k3():
    return -(3 * np.eye(3) - np.ones((3, 3)))


def test_classify_fixture_verdicts():
    assert classify(np.diag([-1.0, -2.0])).verdict == STABLE
    assert classify(np.diag([0.0, -1.0])).verdict == SEMISTABLE
    assert classify(np.array([[0.0, 1.0], [0.0, 0.0]])).verdict == NOT_SEMISTABLE


def test_classify_rejects_positive_and_rotating_modes():
    assert classify(np.diag([1e-3, -1.0])).verdict == NOT_SEMISTABLE
    # undamped oscillator: purely imaginary pair
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert classify(a).verdict == NOT_SEMISTABLE


def test_classify_rotated_jordan_zero():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    jordan = np.zeros((3, 3))
    jordan[0, 1] = 1.0
    jordan[2, 2] = -1.0
    assert classify(q @ jordan @ q.T).verdict == NOT_SEMISTABLE


def test_classify_semisimple_repeated_zero():
    a = np.diag([0.0, 0.0, -2.0])
    report = classify(a)
    assert report.verdict == SEMISTABLE
    assert report.kernel_dim == 2
    assert report.mu == pytest.approx(2.0)


def test_classify_laplacian():
    report = classify(laplacian_k3())
    assert report.verdict == SEMISTABLE
    assert report.kernel_dim == 1
    assert report.mu == pytest.approx(3.0)


def test_classify_mu_and_overshoot_diagonal():
    report = classify(np.diag([0.0, -0.25, -4.0]))
    assert report.mu == pytest.approx(0.25)
    assert report.overshoot_m == pytest.approx(1.0, abs=1e-9)


def test_classify_zero_matrix():
    report = classify(np.zeros((3, 3)))
    assert report.verdict == SEMISTABLE
    assert report.kernel_dim == 3
    assert report.mu == np.inf


def test_spectral_data_canonical_order():
    spectral = spectral_data(np.diag([-2.0, 0.0, -1.0]))
    assert np.allclose(spectral.eigenvalues.real, [0.0, -1.0, -2.0])
    assert spectral.zero_eig_algebraic_multiplicity == 1
    assert spectral.zero_eig_geometric_multiplicity == 1
    assert spectral.zero_eig_semisimple
    assert spectral.hermitian


def test_spectral_data_zero_tol_override():
    a = np.diag([-1e-9, -1.0])
    assert classify(a).verdict == STABLE
    assert classify(a, zero_tol=1e-6).verdict == SEMISTABLE


def test_limit_projector_orthogonal_for_selfadjoint():
    a = np.diag([0.0, -1.0, -3.0])
    spectral = spectral_data(a)
    lp = limit_projector(a, spectral)
    assert np.allclose(lp.s_inf, np.diag([1.0, 0.0, 0.0]), atol=1e-14)
    assert lp.idempotency_defect <= 1e-8 * opnorm(lp.s_inf)
    assert lp.annihilation_defect <= 1e-8 * opnorm(a) * opnorm(lp.s_inf)


def test_limit_projector_laplacian_is_averaging():
    a = laplacian_k3()
    lp = limit_projector(a, spectral_data(a))
    assert np.abs(lp.s_inf - np.full((3, 3), 1.0 / 3.0)).max() < 1e-12


def test_limit_projector_oblique():
    a = np.array([[0.0, 1.0], [0.0, -1.0]])
    lp = limit_projector(a, spectral_data(a))
    assert np.abs(lp.s_inf - np.array([[1.0, 1.0], [0.0, 0.0]])).max() < 1e-12
    # matches the long-time propagator
    assert opnorm(lp.s_inf - np.diag(np.exp(np.diag([0.0, -40.0])))) < 2.0
    assert not np.iscomplexobj(lp.s_inf)


def test_limit_projector_of_stable_system_is_zero():
    a = np.diag([-1.0, -2.0])
    lp = limit_projector(a, spectral_data(a))
    assert np.array_equal(lp.s_inf, np.zeros((2, 2)))


def test_limit_projector_rejects_not_semistable():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSemistableError):
        limit_projector(a, spectral_data(a))


def test_limit_projector_defective_stable_part():
    # stable block is a Jordan pair: eigenbasis singular, kernel-pair
    # fallback must still produce a certified projector
    rng = np.random.default_rng(11)
    blk = np.array([
        [0.0, 0.0, 0.0],
        [0.0, -1.0, 1.0],
        [0.0, 0.0, -1.0],
    ])
    s = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    a = s @ blk @ np.linalg.inv(s)
    spectral = spectral_data(a)
    lp = limit_projector(a, spectral)
    assert lp.idempotency_defect <= 1e-8 * opnorm(lp.s_inf)
    assert lp.annihilation_defect <= 1e-8 * opnorm(a) * opnorm(lp.s_inf)
    # agrees with the long-time propagator
    horizon = decay_defect(a, lp, [40.0])
    assert horizon[0] < 1e-12


def test_limit_projector_random_selfadjoint():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, min(3, n) + 1))
        a = random_selfadjoint_semistable(rng, n, k)
        spectral = spectral_data(a)
        lp = limit_projector(a, spectral)
        s = lp.s_inf
        assert opnorm(s @ s - s) <= 1e-10
        assert opnorm(a @ s) <= 1e-10 * max(opnorm(a), 1.0)
        assert opnorm(s - s.T) <= 1e-10


def test_decay_defect_exponential_rate():
    a = np.diag([0.0, -1.0])
    lp = limit_projector(a, spectral_data(a))
    times = [0.0, 1.0, 2.0, 5.0]
    defects = decay_defect(a, lp, times)
    assert np.abs(defects - np.exp(-np.array(times))).max() < 1e-14


def test_decay_defect_validates_times():
    a = np.diag([0.0, -1.0])
    lp = limit_projector(a, spectral_data(a))
    with pytest.raises(ValueError):
        decay_defect(a, lp, [])
    with pytest.raises(ValueError):
        decay_defect(a, lp, [-1.0])


def test_spectral_data_mismatched_projector_input():
    a = np.diag([0.0, -1.0])
    spectral = spectral_data(a)
    with pytest.raises(ConditioningError):
        limit_projector(np.diag([0.0, -1.0, -2.0]), spectral)


def test_limit_projector_rejects_record_of_another_generator():
    spectral = spectral_data(np.diag([0.0, -1.0]))
    with pytest.raises(ConditioningError):
        limit_projector(np.diag([0.0, -2.0]), spectral)


def test_record_builds_limit_operator_and_overshoot_once():
    a = np.array([[0.0, 1.0], [0.0, -1.0]])
    record = classify(a)
    assert record.verdict == SEMISTABLE
    assert record.failure_reason is None
    lp = limit_projector(a, record)
    assert limit_projector(a, record) is lp is record.projector
    assert record.overshoot_m == pytest.approx(np.sqrt(2.0), rel=1e-6)
    assert record.overshoot_m is record.overshoot_m


def test_record_failure_reasons():
    cases = (
        (np.diag([1.0, -1.0]), "eigenvalue with positive real part"),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]),
         "nonreal eigenvalue on the imaginary axis"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), "zero eigenvalue defective"),
    )
    for a, reason in cases:
        record = classify(a)
        assert record.verdict == NOT_SEMISTABLE
        assert record.failure_reason == reason
        assert record.overshoot_m is None
        with pytest.raises(NotSemistableError):
            limit_projector(a, record)
