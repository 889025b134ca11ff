import numpy as np
import pytest
import scipy.linalg

from semigram import (
    NOT_SEMISTABLE,
    SEMISTABLE,
    STABLE,
    NotSemistableError,
    StateSpaceSystem,
    lyapunov_rhs,
    mode_truncation,
    solve_semistability_lyapunov,
    spectral_data,
)
from semigram.linalg import default_rank_tol, opnorm

from conftest import (
    decay_defects,
    drift_chain,
    nonnormal_semistable_factors,
    random_nonnormal_semistable,
    random_selfadjoint_semistable,
    transient_cases,
)


def laplacian_k3():
    return -(3 * np.eye(3) - np.ones((3, 3)))


def test_classify_fixture_verdicts():
    assert spectral_data(np.diag([-1.0, -2.0])).verdict == STABLE
    assert spectral_data(np.diag([0.0, -1.0])).verdict == SEMISTABLE
    assert spectral_data(np.array([[0.0, 1.0], [0.0, 0.0]])).verdict == NOT_SEMISTABLE


def test_classify_rejects_positive_and_rotating_modes():
    assert spectral_data(np.diag([1e-3, -1.0])).verdict == NOT_SEMISTABLE
    # undamped oscillator: purely imaginary pair
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert spectral_data(a).verdict == NOT_SEMISTABLE


def test_classify_rotated_jordan_zero():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    jordan = np.zeros((3, 3))
    jordan[0, 1] = 1.0
    jordan[2, 2] = -1.0
    assert spectral_data(q @ jordan @ q.T).verdict == NOT_SEMISTABLE


def test_classify_semisimple_repeated_zero():
    a = np.diag([0.0, 0.0, -2.0])
    report = spectral_data(a)
    assert report.verdict == SEMISTABLE
    assert report.kernel_dim == 2
    assert report.mu == pytest.approx(2.0)


def test_classify_laplacian():
    report = spectral_data(laplacian_k3())
    assert report.verdict == SEMISTABLE
    assert report.kernel_dim == 1
    assert report.mu == pytest.approx(3.0)


def test_classify_mu_and_overshoot_diagonal():
    report = spectral_data(np.diag([0.0, -0.25, -4.0]))
    assert report.mu == pytest.approx(0.25)
    assert report.decay_bound.constant == pytest.approx(1.0, abs=1e-9)
    assert report.decay_bound.rate == report.mu


def test_classify_zero_matrix():
    report = spectral_data(np.zeros((3, 3)))
    assert report.verdict == SEMISTABLE
    assert report.kernel_dim == 3
    assert report.mu == np.inf


def test_spectral_data_canonical_order():
    spectral = spectral_data(np.diag([-2.0, 0.0, -1.0]))
    assert np.allclose(spectral.eigenvalues.real, [0.0, -1.0, -2.0])
    assert spectral.zero_eig_algebraic_multiplicity == 1
    assert spectral.kernel_dim == 1
    assert spectral.zero_eig_semisimple
    assert spectral.hermitian


def test_spectral_data_zero_tol_override():
    a = np.diag([-1e-9, -1.0])
    assert spectral_data(a).verdict == STABLE
    assert spectral_data(a, zero_tol=1e-6).verdict == SEMISTABLE


def test_limit_projector_orthogonal_for_selfadjoint():
    a = np.diag([0.0, -1.0, -3.0])
    spectral = spectral_data(a)
    lp = spectral.projector
    assert np.allclose(lp.s_inf, np.diag([1.0, 0.0, 0.0]), atol=1e-14)
    assert lp.idempotency_defect <= 1e-8 * opnorm(lp.s_inf)
    assert lp.annihilation_defect <= 1e-8 * opnorm(a) * opnorm(lp.s_inf)


def test_limit_projector_laplacian_is_averaging():
    a = laplacian_k3()
    lp = spectral_data(a).projector
    assert np.abs(lp.s_inf - np.full((3, 3), 1.0 / 3.0)).max() < 1e-12


def test_limit_projector_oblique():
    a = np.array([[0.0, 1.0], [0.0, -1.0]])
    lp = spectral_data(a).projector
    assert np.abs(lp.s_inf - np.array([[1.0, 1.0], [0.0, 0.0]])).max() < 1e-12
    # matches the long-time propagator
    assert opnorm(lp.s_inf - np.diag(np.exp(np.diag([0.0, -40.0])))) < 2.0
    assert not np.iscomplexobj(lp.s_inf)


def test_limit_projector_of_stable_system_is_zero():
    a = np.diag([-1.0, -2.0])
    lp = spectral_data(a).projector
    assert np.array_equal(lp.s_inf, np.zeros((2, 2)))


def test_limit_projector_rejects_not_semistable():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSemistableError):
        spectral_data(a).projector


def test_limit_projector_defective_stable_part():
    # stable block is a Jordan pair: the eigenbasis is singular, but the
    # ordered Schur split needs none and must still give a certified projector
    rng = np.random.default_rng(11)
    blk = np.array([
        [0.0, 0.0, 0.0],
        [0.0, -1.0, 1.0],
        [0.0, 0.0, -1.0],
    ])
    s = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    a = s @ blk @ np.linalg.inv(s)
    spectral = spectral_data(a)
    lp = spectral.projector
    assert lp.idempotency_defect <= 1e-8 * opnorm(lp.s_inf)
    assert lp.annihilation_defect <= 1e-8 * opnorm(a) * opnorm(lp.s_inf)
    # agrees with the long-time propagator
    horizon = decay_defects(spectral, [40.0])
    assert horizon[0] < 1e-12


def test_limit_projector_nearly_defective_complex_pair():
    # the stable pair -1 +- 1e-10 i is nearly defective: a projector built
    # from its eigenvectors comes out complex far beyond rounding, while the
    # real Schur split of the real generator gives a real, certified one
    rng = np.random.default_rng(0)
    blk = np.zeros((3, 3))
    blk[1:, 1:] = [[-1.0, 1.0], [-1e-20, -1.0]]
    s = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    a = s @ blk @ np.linalg.inv(s)
    spectral = spectral_data(a)
    lp = spectral.projector
    assert not np.iscomplexobj(lp.s_inf)
    assert lp.idempotency_defect <= 1e-8 * opnorm(lp.s_inf)
    assert lp.annihilation_defect <= 1e-8 * opnorm(a) * opnorm(lp.s_inf)
    assert decay_defects(spectral, [60.0])[0] < 1e-12


def test_limit_projector_random_selfadjoint():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, min(3, n) + 1))
        a = random_selfadjoint_semistable(rng, n, k)
        s = spectral_data(a).projector.s_inf
        assert opnorm(s @ s - s) <= 1e-10
        assert opnorm(a @ s) <= 1e-10 * max(opnorm(a), 1.0)
        assert opnorm(s - s.T) <= 1e-10


def test_decay_defect_exponential_rate():
    spectral = spectral_data(np.diag([0.0, -1.0]))
    times = [0.0, 1.0, 2.0, 5.0]
    defects = decay_defects(spectral, times)
    assert np.abs(defects - np.exp(-np.array(times))).max() < 1e-14


def grid_sup(record, rate):
    """max of |exp(A t) - S_inf|_2 e^{rate t} over t = 0 and a log grid of
    100 times from 1e-3 / mu to 40 / mu, where the transients have died.

    The reference carries the rounding of expm (about 1e-12 relative), so
    it is shrunk by that much: a sup attained at t = 0, as for a bound
    that is exact there, must not fail on the last digit.
    """
    times = np.concatenate(([0.0], np.geomspace(1e-3, 40.0, 100) / record.mu))
    sup = np.max(decay_defects(record, times) * np.exp(rate * times))
    return sup * (1.0 - 1e-12)


def test_record_builds_limit_operator_and_overshoot_once():
    a = np.array([[0.0, 1.0], [0.0, -1.0]])
    record = spectral_data(a)
    assert record.verdict == SEMISTABLE
    assert record.failure_reason is None
    assert record.projector is record.projector
    bound = record.decay_bound
    assert bound.rate == record.mu / 2
    assert bound.constant >= grid_sup(record, bound.rate)
    assert record.decay_bound is bound


def test_record_failure_reasons():
    cases = (
        (np.diag([1.0, -1.0]), "eigenvalue with positive real part"),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]),
         "nonreal eigenvalue on the imaginary axis"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), "zero eigenvalue defective"),
    ) + UNSTABLE_WITH_SIMPLE_ZERO
    for a, reason in cases:
        record = spectral_data(a)
        assert record.verdict == NOT_SEMISTABLE
        assert record.failure_reason == reason
        assert record.decay_bound is None
        with pytest.raises(NotSemistableError):
            record.projector


# unstable modes precede zero in the canonical order: a complex pair,
# whose 2x2 real Schur block moves whole, and a real eigenvalue
UNSTABLE_WITH_SIMPLE_ZERO = (
    (np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
     "eigenvalue with positive real part"),
    (np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
     "eigenvalue with positive real part"),
)


@pytest.mark.parametrize("a", [a for a, _ in UNSTABLE_WITH_SIMPLE_ZERO])
def test_unstable_record_leads_its_schur_form_with_the_zero(a):
    record = spectral_data(a)
    assert record.eigenvalues[-1] == 0.0
    assert record.zero_eig_algebraic_multiplicity == 1
    assert record.zero_eig_semisimple
    t, z = record.schur
    assert t[0, 0] == 0.0
    assert np.abs(z @ t @ z.T - a).max() <= 1e-14


@pytest.mark.parametrize("self_adjoint", [False, True])
@pytest.mark.parametrize("kernel_dim", [1, 3])
def test_one_factorization_gives_the_norm_and_the_kernel(kernel_dim, self_adjoint):
    # a non-self-adjoint record's kernel is the SVD split's at the record's
    # tolerance, bit for bit, and its norm the largest singular value; a
    # self-adjoint record reads both off its eigh, where the singular
    # values are |lambda|, and its kernel spans the same subspace
    rng = np.random.default_rng(8)
    if self_adjoint:
        a = random_selfadjoint_semistable(rng, 40, kernel_dim)
    else:
        a = random_nonnormal_semistable(rng, 40, kernel_dim, 30.0)
    spectral = spectral_data(a)
    assert spectral.hermitian == self_adjoint
    rank_tol = max(default_rank_tol(a.shape, spectral.norm_a), spectral.zero_tol)
    _, sv, vh = np.linalg.svd(a)
    kernel = vh[sv <= rank_tol].conj().T
    assert spectral.norm_a == pytest.approx(opnorm(a), rel=1e-14)
    if not self_adjoint:
        assert np.array_equal(spectral.kernel_basis, kernel)
        return
    k = spectral.kernel_basis
    assert k.shape == kernel.shape == (40, kernel_dim)
    assert np.abs(k @ k.conj().T - kernel @ kernel.conj().T).max() <= 1e-12


@pytest.mark.parametrize("cond", [3e5, 1e6])
def test_well_conditioned_double_zero_is_semisimple(cond):
    # both multiplicities are 2; the kernel-first Schur form's T11 is of
    # rounding size, far below zero_tol, while a test comparing the ranks of
    # A and A^2 read the zero as defective here
    v, lam, v_inv = nonnormal_semistable_factors(np.random.default_rng(3), 100, 2, cond)
    spectral = spectral_data((v * lam) @ v_inv)
    assert spectral.verdict == SEMISTABLE
    assert spectral.kernel_dim == spectral.zero_eig_algebraic_multiplicity == 2
    exact = v[:, :2] @ v_inv[:2]
    assert opnorm(spectral.projector.s_inf - exact) <= 1e-6 * opnorm(exact)


@pytest.mark.parametrize("n, r", [(200, 1.2), (200, 1.3), (1000, 1.01)])
def test_drift_chain_limit_operator(n, r):
    # non-normal at CLI sizes (cond(V) up to 2e11): the simple zero leads
    # the reordered Schur form, and S_inf is the stationary distribution
    # pi_i = r^i times the row of ones
    spectral = spectral_data(drift_chain(n, r))
    assert spectral.verdict == SEMISTABLE
    assert spectral.kernel_dim == 1 and spectral.zero_eig_semisimple
    pi = float(r) ** (np.arange(n) - (n - 1))  # scaled so the largest is 1
    exact = np.outer(pi / pi.sum(), np.ones(n))
    assert np.abs(spectral.projector.s_inf - exact).max() <= 1e-10


def test_nonnormal_record_computes_no_eigenvectors(monkeypatch):
    # eigenvalues, S_inf, the split Gramian and the truncation of a
    # non-self-adjoint generator all come from the record's one Schur form;
    # at this seed eig would return the double zero as a +-i eps pair
    rng = np.random.default_rng(4)
    v, lam, v_inv = nonnormal_semistable_factors(rng, 50, 2, 30.0)
    a = (v * lam) @ v_inv
    b = rng.normal(size=(50, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvector basis was computed")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    spectral = spectral_data(a)
    assert spectral.eigenvectors is None and spectral.verdict == SEMISTABLE
    assert np.abs(spectral.eigenvalues - lam).max() <= 1e-12
    exact = v[:, :2] @ v_inv[:2]
    assert opnorm(spectral.projector.s_inf - exact) <= 1e-10 * opnorm(exact)
    gram = solve_semistability_lyapunov(spectral, lyapunov_rhs(spectral, b))
    assert gram.method == "lyapunov_split"
    red = mode_truncation(StateSpaceSystem(a, b), spectral, 12)
    exact = v[:, :12] @ v_inv[:12]
    assert opnorm(red.sigma @ red.pi - exact) <= 1e-10 * opnorm(exact)


@pytest.mark.parametrize("seed, n, kernel_dim", [
    (1, 50, 1), (2, 100, 2), (3, 200, 3), (4, 50, 2), (3, 6, 1), (5, 30, 0),
])
@pytest.mark.parametrize("rotate", [False, True])
def test_split_is_the_sorted_schur_form(seed, n, kernel_dim, rotate):
    # ?trsen on the record's unsorted Schur form gives the Schur form that
    # LAPACK sorts itself (?gees with a selection callback), bit for bit;
    # a diagonal unitary similarity makes the generator complex
    rng = np.random.default_rng(seed)
    a = random_nonnormal_semistable(rng, n, kernel_dim, 30.0)
    if rotate:
        d = np.exp(2j * np.pi * rng.uniform(size=n))
        a = d[:, None] * a / d[None, :]
    spectral = spectral_data(a)
    tol = spectral.zero_tol
    if rotate:
        expected = scipy.linalg.schur(a, output="complex", sort=lambda lam: lam.real > -tol)
    else:
        expected = scipy.linalg.schur(a, output="real", sort=lambda re, im: re > -tol)
    t, z, r = spectral.split
    assert r.shape[0] == expected[2] == kernel_dim
    assert np.array_equal(t, expected[0]) and np.array_equal(z, expected[1])


@pytest.mark.parametrize("name", sorted(transient_cases()))
def test_decay_bound_dominates_the_transient(name):
    # K is proven at rate mu / 2 from one ?trsyl solve and, non-normal as
    # these generators are, far above the grid sup (84.5 against 30.8 for
    # the 50-coupling, 1.85e4 against 57.2 for the n = 200 chain)
    record = spectral_data(transient_cases()[name][0])
    bound = record.decay_bound
    assert bound.rate == record.mu / 2
    assert bound.constant >= grid_sup(record, bound.rate)
