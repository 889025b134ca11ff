import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from semigram import h2error
from semigram import (
    InconsistencyError,
    PreconditionError,
    StateSpaceSystem,
    gramian_by_quadrature,
    h2_error_gramian,
    h2_error_quadrature,
    mode_truncation,
    solve_semistability_lyapunov,
)

from semigram.h2error import _defect_energy
from semigram.linalg import EPS

from conftest import (
    consensus_laplacian,
    nonnormal_semistable_factors,
    random_selfadjoint_semistable,
    transient_cases,
)


def build(a, keep, b=None, c=None):
    sys = StateSpaceSystem(a, b, c)
    return mode_truncation(sys, keep), gramian_by_quadrature(sys, 1e-11)


def test_keep_all_error_vanishes():
    red, p_inf = build(np.diag([0.0, -1.0, -2.0]), 3)
    result = h2_error_gramian(red, p_inf)
    assert result.trace_value <= 1e-10
    assert result.h2_norm <= 1e-5


def test_heat_modes_closed_form():
    a = np.diag([0.0, -np.pi**2, -4 * np.pi**2])
    red, p_inf = build(a, 2)
    expected = 1.0 / (8 * np.pi**2)
    by_gramian = h2_error_gramian(red, p_inf)
    by_quadrature = h2_error_quadrature(red, 1e-11)
    assert abs(by_gramian.trace_value - expected) <= 1e-8
    assert abs(by_quadrature.trace_value - expected) <= 1e-8
    assert by_gramian.h2_norm == pytest.approx(np.sqrt(expected), abs=1e-8)


def test_stable_scalar_keep_none():
    a = np.array([[-1.0]])
    red, p_inf = build(a, 0)
    by_gramian = h2_error_gramian(red, p_inf)
    by_quadrature = h2_error_quadrature(red, 1e-11)
    assert by_gramian.trace_value == pytest.approx(0.5, abs=1e-10)
    assert by_quadrature.trace_value == pytest.approx(0.5, abs=1e-10)


def test_methods_agree_random():
    rng = np.random.default_rng(37)
    abs_tol = 1e-9
    for _ in range(8):
        n = int(rng.integers(3, 9))
        a = random_selfadjoint_semistable(rng, n, 1)
        b = rng.normal(size=(n, 2))
        c = rng.normal(size=(2, n))
        sys = StateSpaceSystem(a, b=b, c=c)
        r = int(rng.integers(1, n + 1))
        red = mode_truncation(sys, r)
        p_inf = gramian_by_quadrature(sys, abs_tol)
        g = h2_error_gramian(red, p_inf)
        q = h2_error_quadrature(red, abs_tol)
        assert abs(g.trace_value - q.trace_value) <= 10 * abs_tol


def test_quadrature_reaches_tolerance_below_certificate_scale():
    # strongly non-normal: the tail constant min(p, m) |R|^2 K^2 |B|^2 is
    # about 8e9, so 64 eps times it over the rate is 1e-4, but the error is
    # 1.55e5 and 1e-6 is within reach of float64
    a = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 50.0], [0.0, 0.0, -1.2]])
    b = np.ones((3, 2))
    sys = StateSpaceSystem(a, b=b, c=np.ones((3, 3)))
    red = mode_truncation(sys, 2)
    p_inf = solve_semistability_lyapunov(sys)
    assert p_inf.method == "lyapunov_split"
    g = h2_error_gramian(red, p_inf)
    q = h2_error_quadrature(red, 1e-6)
    assert g.trace_value == pytest.approx(155002.5, abs=1e-6)
    assert abs(g.trace_value - q.trace_value) <= 1e-6


def test_nested_selections_monotone():
    rng = np.random.default_rng(43)
    a = random_selfadjoint_semistable(rng, 8, 1)
    sys = StateSpaceSystem(a, b=rng.normal(size=(8, 2)))
    p_inf = gramian_by_quadrature(sys, 1e-11)
    traces = []
    for r in (1, 3, 5, 8):
        red = mode_truncation(sys, r)
        traces.append(h2_error_gramian(red, p_inf).trace_value)
    for smaller, larger in zip(traces[1:], traces[:-1]):
        assert smaller <= larger + 1e-10


def test_unobservable_dropped_modes_give_zero():
    a = np.diag([0.0, -1.0, -2.0])
    c = np.array([[1.0, 1.0, 0.0]])
    red, p_inf = build(a, 2, c=c)
    # dropped mode is invisible to the output map
    result = h2_error_gramian(red, p_inf)
    assert result.trace_value <= 1e-10


def test_unitary_output_invariance():
    rng = np.random.default_rng(47)
    a = random_selfadjoint_semistable(rng, 6, 1)
    b = rng.normal(size=(6, 2))
    c = rng.normal(size=(3, 6))
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    traces = []
    for c_out in (c, u @ c):
        sys = StateSpaceSystem(a, b=b, c=c_out)
        red = mode_truncation(sys, 3)
        gramian = gramian_by_quadrature(sys, 1e-11)
        traces.append(h2_error_gramian(red, gramian).trace_value)
    t1, t2 = traces
    assert abs(t1 - t2) <= 1e-10 * max(1.0, t1)


def test_negative_roundoff_clamped():
    red, p_inf = build(np.diag([0.0, -1.0]), 2)
    result = h2_error_gramian(red, p_inf)
    assert result.trace_value >= 0.0
    assert result.h2_norm >= 0.0


def scaled_system_missing_the_last_mode(seed, scale):
    # B is orthogonal to the left eigenvector of the fastest mode, so
    # dropping that mode alone leaves no error
    rng = np.random.default_rng(seed)
    v, lam, v_inv = nonnormal_semistable_factors(rng, 40, 1, 30)
    b = rng.normal(size=(40, 2))
    w = v_inv[39]
    b -= np.outer(w, w @ b) / (w @ w)
    return StateSpaceSystem((v * lam) @ v_inv, scale * b)


@pytest.mark.parametrize("scale", [1e4, 1e8])
def test_zero_error_is_not_refused_at_any_scale(scale):
    # rounding leaves a trace of either sign that grows like |B|^2, and
    # an absolute floor of -1e-10 would refuse 23 of these 40 runs
    for seed in range(20):
        sys = scaled_system_missing_the_last_mode(seed, scale)
        red = mode_truncation(sys, 39)
        gramian = solve_semistability_lyapunov(sys)
        g = sys.c - (sys.c @ red.sigma) @ red.pi
        rounding = 40 * EPS * np.linalg.norm(g) ** 2 * gramian.norm_p_inf
        assert 0.0 <= h2_error_gramian(red, gramian).trace_value <= rounding


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_negated_gramian_is_refused(scale):
    sys = scaled_system_missing_the_last_mode(0, scale)
    red = mode_truncation(sys, 38)  # drops an excited mode too
    gramian = solve_semistability_lyapunov(sys)
    assert h2_error_gramian(red, gramian).trace_value > 0.0
    negated = dataclasses.replace(gramian, p_inf=-gramian.p_inf)
    with pytest.raises(InconsistencyError, match="came out negative"):
        h2_error_gramian(red, negated)


def test_trace_far_below_rounding_is_refused():
    # P - d y y* for a row y of G moves the zero-error trace 1e3 times the
    # rounding scale n eps |G|_F^2 |P|_2 below zero
    sys = scaled_system_missing_the_last_mode(0, 1e8)
    red = mode_truncation(sys, 39)
    gramian = solve_semistability_lyapunov(sys)
    g = sys.c - (sys.c @ red.sigma) @ red.pi
    y = g[np.argmax(np.linalg.norm(g, axis=1))]
    shift = 1e3 * 40 * EPS * np.linalg.norm(g) ** 2 * gramian.norm_p_inf
    d = shift / np.linalg.norm(g @ y) ** 2
    dented = dataclasses.replace(gramian, p_inf=gramian.p_inf - d * np.outer(y, y))
    with pytest.raises(InconsistencyError, match="came out negative"):
        h2_error_gramian(red, dented)


def test_rejects_plain_matrix_gramian():
    red, p_inf = build(np.diag([0.0, -1.0]), 2)
    with pytest.raises(TypeError):
        h2_error_gramian(red, p_inf.p_inf)


def test_rejects_degraded_reduction():
    red, p_inf = build(np.diag([0.0, -1.0, -2.0]), 2)
    bad = dataclasses.replace(red, kernel_identity_defect=1e-2)
    with pytest.raises(PreconditionError):
        h2_error_gramian(bad, p_inf)
    with pytest.raises(PreconditionError):
        h2_error_quadrature(bad, 1e-9)


def test_size_mismatch_rejected():
    red_small, p_small = build(np.diag([0.0, -1.0]), 2)
    red_big, p_big = build(np.diag([0.0, -1.0, -2.0]), 3)
    with pytest.raises(PreconditionError):
        h2_error_gramian(red_big, p_small)


def test_gramian_of_another_system_is_refused():
    # the same A with another B: the foreign Gramian would give 0.35355
    # where the system's own Gramian and the oracle give 0.70711
    a = np.diag([0.0, -1.0, -4.0])
    sys = StateSpaceSystem(a, [[0.0], [0.0], [2.0]])
    red = mode_truncation(sys, 2)
    expected = np.sqrt(0.5)

    def quadrature(system):
        return gramian_by_quadrature(system, 1e-11)

    for route in (solve_semistability_lyapunov, quadrature):
        with pytest.raises(PreconditionError, match="not of the reduced system"):
            h2_error_gramian(red, route(StateSpaceSystem(a)))
        own = route(sys)
        assert own.system is sys
        assert h2_error_gramian(red, own).h2_norm == pytest.approx(expected, rel=1e-8)
    assert h2_error_quadrature(red, 1e-10).h2_norm == pytest.approx(expected, rel=1e-6)


def precomputed_form(energy):
    """The Q that the diagonal integrand ``energy`` holds: an n x n matrix,
    or the vector of its diagonal when Q is diagonal."""
    cells = dict(zip(energy.__code__.co_freevars,
                     (cell.cell_contents for cell in energy.__closure__)))
    return cells["quad"]


def test_diagonal_defect_energy_matches_dense_formula(monkeypatch):
    # complex diagonal A with a 2-dimensional kernel; C (4 x 6) is neither
    # square nor the identity. B is 6 x 3, which keeps the n x n quadratic
    # form, or square and diagonal (complex with one zero entry, or I),
    # which makes Q diagonal. No form may touch the propagator
    rng = np.random.default_rng(8)
    lam = np.array([0.0, 0.0, -0.5 + 1.0j, -1.3 - 0.7j, -2.0 + 0.5j, -4.0 - 3.0j])
    a = np.diag(lam)
    c = rng.normal(size=(4, 6))
    inputs = (
        (rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)), (6, 6)),
        (np.diag([1.0 - 0.5j, 2.0j, 0.7 + 0.2j, 0.0, -1.5, 0.3 - 1.1j]), (6,)),
        (np.eye(6), (6,)),
    )
    for b, form in inputs:
        sys = StateSpaceSystem(a, b, c)
        assert sys.spectral.kernel_dim == 2
        red = mode_truncation(sys, 4)
        s_inf = sys.spectral.projector.s_inf

        def no_propagator(*args, **kwargs):
            raise AssertionError("the diagonal integrand formed exp(A t)")

        monkeypatch.setattr(h2error, "propagator", no_propagator)
        # a generic R exercises the linear and constant terms, which cancel
        # to rounding of their size |R S_inf B|_F^2 as t grows; the
        # reduction's R = C (I - sigma pi), the one the oracle integrates,
        # has R S_inf B = 0 here, so its nodes must agree to relative
        # rounding
        for r in (c, c - (c @ red.sigma) @ red.pi):
            energy = _defect_energy(sys.spectral, r, b)
            assert precomputed_form(energy).shape == form
            cancelled = np.linalg.norm(r @ s_inf @ b) ** 2
            for t in (0.0, 0.01, 0.2, 1.0, 4.0, 30.0):
                d = r @ (expm(a * t) @ b - s_inf @ b)
                expected = np.vdot(d, d).real
                assert energy(t) == pytest.approx(
                    expected, rel=1e-12, abs=1e-13 * cancelled)
        by_quadrature = h2_error_quadrature(red, 1e-11)
        monkeypatch.undo()

        by_gramian = h2_error_gramian(red, solve_semistability_lyapunov(sys))
        assert by_quadrature.trace_value == pytest.approx(
            by_gramian.trace_value, rel=1e-9)


def dense_reduction():
    rng = np.random.default_rng(11)
    v, lam, v_inv = nonnormal_semistable_factors(rng, 40, 2, 1e3)
    sys = StateSpaceSystem((v * lam) @ v_inv, rng.normal(size=(40, 3)),
                           rng.normal(size=(5, 40)))
    return mode_truncation(sys, 12)


def consensus_reduction():
    rng = np.random.default_rng(12)
    sys = StateSpaceSystem(consensus_laplacian(rng, 30, 2))
    return mode_truncation(sys, 8)


@pytest.mark.parametrize("build_reduction", [dense_reduction, consensus_reduction],
                         ids=["dense", "consensus"])
def test_row_inner_product_trace_is_the_trace_of_the_product(build_reduction):
    # the p row inner products of G P with G, summed, are trace(G P G*)
    # within the rounding floor that both ways of forming it obey
    red = build_reduction()
    gramian = solve_semistability_lyapunov(red.system)
    g = h2error._error_map(red)
    p = gramian.p_inf
    reference = np.trace(g @ p @ g.conj().T).real
    assert reference > 0.0
    trace = h2_error_gramian(red, gramian).trace_value
    assert abs(trace - reference) <= h2error._trace_floor(g, p)


@pytest.mark.parametrize("name", sorted(transient_cases()))
def test_oracles_agree_with_split_route_on_transient_cases(name):
    # the computations of `gramian --method quadrature` and `reduce --h2
    # both` at the default 1e-9, on generators whose transient a sampled
    # overshoot underestimated; both oracles truncate at the proven decay
    # bound. The kernel-only truncation leaves I - S_inf as residual map.
    abs_tol = 1e-9
    a, b = transient_cases()[name]
    sys = StateSpaceSystem(a, b=b)
    split = solve_semistability_lyapunov(sys)
    quad = gramian_by_quadrature(sys, abs_tol)
    assert np.abs(quad.p_inf - split.p_inf).max() <= abs_tol
    red = mode_truncation(sys, sys.spectral.kernel_dim)
    g = h2_error_gramian(red, split)
    q = h2_error_quadrature(red, abs_tol)
    assert abs(g.trace_value - q.trace_value) <= abs_tol
