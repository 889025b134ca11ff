import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from semigram import h2error
from semigram import (
    PreconditionError,
    StateSpaceSystem,
    gramian_by_quadrature,
    h2_error_gramian,
    h2_error_quadrature,
    lyapunov_rhs,
    mode_truncation,
    solve_semistability_lyapunov,
    spectral_data,
)

from semigram.h2error import _defect_energy

from conftest import random_selfadjoint_semistable, transient_cases


def build(a, keep, b=None, c=None):
    a = np.asarray(a, dtype=float)
    sys = StateSpaceSystem(a, b, c)
    spectral = spectral_data(a)
    red = mode_truncation(sys, spectral, keep)
    p_inf = gramian_by_quadrature(spectral, sys.b, 1e-11)
    return sys, red, p_inf


def test_keep_all_error_vanishes():
    sys, red, p_inf = build(np.diag([0.0, -1.0, -2.0]), 3)
    result = h2_error_gramian(sys, red, p_inf)
    assert result.trace_value <= 1e-10
    assert result.h2_norm <= 1e-5


def test_heat_modes_closed_form():
    a = np.diag([0.0, -np.pi**2, -4 * np.pi**2])
    sys, red, p_inf = build(a, 2)
    expected = 1.0 / (8 * np.pi**2)
    by_gramian = h2_error_gramian(sys, red, p_inf)
    by_quadrature = h2_error_quadrature(sys, red, 1e-11)
    assert abs(by_gramian.trace_value - expected) <= 1e-8
    assert abs(by_quadrature.trace_value - expected) <= 1e-8
    assert by_gramian.h2_norm == pytest.approx(np.sqrt(expected), abs=1e-8)


def test_stable_scalar_keep_none():
    a = np.array([[-1.0]])
    sys, red, p_inf = build(a, 0)
    by_gramian = h2_error_gramian(sys, red, p_inf)
    by_quadrature = h2_error_quadrature(sys, red, 1e-11)
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
        spectral = spectral_data(a)
        r = int(rng.integers(1, n + 1))
        red = mode_truncation(sys, spectral, r)
        p_inf = gramian_by_quadrature(spectral, b, abs_tol)
        g = h2_error_gramian(sys, red, p_inf)
        q = h2_error_quadrature(sys, red, abs_tol)
        assert abs(g.trace_value - q.trace_value) <= 10 * abs_tol


def test_quadrature_reaches_tolerance_below_certificate_scale():
    # strongly non-normal: the tail constant min(p, m) |R|^2 K^2 |B|^2 is
    # about 8e9, so 64 eps times it over the rate is 1e-4, but the error is
    # 1.55e5 and 1e-6 is within reach of float64
    a = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 50.0], [0.0, 0.0, -1.2]])
    b = np.ones((3, 2))
    sys = StateSpaceSystem(a, b=b, c=np.ones((3, 3)))
    spectral = spectral_data(a)
    red = mode_truncation(sys, spectral, 2)
    p_inf = solve_semistability_lyapunov(spectral, lyapunov_rhs(spectral, b))
    assert p_inf.method == "lyapunov_split"
    g = h2_error_gramian(sys, red, p_inf)
    q = h2_error_quadrature(sys, red, 1e-6)
    assert g.trace_value == pytest.approx(155002.5, abs=1e-6)
    assert abs(g.trace_value - q.trace_value) <= 1e-6


def test_nested_selections_monotone():
    rng = np.random.default_rng(43)
    a = random_selfadjoint_semistable(rng, 8, 1)
    b = rng.normal(size=(8, 2))
    sys = StateSpaceSystem(a, b=b)
    spectral = spectral_data(a)
    p_inf = gramian_by_quadrature(spectral, b, 1e-11)
    traces = []
    for r in (1, 3, 5, 8):
        red = mode_truncation(sys, spectral, r)
        traces.append(h2_error_gramian(sys, red, p_inf).trace_value)
    for smaller, larger in zip(traces[1:], traces[:-1]):
        assert smaller <= larger + 1e-10


def test_unobservable_dropped_modes_give_zero():
    a = np.diag([0.0, -1.0, -2.0])
    c = np.array([[1.0, 1.0, 0.0]])
    sys, red, p_inf = build(a, 2, c=c)
    # dropped mode is invisible to the output map
    result = h2_error_gramian(sys, red, p_inf)
    assert result.trace_value <= 1e-10


def test_unitary_output_invariance():
    rng = np.random.default_rng(47)
    a = random_selfadjoint_semistable(rng, 6, 1)
    b = rng.normal(size=(6, 2))
    c = rng.normal(size=(3, 6))
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    spectral = spectral_data(a)
    p_inf = gramian_by_quadrature(spectral, b, 1e-11)
    sys1 = StateSpaceSystem(a, b=b, c=c)
    sys2 = StateSpaceSystem(a, b=b, c=u @ c)
    red1 = mode_truncation(sys1, spectral, 3)
    red2 = mode_truncation(sys2, spectral, 3)
    t1 = h2_error_gramian(sys1, red1, p_inf).trace_value
    t2 = h2_error_gramian(sys2, red2, p_inf).trace_value
    assert abs(t1 - t2) <= 1e-10 * max(1.0, t1)


def test_negative_roundoff_clamped():
    sys, red, p_inf = build(np.diag([0.0, -1.0]), 2)
    result = h2_error_gramian(sys, red, p_inf)
    assert result.trace_value >= 0.0
    assert result.h2_norm >= 0.0


def test_rejects_plain_matrix_gramian():
    sys, red, p_inf = build(np.diag([0.0, -1.0]), 2)
    with pytest.raises(TypeError):
        h2_error_gramian(sys, red, p_inf.p_inf)


def test_rejects_degraded_reduction():
    sys, red, p_inf = build(np.diag([0.0, -1.0, -2.0]), 2)
    bad = dataclasses.replace(red, kernel_identity_defect=1e-2)
    with pytest.raises(PreconditionError):
        h2_error_gramian(sys, bad, p_inf)
    with pytest.raises(PreconditionError):
        h2_error_quadrature(sys, bad, 1e-9)


def test_size_mismatch_rejected():
    sys_small, red_small, p_small = build(np.diag([0.0, -1.0]), 2)
    sys_big, red_big, p_big = build(np.diag([0.0, -1.0, -2.0]), 3)
    with pytest.raises(Exception):
        h2_error_gramian(sys_big, red_big, p_small)


def test_diagonal_defect_energy_matches_dense_formula(monkeypatch):
    # complex diagonal A with a 2-dimensional kernel; B (6 x 3) and C (4 x 6)
    # are neither square nor the identity. The quadratic form must not touch
    # the propagator
    rng = np.random.default_rng(8)
    lam = np.array([0.0, 0.0, -0.5 + 1.0j, -1.3 - 0.7j, -2.0 + 0.5j, -4.0 - 3.0j])
    a = np.diag(lam)
    b = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    c = rng.normal(size=(4, 6))
    sys = StateSpaceSystem(a, b, c)
    spectral = spectral_data(a)
    assert spectral.kernel_dim == 2
    red = mode_truncation(sys, spectral, 4)
    s_inf = spectral.projector.s_inf

    def no_propagator(*args, **kwargs):
        raise AssertionError("the diagonal integrand formed exp(A t)")

    monkeypatch.setattr(h2error, "propagator", no_propagator)
    # a generic R exercises the linear and constant terms, which cancel to
    # rounding of their size |R S_inf B|_F^2 as t grows; the reduction's
    # R = C (I - sigma pi), the one the oracle integrates, has R S_inf B = 0
    # here, so its nodes must agree to relative rounding
    for r in (c, c - (c @ red.sigma) @ red.pi):
        energy = _defect_energy(a, r, s_inf, b)
        cancelled = np.linalg.norm(r @ s_inf @ b) ** 2
        for t in (0.0, 0.01, 0.2, 1.0, 4.0, 30.0):
            d = r @ (expm(a * t) @ b - s_inf @ b)
            expected = np.vdot(d, d).real
            assert energy(t) == pytest.approx(expected, rel=1e-12, abs=1e-13 * cancelled)
    monkeypatch.undo()

    by_quadrature = h2_error_quadrature(sys, red, 1e-11)
    by_gramian = h2_error_gramian(
        sys, red, solve_semistability_lyapunov(spectral, lyapunov_rhs(spectral, b)))
    assert by_quadrature.trace_value == pytest.approx(by_gramian.trace_value, rel=1e-9)


@pytest.mark.parametrize("name", sorted(transient_cases()))
def test_oracles_agree_with_split_route_on_transient_cases(name):
    # the computations of `gramian --method quadrature` and `reduce --h2
    # both` at the default 1e-9, on generators whose transient a sampled
    # overshoot underestimated; both oracles truncate at the proven decay
    # bound. The kernel-only truncation leaves I - S_inf as residual map.
    abs_tol = 1e-9
    a, b = transient_cases()[name]
    sys = StateSpaceSystem(a, b=b)
    spectral = spectral_data(a)
    split = solve_semistability_lyapunov(spectral, lyapunov_rhs(spectral, b))
    quad = gramian_by_quadrature(spectral, b, abs_tol)
    assert np.abs(quad.p_inf - split.p_inf).max() <= abs_tol
    red = mode_truncation(sys, spectral, spectral.kernel_dim)
    g = h2_error_gramian(sys, red, split)
    q = h2_error_quadrature(sys, red, abs_tol)
    assert abs(g.trace_value - q.trace_value) <= abs_tol
