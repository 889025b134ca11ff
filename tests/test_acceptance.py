"""End-to-end acceptance suite.

Each test checks one release criterion and prints a single PASS/FAIL line so
the gate can be read off the test log directly.
"""

import numpy as np
import pytest

from semigram import (
    NOT_SEMISTABLE,
    SEMISTABLE,
    STABLE,
    StateSpaceSystem,
    check_preservation,
    gramian_by_quadrature,
    h2_error_gramian,
    is_controllable,
    mode_truncation,
    run_benchmark,
    solve_semistability_lyapunov,
    spectral_data,
)
from semigram import gramian
from semigram.linalg import opnorm

from conftest import (
    decay_defects,
    intertwining_defect,
    random_controllable_pair,
    random_selfadjoint_semistable,
    sync_defects,
)


def announce(capsys, number, label, ok):
    with capsys.disabled():
        print("[acceptance] criterion %d (%s): %s" % (
            number, label, "PASS" if ok else "FAIL"
        ))


def gramian_suite_systems(count, max_n, seed):
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        kernel = int(rng.integers(1, 4))
        kernel = min(kernel, n - 1) if n > 1 else 1
        a = random_selfadjoint_semistable(rng, n, kernel)
        b = rng.normal(size=(n, int(rng.integers(1, 4))))
        systems.append((a, b))
    return systems


def test_criterion_1_benchmark_route_agreement(capsys):
    report = run_benchmark(10, 200, abs_tol=1e-9)
    ok = report.max_pairwise_deviation <= 1e-6
    announce(capsys, 1, "benchmark route agreement, M=200", ok)
    assert ok


def test_criterion_2_single_mode_closed_form(capsys):
    report = run_benchmark(1, 3, abs_tol=1e-10)
    expected = 1.0 / (8 * np.pi**2)
    ok = (
        abs(report.trace_gramian - expected) <= 1e-8
        and abs(report.trace_quadrature - expected) <= 1e-8
        and abs(report.trace_analytic - expected) <= 1e-8
    )
    announce(capsys, 2, "single-mode closed form", ok)
    assert ok


def test_criterion_3_lyapunov_residual_suite(capsys):
    ok = True
    for a, b in gramian_suite_systems(100, 30, seed=101):
        sys = StateSpaceSystem(a, b)
        q = gramian._lyapunov_rhs(sys)
        p = solve_semistability_lyapunov(sys).p_inf
        scale = opnorm(a) * opnorm(p) + opnorm(q)
        residual = opnorm(a @ p + p @ a.conj().T + q)
        constraint = opnorm(sys.spectral.projector.s_inf @ p)
        if residual > 1e-8 * scale or constraint > 1e-8 * opnorm(p):
            ok = False
            break
    announce(capsys, 3, "Lyapunov residual suite, 100 systems", ok)
    assert ok


def test_criterion_4_cross_method_agreement(capsys):
    ok = True
    worst = 0.0
    for a, b in gramian_suite_systems(100, 30, seed=101):
        sys = StateSpaceSystem(a, b)
        split = solve_semistability_lyapunov(sys)
        quad = gramian_by_quadrature(sys, 1e-9)
        dev = opnorm(split.p_inf - quad.p_inf)
        worst = max(worst, dev)
        if dev > 1e-6:
            ok = False
            break
    announce(capsys, 4, "cross-method agreement, worst %.2e" % worst, ok)
    assert ok


def test_criterion_5_constrained_uniqueness(capsys):
    ok = True
    for a, b in gramian_suite_systems(50, 20, seed=211):
        sys = StateSpaceSystem(a, b)
        q = gramian._lyapunov_rhs(sys)
        gram = solve_semistability_lyapunov(sys)
        s = sys.spectral.projector.s_inf
        norm_p = opnorm(gram.p_inf)
        for kappa in (0.1, 1.0, 10.0):
            shifted = gram.p_inf + kappa * (s @ s.conj().T)
            scale = opnorm(a) * opnorm(shifted) + opnorm(q)
            residual = opnorm(a @ shifted + shifted @ a.conj().T + q)
            recovered = shifted - s @ shifted
            if residual > 1e-8 * scale:
                ok = False
            if opnorm(recovered - gram.p_inf) > 1e-8 * max(1.0, norm_p):
                ok = False
        if not ok:
            break
    announce(capsys, 5, "kernel-shift uniqueness, 50 systems", ok)
    assert ok


def test_criterion_6_classification_and_decay(capsys):
    verdicts = (
        spectral_data(np.diag([-1.0, -2.0])).verdict,
        spectral_data(np.diag([0.0, -1.0])).verdict,
        spectral_data(np.array([[0.0, 1.0], [0.0, 0.0]])).verdict,
    )
    ok = verdicts == (STABLE, SEMISTABLE, NOT_SEMISTABLE)

    for a in (
        np.diag([0.0, -1.0]),
        -np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]),
    ):
        spectral = spectral_data(a)
        start, late = decay_defects(spectral, [0.0, 10.0 / spectral.mu])
        if late > 1e-3 * start:
            ok = False
    announce(capsys, 6, "classification fixtures and decay", ok)
    assert ok


def test_criterion_7_invariance_preservation_suite(capsys):
    rng = np.random.default_rng(307)
    ok = True
    for _ in range(50):
        n = int(rng.integers(3, 13))
        kernel = int(rng.integers(1, 3))
        a, b = random_controllable_pair(rng, n, kernel)
        k = int(rng.integers(kernel, n + 1))
        red = mode_truncation(StateSpaceSystem(a, b=b), k)
        if red.commutativity_defect > 1e-8:
            ok = False
        if intertwining_defect(red, [0.0, 0.5, 1.0, 2.0]) > 1e-7:
            ok = False
        preservation = check_preservation(red)
        if preservation.reduced_verdict not in (STABLE, SEMISTABLE):
            ok = False
        if not is_controllable(spectral_data(red.a_hat), red.b_hat):
            ok = False
        if not ok:
            break
    announce(capsys, 7, "invariance and preservation, 50 systems", ok)
    assert ok


def test_criterion_8_trajectory_synchronization(capsys):
    red = mode_truncation(StateSpaceSystem(np.diag([0.0, -1.0, -4.0])), 2)
    times = [0.0, 1.0, 2.0, 3.0]
    defects = sync_defects(red, np.ones(3), times)
    ok = all(
        abs(d - np.exp(-4.0 * t)) <= 1e-9 for t, d in zip(times, defects)
    )
    announce(capsys, 8, "trajectory synchronization oracle", ok)
    assert ok


def test_criterion_9_h2_property_suite(capsys):
    ok = True
    rng = np.random.default_rng(401)

    # keep-all reductions have vanishing error
    for _ in range(5):
        n = int(rng.integers(2, 9))
        a = random_selfadjoint_semistable(rng, n, 1)
        b = rng.normal(size=(n, 2))
        sys = StateSpaceSystem(a, b=b)
        p_inf = gramian_by_quadrature(sys, 1e-11)
        red = mode_truncation(sys, n)
        if h2_error_gramian(red, p_inf).trace_value > 1e-10:
            ok = False

    # nested truncations give monotone errors
    a = random_selfadjoint_semistable(rng, 9, 1)
    b = rng.normal(size=(9, 2))
    sys = StateSpaceSystem(a, b=b)
    p_inf = gramian_by_quadrature(sys, 1e-11)
    traces = [
        h2_error_gramian(mode_truncation(sys, r), p_inf).trace_value
        for r in (1, 3, 5, 7, 9)
    ]
    for smaller, larger in zip(traces[1:], traces[:-1]):
        if smaller > larger + 1e-10:
            ok = False

    # unitary output transformations leave the trace invariant
    c = rng.normal(size=(3, 9))
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    t1, t2 = (
        h2_error_gramian(mode_truncation(s, 4),
                         gramian_by_quadrature(s, 1e-11)).trace_value
        for s in (StateSpaceSystem(a, b=b, c=c), StateSpaceSystem(a, b=b, c=u @ c))
    )
    if abs(t1 - t2) > 1e-10 * max(1.0, t1):
        ok = False

    announce(capsys, 9, "H2 property suite", ok)
    assert ok
