import numpy as np
import pytest
import scipy.linalg
from scipy.special import polygamma

from semigram import (
    analytic_truncation_error,
    benchmark_csv,
    benchmark_text,
    build_heat_surrogate,
    propagator,
    run_benchmark,
)
from semigram.heatbench import CSV_HEADER, _trigamma


def test_surrogate_small_diagonals():
    s2 = build_heat_surrogate(2)
    assert np.array_equal(s2.a, np.diag([0.0, -np.pi**2]))
    s3 = build_heat_surrogate(3)
    assert np.array_equal(s3.a, np.diag([0.0, -np.pi**2, -4 * np.pi**2]))
    assert np.array_equal(s3.b, np.eye(3))
    assert np.array_equal(s3.c, np.eye(3))
    assert s3.modes == 3


def test_surrogate_rates_exact():
    s = build_heat_surrogate(12)
    rates = np.diag(s.a)
    expected = -np.arange(12) ** 2 * np.pi**2
    assert np.array_equal(rates, expected.astype(float))


def test_surrogate_tail_bound():
    s = build_heat_surrogate(50)
    # closed form: sum over n >= 50 of 1/(2 pi^2 n^2)
    expected = polygamma(1, 50) / (2 * np.pi**2)
    assert s.tail_bound == pytest.approx(expected, rel=1e-12)
    assert s.tail_bound <= 1.0 / (2 * np.pi**2 * 49)


def test_trigamma_matches_scipy():
    x = np.concatenate([np.arange(1, 101), np.logspace(-2, 8, 201)])
    ours = np.array([_trigamma(v) for v in x])
    reference = polygamma(1, x)
    assert np.all(np.abs(ours - reference) <= 4 * np.finfo(float).eps * reference)


def test_trigamma_recurrence():
    # psi_1(x) - psi_1(x + 1) = 1/x^2, to the rounding of psi_1(x), also
    # where one side takes the asymptotic series and the other does not
    for x in np.concatenate([np.logspace(-2, 8, 201), [18.5, 19.0, 19.5, 20.0]]):
        defect = _trigamma(x) - _trigamma(x + 1) - 1.0 / x**2
        assert abs(defect) <= 4 * np.finfo(float).eps * _trigamma(x), x


def test_surrogate_validation():
    with pytest.raises(ValueError):
        build_heat_surrogate(1)
    with pytest.raises(ValueError):
        build_heat_surrogate(0)
    with pytest.raises(ValueError):
        build_heat_surrogate(2.5)
    with pytest.raises(ValueError):
        build_heat_surrogate(True)


def test_analytic_truncation_small_case():
    result = analytic_truncation_error(1, 3)
    assert result.derived_trace == pytest.approx(1.0 / (8 * np.pi**2), abs=1e-15)


def test_analytic_truncation_keep_everything():
    result = analytic_truncation_error(2, 3)
    assert result.derived_trace == 0.0


def test_published_constant_value():
    result = analytic_truncation_error(1, 3)
    expected = 1.0 / 6.0 - 1.0 / np.pi**2
    assert result.published_constant == pytest.approx(expected, rel=1e-12)
    assert result.published_constant == pytest.approx(
        polygamma(1, 2) / np.pi**2, rel=1e-12
    )


def test_published_constant_is_twice_full_derived_sum():
    # the derived per-mode terms are 1/(2 pi^2 n^2); the circulating closed
    # form sums 1/(pi^2 n^2), exactly twice each term
    n = 10
    full = analytic_truncation_error(n, 4000)
    assert full.published_constant == pytest.approx(
        2 * polygamma(1, n + 1) / (2 * np.pi**2), rel=1e-12
    )
    assert full.derived_trace <= full.published_constant


def test_analytic_converges_in_modes():
    # successive refinements add exactly the newly resolved mode
    n = 3
    for m in (6, 9, 14):
        coarse = analytic_truncation_error(n, m).derived_trace
        finer = analytic_truncation_error(n, m + 1).derived_trace
        added = finer - coarse
        assert added == pytest.approx(1.0 / (2 * np.pi**2 * m**2), abs=1e-10)


def test_analytic_monotone_in_kept_modes():
    values = [analytic_truncation_error(n, 40).derived_trace for n in range(1, 10)]
    for smaller, larger in zip(values[1:], values[:-1]):
        assert smaller < larger


def test_analytic_validation():
    with pytest.raises(ValueError):
        analytic_truncation_error(0, 5)
    with pytest.raises(ValueError):
        analytic_truncation_error(5, 5)
    with pytest.raises(ValueError):
        analytic_truncation_error(6, 5)
    with pytest.raises(ValueError):
        analytic_truncation_error(True, 5)


def test_squared_transfer_trace_identity():
    # trace of exp(A t) exp(A t)^T equals 1 + sum exp(-2 n^2 pi^2 t)
    s = build_heat_surrogate(6)
    for t in (0.01, 0.05, 0.2):
        e = propagator(s.a, np.eye(6))(t)
        lhs = np.trace(e @ e.T)
        rhs = 1.0 + sum(
            np.exp(-2.0 * n**2 * np.pi**2 * t) for n in range(1, 6)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_run_benchmark_small_exact():
    report = run_benchmark(1, 3, abs_tol=1e-11)
    expected = 1.0 / (8 * np.pi**2)
    assert report.trace_analytic == pytest.approx(expected, abs=1e-15)
    assert report.trace_gramian == pytest.approx(expected, abs=1e-8)
    assert report.trace_quadrature == pytest.approx(expected, abs=1e-8)
    assert report.max_pairwise_deviation <= 1e-8
    assert report.n_kept == 1 and report.modes == 3
    assert report.h2_norm == pytest.approx(np.sqrt(expected), abs=1e-8)


def test_run_benchmark_stiff_dropped_modes():
    # the slowest dropped mode decays at 2 pi^2 21^2 ~ 8.7e3, far faster
    # than the certified rate 2 pi^2: the quadrature must still see it
    report = run_benchmark(20, 60)
    assert report.trace_analytic > 1e-3
    assert report.trace_quadrature == pytest.approx(report.trace_analytic, abs=1e-8)


def test_run_benchmark_validation():
    with pytest.raises(ValueError):
        run_benchmark(5, 5)
    with pytest.raises(ValueError):
        run_benchmark(0, 5)
    with pytest.raises(ValueError):
        run_benchmark(1, 3, abs_tol=0.0)


def test_csv_output_format():
    report = run_benchmark(1, 3, abs_tol=1e-10)
    text = benchmark_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert int(fields[0]) == 1
    assert float(fields[1]) == pytest.approx(report.trace_gramian, rel=1e-10)
    assert float(fields[4]) == pytest.approx(report.published_constant, rel=1e-10)


def test_text_output_deterministic():
    r1 = run_benchmark(2, 5, abs_tol=1e-10)
    r2 = run_benchmark(2, 5, abs_tol=1e-10)
    assert benchmark_text(r1) == benchmark_text(r2)
    body = benchmark_text(r1)
    assert "published_constant" in body
    assert "reported, not" in body and "asserted" in body


def test_run_benchmark_takes_no_full_svd_and_no_schur_solve(monkeypatch):
    # the record's eigh gives the spectral norm of A and its kernel, the
    # Gramian is solved in the eigenbasis, and every certificate reads a
    # Frobenius norm, an eigenvalue or a proven lower bound: no n x n SVD
    m = 60
    counts = {"svd": 0, "lyapunov": 0}
    svd, norm = np.linalg.svd, np.linalg.norm
    lyapunov = scipy.linalg.solve_continuous_lyapunov

    def counting_svd(x, *args, **kwargs):
        counts["svd"] += np.shape(x) == (m, m)
        return svd(x, *args, **kwargs)

    def counting_norm(x, *args, **kwargs):
        ord_ = args[0] if args else kwargs.get("ord")
        counts["svd"] += ord_ in (2, -2, "nuc") and np.shape(x) == (m, m)
        return norm(x, *args, **kwargs)

    def counting_lyapunov(*args, **kwargs):
        counts["lyapunov"] += 1
        return lyapunov(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: pytest.fail("cond"))
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", counting_lyapunov)
    report = run_benchmark(10, m)
    assert counts == {"svd": 0, "lyapunov": 0}
    assert report.max_pairwise_deviation <= 1e-9


def test_run_benchmark_at_cli_scale():
    report = run_benchmark(10, 1000)
    modal = analytic_truncation_error(10, 1000).derived_trace
    assert abs(report.trace_gramian - modal) <= 1e-9
    assert abs(report.trace_quadrature - modal) <= 1e-9
