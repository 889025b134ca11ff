import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import roots_legendre

from semigram import (
    DimensionError,
    QuadratureError,
    integrate_operator_valued,
    linalg,
    propagator,
)
from semigram.linalg import (
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    _TAYLOR_THETA,
    _taylor_degree,
    _taylor_kernel,
    as_operator,
    default_rank_tol,
    opnorm,
)

from conftest import counting_kernel, transient_cases


def test_exponential_of_zero_is_identity():
    assert np.array_equal(propagator(np.zeros((4, 4)), np.eye(4))(5.0), np.eye(4))


def test_exponential_diagonal_modal_decay():
    a = np.diag([0.0, -np.pi**2])
    out = propagator(a, np.eye(2))(1.0)
    assert np.allclose(out, np.diag([1.0, np.exp(-np.pi**2)]), rtol=0, atol=1e-15)


def test_exponential_nilpotent_closed_form():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = propagator(a, np.eye(2))(2.0)
    assert np.allclose(out, [[1.0, 2.0], [0.0, 1.0]], rtol=0, atol=1e-14)


def test_exponential_rejects_nonsquare_and_bad_time():
    with pytest.raises(TypeError):
        propagator(np.eye(2))  # b is required
    with pytest.raises(DimensionError):
        propagator(np.zeros((2, 3)), np.eye(2))
    with pytest.raises(ValueError):
        propagator(np.zeros((2, 2)), np.eye(2))(-1.0)
    with pytest.raises(ValueError):
        propagator(np.zeros((2, 2)), np.eye(2))(np.inf)


def test_exponential_semigroup_law():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rng.normal(size=(10, 10))
        a = a - (np.abs(np.linalg.eigvals(a).real).max() + 1.0) * np.eye(10)
        s, t = rng.uniform(0.0, 2.0, size=2)
        eye = np.eye(10)
        combined = propagator(a, eye)(s + t)
        split = propagator(a, eye)(s) @ propagator(a, eye)(t)
        assert opnorm(combined - split) <= 1e-9 * opnorm(combined)


def test_as_operator_validation():
    with pytest.raises(DimensionError):
        as_operator(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        as_operator(np.zeros((2, 3)), square=True)


def test_default_rank_tol_scaling():
    assert default_rank_tol((4, 3), 2.0) == 4 * np.finfo(float).eps * 2.0
    assert default_rank_tol((4, 3), 0.0) == 0.0


def test_quadrature_scalar_exponential():
    out = integrate_operator_valued(
        lambda t: np.exp(-t) * np.eye(2), 1.0, 1e-10,
        bound_constant=1.0, fast_rate=1.0,
    )
    assert np.abs(out - np.eye(2)).max() <= 1e-10


def test_quadrature_heat_modal_term():
    rate = 2 * np.pi**2
    out = integrate_operator_valued(
        lambda t: np.array([[np.exp(-rate * t)]]), rate, 1e-12,
        bound_constant=1.0, fast_rate=rate,
    )
    assert abs(out[0, 0] - 1.0 / rate) <= 1e-12


def test_quadrature_stiff_start():
    # decays 1e4 times faster than certified: a single panel [0, T] puts
    # its first node where the integrand is already e^-1400 and loses it all
    out = integrate_operator_valued(
        lambda t: np.array([[np.exp(-1e4 * t)]]), 1.0, 1e-12,
        bound_constant=1.0, fast_rate=1e4,
    )
    assert abs(out[0, 0] - 1e-4) <= 1e-12


def test_quadrature_zero_integrand():
    out = integrate_operator_valued(
        lambda t: np.zeros((3, 2)), 1.0, 1e-10, bound_constant=1.0, fast_rate=1.0
    )
    assert np.array_equal(out, np.zeros((3, 2)))


def test_quadrature_matches_matrix_closed_form():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3))
    for rate in (0.5, 2.0):
        out = integrate_operator_valued(
            lambda t: np.exp(-rate * t) * m, rate, 1e-11,
            bound_constant=np.abs(m).max(), fast_rate=rate,
        )
        assert np.abs(out - m / rate).max() <= 1e-11


def test_quadrature_deterministic():
    def f(t):
        return np.array([[np.exp(-t) * np.cos(3 * t)]])

    a = integrate_operator_valued(f, 1.0, 1e-11, bound_constant=1.0, fast_rate=4.0)
    b = integrate_operator_valued(f, 1.0, 1e-11, bound_constant=1.0, fast_rate=4.0)
    assert np.array_equal(a, b)
    assert abs(a[0, 0] - 0.1) <= 1e-11  # Re 1 / (1 - 3i)


def test_quadrature_budget_exhaustion_carries_estimate(monkeypatch):
    # violently oscillatory integrand with a tiny panel budget
    def f(t):
        return np.array([[np.cos(200.0 * t * t) ** 2 * np.exp(-t)]])

    monkeypatch.setattr(linalg, "_MAX_PANELS", 4)
    with pytest.raises(QuadratureError) as excinfo:
        integrate_operator_valued(f, 1.0, 1e-13, bound_constant=1.0, fast_rate=1.0)
    err = excinfo.value
    assert err.estimate is not None
    assert err.achieved_tol is not None and err.achieved_tol > 1e-13


def test_quadrature_unreachable_tolerance_fails_without_refinement():
    calls = []

    def f(t):
        calls.append(t)
        return np.eye(1) * np.exp(-t)

    with pytest.raises(QuadratureError, match="rounding floor") as excinfo:
        integrate_operator_valued(f, 1.0, 1e-300, bound_constant=1.0, fast_rate=1.0)
    # T = ln 2e300 = 691.5 halves 10 times to 0.675 < 1: 11 start panels,
    # each evaluated once and none split
    assert len(calls) == 11 * 15
    assert abs(excinfo.value.estimate[0, 0] - 1.0) <= 1e-10
    assert excinfo.value.achieved_tol > 1e-300


def test_quadrature_large_certificate_small_integral():
    # the floor follows the integral (1), not the certificate K / rate (1e6)
    out = integrate_operator_valued(
        lambda t: np.array([[np.exp(-t)]]), 1.0, 1e-9,
        bound_constant=1e6, fast_rate=1.0,
    )
    assert abs(out[0, 0] - 1.0) <= 1e-9


def test_quadrature_rejects_bad_arguments():
    f = lambda t: np.eye(1)
    with pytest.raises(ValueError):
        integrate_operator_valued(f, -1.0, 1e-9, bound_constant=1.0, fast_rate=1.0)
    for abs_tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            integrate_operator_valued(f, 1.0, abs_tol, bound_constant=1.0,
                                      fast_rate=1.0)
    with pytest.raises(ValueError):
        integrate_operator_valued(f, 1.0, 1e-9, bound_constant=0.0, fast_rate=1.0)
    with pytest.raises(ValueError):
        integrate_operator_valued(f, 1.0, 1e-9, bound_constant=1.0, fast_rate=np.inf)


def test_kronrod_rule_nests_gauss_and_is_exact_to_degree_22():
    nodes = np.array(_KRONROD_NODES)
    gauss = np.array(_GAUSS_WEIGHTS)
    g_nodes, g_weights = roots_legendre(7)
    assert np.allclose(nodes[gauss != 0], g_nodes, rtol=0, atol=1e-15)
    assert np.allclose(gauss[gauss != 0], g_weights, rtol=0, atol=1e-15)
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(_KRONROD_WEIGHTS, nodes**k) - exact) <= 1e-15


def test_propagator_validates_once_and_matches_exponential():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(3, 2))
    for a in (np.diag([0.0, -1.0, -4.0]), rng.normal(size=(3, 3))):
        response = propagator(a, b)
        for t in (0.0, 0.3, 2.0):
            expected = expm(a * t) @ b
            assert np.allclose(response(t), expected, rtol=1e-13, atol=1e-14)
    with pytest.raises(DimensionError):
        propagator(np.eye(3), np.ones((2, 1)))
    with pytest.raises(ValueError):
        propagator(np.eye(3), b)(-1.0)


def kernel_error(a, t):
    """Largest entry of the kernel's exp(a t) minus scipy's, relative to
    the largest entry of scipy's."""
    reference = expm(a * t)
    return np.abs(_taylor_kernel(a)(t) - reference).max() / np.abs(reference).max()


@pytest.mark.parametrize("scale", [1.0, 1e-30])
@pytest.mark.parametrize("x, squarings", [(0.4, 0), (0.8, 1), (20.0, 6), (300.0, 10)])
def test_taylor_kernel_matches_scipy_at_each_scaling(x, squarings, scale):
    # t is chosen so that beta t = x, with beta = sqrt(|A|_1 |A|_inf) as
    # the kernel takes it; measured errors 2e-16 to 6e-14. At scale
    # 1e-30, (t / 2^s)^14 overflows while A^14 underflows, unless both are
    # normalised
    a = scale * np.random.default_rng(11).normal(size=(8, 8))
    beta = math.sqrt(np.abs(a).sum(axis=0).max() * np.abs(a).sum(axis=1).max())
    assert math.ceil(math.log2(max(x / _TAYLOR_THETA, 1.0))) == squarings
    assert kernel_error(a, x / beta) <= 1e-13


@pytest.mark.parametrize("name", ["jordan", "coupling50"])
def test_taylor_kernel_matches_scipy_on_transient_cases(name):
    # measured at most 2e-14 (coupling50 at t = 4)
    a, _ = transient_cases()[name]
    for t in (0.01, 0.3, 1.0, 4.0, 20.0, 100.0):
        assert kernel_error(a, t) <= 1e-13, t


def test_taylor_kernel_matches_scipy_on_a_complex_generator():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) - 2.0 * np.eye(6)
    assert _taylor_kernel(a)(0.7).dtype == np.complex128
    for t in (0.05, 0.7, 3.0):
        assert kernel_error(a, t) <= 1e-13, t


def test_taylor_kernel_of_zero_matrix_and_at_time_zero():
    assert np.array_equal(_taylor_kernel(np.zeros((3, 3)))(7.0), np.eye(3))
    a = np.random.default_rng(2).normal(size=(5, 5))
    assert np.array_equal(_taylor_kernel(a)(0.0), np.eye(5))


def test_taylor_degree_is_the_least_that_meets_the_bound():
    def bound(x, m):
        return x ** (m + 1) * math.exp(2.0 * x) / math.factorial(m + 1)

    assert _taylor_degree(0.0) == 0
    assert _taylor_degree(_TAYLOR_THETA) == 14
    for x in np.linspace(0.0, _TAYLOR_THETA, 201)[1:]:
        m = _taylor_degree(x)
        assert bound(x, m) <= 0.5 * np.finfo(float).eps, x
        assert m == 0 or bound(x, m - 1) > 0.5 * np.finfo(float).eps, x


def test_propagator_squares_a_remembered_half_time_into_a_fresh_array(monkeypatch):
    a = np.random.default_rng(5).normal(size=(4, 4))
    kernels = counting_kernel(monkeypatch)
    at = propagator(a, np.eye(4))
    first = at(0.35)
    first[:] = np.nan
    doubled = at(0.7)
    # exp(0.7 A) is the square of the remembered exp(0.35 A), which the
    # caller's write did not reach
    assert kernels == [[0.35]]
    assert np.allclose(doubled, expm(0.7 * a), rtol=1e-13, atol=1e-14)
    doubled[:] = np.nan
    assert np.allclose(at(1.4), expm(1.4 * a), rtol=1e-13, atol=1e-14)
    assert kernels == [[0.35]]


def test_propagator_remembers_one_kronrod_panel(monkeypatch):
    a = np.array([[0.0, 1.0], [0.0, -1.0]])
    kernels = counting_kernel(monkeypatch)
    at = propagator(a, np.eye(2)[:, :1])
    # 16 times, none twice another: the oldest is evicted
    times = 1.0 + np.arange(len(_KRONROD_NODES) + 1) / 64.0
    for t in times:
        at(t)
    assert kernels == [list(times)]
    at(2.0 * times[-1])
    assert kernels == [list(times)]
    at(2.0 * times[0])
    assert kernels == [list(times) + [2.0 * times[0]]]


def test_start_mesh_panels_are_exact_doublings():
    # the propagator's memo hits only if every node of the start-mesh panel
    # [T/2^(j+1), T/2^j] is bitwise twice the matching node of the finer
    # panel [T/2^(j+2), T/2^(j+1)], which is evaluated just before it
    times = []

    def f(t):
        times.append(t)
        return np.array([[np.exp(-t)]])

    integrate_operator_valued(f, 1.0, 1e-7, bound_constant=3.0, fast_rate=50.0)
    panels = np.array(times).reshape(-1, len(_KRONROD_NODES))
    # ascending panels: no refinement, every panel is on the start mesh
    assert np.all(panels[:-1, -1] < panels[1:, 0])
    assert len(panels) >= 8
    # panel 0 is [0, T/2^J], the one panel that doubles none
    assert np.array_equal(panels[2:], 2.0 * panels[1:-1])
