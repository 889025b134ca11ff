"""Dense numeric substrate: validated operators, the propagator, and
adaptive quadrature of operator-valued integrands.

All operators are plain numpy arrays (float64 or complex128) that have been
validated by :func:`as_operator`; every public function treats its inputs as
immutable and returns fresh arrays. The functions hold no state and are
safe to call from multiple threads; the map that :func:`propagator` returns
remembers its latest exponentials and its generator's powers, so one map
belongs to one thread.

:func:`propagator` validates a generator once and returns t -> exp(A t) B,
so quadrature integrands cost one product per node, and on the dyadic
start mesh one squaring in place of a matrix exponential. Every exp(A t)
it forms is the package's one matrix exponential, a truncated Taylor
series with scaling and squaring whose powers of A are built once per map
and whose truncation is proven below eps / 2 relative.

:func:`integrate_operator_valued` integrates a certified exponentially
decaying integrand over [0, inf):

- the truncation point comes from the caller's proven tail constant K and
  rate;
- each panel uses the nested Gauss-Kronrod 7/15 pair (15 evaluations, error
  estimate |K15 - G7|);
- the adaptive pass starts from a dyadic mesh T 2^-j that reaches down to
  the integrand's fastest time scale, which the caller passes as a rate, so
  a stiff start is never skipped; a tolerance below the float64 rounding
  floor of the sum (64 eps times the largest entry of the summed start-mesh
  panels) raises :class:`QuadratureError` before any refinement;
- panel values are summed in order of their left endpoints, so results are
  reproducible bit for bit.
"""

import heapq
import math

import numpy as np

from .errors import DimensionError, QuadratureError

__all__ = [
    "as_operator",
    "opnorm",
    "opnorm_lower_bound",
    "propagator",
    "integrate_operator_valued",
]

#: machine epsilon of the working precision (float64 / complex128)
EPS = float(np.finfo(np.float64).eps)


def as_operator(a, name="operator", square=False):
    """Validate and normalise a matrix argument.

    Accepts anything array-like and returns a 2-D float64 or complex128
    array. Scalars become 1x1 matrices. Non-finite entries are rejected:
    NaN or Inf anywhere in an operator is always a caller bug, never a
    representable value.

    Parameters
    ----------
    a : array_like
        Matrix data. 0-d and 2-d inputs are accepted; 1-d input is rejected
        because its orientation (row or column) would be ambiguous.
    name : str
        Name used in error messages.
    square : bool
        Require a square matrix.

    Returns
    -------
    ndarray
        2-D array of dtype float64 or complex128.
    """
    m = np.asarray(a)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise DimensionError(
            "%s must be 2-dimensional, got ndim=%d (pass explicit row/column "
            "shape for vectors)" % (name, m.ndim)
        )
    if np.iscomplexobj(m):
        m = m.astype(np.complex128, copy=True)
    else:
        try:
            m = m.astype(np.float64, copy=True)
        except (TypeError, ValueError) as exc:
            raise DimensionError("%s has non-numeric entries" % name) from exc
    if m.size and not np.all(np.isfinite(m)):
        raise DimensionError("%s contains NaN or Inf entries" % name)
    if square and m.shape[0] != m.shape[1]:
        raise DimensionError(
            "%s must be square, got shape %s" % (name, (m.shape,))
        )
    return m


def opnorm(m):
    """Spectral (2-) norm, with the empty matrix mapped to 0."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def opnorm_lower_bound(m):
    """A proven lower bound on the spectral norm, without an SVD.

    For the longest column y = M e_j, |M* y| / |y| <= |M*| = |M|_2, and by
    Cauchy-Schwarz it is at least |y|, the largest column norm. It costs
    two passes over M and is exact for nonzero orthogonal projectors and
    whenever e_j is a top right singular vector (the identity, selections
    of its rows or columns). The empty or zero matrix maps to 0.
    """
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0.0
    y = m[:, np.argmax(np.linalg.norm(m, axis=0))]
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        return 0.0
    return float(np.linalg.norm(m.conj().T @ y)) / norm_y


def default_rank_tol(shape, largest_sv):
    """max(m, n) * eps * sigma_1, the standard numerical-rank threshold."""
    return max(shape) * EPS * largest_sv if largest_sv > 0 else 0.0


def hermitian_part(m):
    """(M + M*) / 2, exactly self-adjoint in floating point."""
    return 0.5 * (m + m.conj().T)


def propagator(a, b):
    """The map t -> exp(a*t) b of a constant-coefficient system.

    ``a`` and ``b`` are validated once, here; the returned map does no
    per-call checks beyond the time argument, so an integrand that
    evaluates it at many nodes pays for neither.

    Every exp(a*t) is the Taylor kernel of :func:`_taylor_kernel`,
    whose truncation is proven to stay below eps / 2 relative before the
    squarings, followed by one product with ``b``; the kernel's stack of
    powers of ``a`` is built once per map, so every node of an integral
    shares it. The map remembers exp(a*t) at the last 15 times it was
    called at, one Kronrod panel's nodes, and evicts the oldest first:
    15 n^2 entries, about 1 MB at n = 90. When exp(a*t/2) is remembered,
    it is removed and squared instead of evaluating the kernel; that is
    the last squaring of scaling and squaring. Each node of the
    quadrature's start-mesh panel [T/2^(j+1), T/2^j] is bitwise twice a
    node of the finer panel evaluated just before it, so on the start mesh
    only the two finest panels evaluate the kernel. The map is therefore
    not safe to share between threads.

    Parameters
    ----------
    a : array_like
        Square generator matrix.
    b : array_like
        Matrix with as many rows as ``a``.

    Returns
    -------
    callable
        Maps a finite nonnegative time to a fresh array exp(a*t) b, real if
        the inputs are real.
    """
    a = as_operator(a, "generator", square=True)
    b = as_operator(b, "input matrix")
    if b.shape[0] != a.shape[0]:
        raise DimensionError("input matrix row count must match the generator")
    exponential = _taylor_kernel(a)
    memo = {}  # t -> exp(a*t) for the latest nodes, oldest first

    def at(t):
        t = float(t)
        if not np.isfinite(t) or t < 0:
            raise ValueError(
                "time must be a finite nonnegative real, got %r" % t
            )
        # a start-mesh node is exactly twice a node of the finer panel
        # evaluated just before it, so its exponential is one squaring
        half = memo.pop(0.5 * t, None)
        e = half @ half if half is not None else exponential(t)
        memo[t] = e
        if len(memo) > len(_KRONROD_NODES):
            del memo[next(iter(memo))]
        return e @ b

    return at


#: largest scaled time beta * tau that the Taylor series takes unhalved
_TAYLOR_THETA = 0.5


def _taylor_degree(x):
    """The least m >= 0 with x^(m+1) e^(2x) / (m+1)! <= eps / 2.

    The bound of :func:`_taylor_kernel`; m = 14 at x = 1/2, and m = 0 at
    x = 0.
    """
    m, bound = 0, x * math.exp(2.0 * x)
    while bound > 0.5 * EPS:
        m += 1
        bound *= x / (m + 1)
    return m


def _taylor_kernel(a):
    """The map t -> exp(a*t) of a square matrix: a truncated Taylor series
    with scaling and squaring (Moler & Van Loan, "Nineteen dubious ways to
    compute the exponential of a matrix, twenty-five years later", SIAM
    Review 45, 2003).

    beta = sqrt(|a|_1 |a|_inf) >= |a|_2 reads only ``a``. At time t, s is
    the least integer with x = beta t / 2^s <= theta = 1/2, tau = t / 2^s,
    and m = :func:`_taylor_degree` (x). The map sums
    T = sum_{k <= m} (a tau)^k / k! and squares it s times.

    Proof that T is exp(a tau) to eps / 2 relative: the remainder
    R = exp(a tau) - T = sum_{k > m} (a tau)^k / k! has
    |R|_2 <= sum_{k > m} x^k / k! <= x^(m+1) e^x / (m+1)!, and
    |exp(-a tau)|_2 <= e^x, so sigma_min(exp(a tau)) >= e^-x. Hence
    T = exp(a tau) (I + E) with E = -exp(-a tau) R and
    |E|_2 <= x^(m+1) e^(2x) / (m+1)! <= eps / 2. E is a power series in
    a, so it commutes with exp(a tau), and T^(2^s) = exp(a t) (I + E)^(2^s):
    a relative error of at most (1 + eps/2)^(2^s) - 1 before the rounding
    of the squarings.

    The stack (a / u)^k / k!, with u the power of two above beta, is
    allocated once per map for m <= 14 and filled in place on first need,
    up to the largest m any call has needed; each call then sums
    (tau u)^k times it in one tensordot, (m + 1) n^2 flops besides the s
    squarings. Scaling by u is exact and keeps every factor at most 1, so
    no power overflows against another that underflows.
    """
    magnitudes = np.abs(a)
    beta = (math.sqrt(magnitudes.sum(axis=0).max())
            * math.sqrt(magnitudes.sum(axis=1).max()))
    unit = math.ldexp(1.0, math.frexp(beta)[1])
    scaled = a / unit
    stack = np.empty((_taylor_degree(_TAYLOR_THETA) + 1,) + a.shape, dtype=a.dtype)
    stack[0] = np.eye(a.shape[0])
    built = 1  # powers in the stack so far

    def exp_at(t):
        nonlocal built
        tau, squarings = t, 0
        while beta * tau > _TAYLOR_THETA:
            tau, squarings = 0.5 * tau, squarings + 1
        degree = _taylor_degree(beta * tau)
        for k in range(built, degree + 1):
            stack[k] = stack[k - 1] @ scaled / k
        built = max(built, degree + 1)
        coefficients = (tau * unit) ** np.arange(degree + 1)
        e = np.tensordot(coefficients, stack[:degree + 1], axes=1)
        for _ in range(squarings):
            e = e @ e
        return e

    return exp_at


# Kronrod 15-point rule on [-1, 1] with its embedded 7-point Gauss rule
# (QUADPACK's qk15): nodes and weights for x >= 0, largest first; the Gauss
# nodes are the odd-indexed Kronrod nodes. |K15 - G7| is the panel error estimate.
_XK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)
# all 15 nodes in ascending order, weights aligned (Gauss weight 0 off-rule)
_KRONROD_NODES = tuple(-x for x in _XK_HALF) + _XK_HALF[-2::-1]
_KRONROD_WEIGHTS = _WK_HALF + _WK_HALF[-2::-1]
_GAUSS_WEIGHTS = _WG_HALF + _WG_HALF[-2::-1]


def _kronrod_panel(f, lo, hi):
    """K15 of f on [lo, hi] and its error estimate |K15 - G7|.

    Evaluates f once at each of the 15 nodes, left to right, and keeps only
    the two running sums, so memory stays at a few integrand values.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    kronrod = gauss = 0.0
    for x, wk, wg in zip(_KRONROD_NODES, _KRONROD_WEIGHTS, _GAUSS_WEIGHTS):
        y = f(mid + half * x)
        kronrod = kronrod + wk * y
        if wg:
            gauss = gauss + wg * y
    kronrod = half * kronrod
    err = float(np.abs(kronrod - half * gauss).max(initial=0.0))
    return kronrod, err


#: refinement budget of :func:`integrate_operator_valued`, in panels
_MAX_PANELS = 4096


def integrate_operator_valued(f, decay_rate, abs_tol, bound_constant,
                              fast_rate):
    """Integrate an exponentially decaying matrix-valued function over [0, inf).

    The caller certifies that every entry of ``f(t)`` is bounded by
    ``K * exp(-decay_rate * t)`` (any operator-norm bound does this); that
    certificate determines the truncation point T at which the analytic
    tail bound drops below ``abs_tol / 2``, and [0, T] is then integrated
    adaptively to the remaining ``abs_tol / 2``. Keeping the truncation
    analytic (rather than heuristic) makes results auditable against the
    certificate.

    Each panel is integrated by the nested Gauss-Kronrod 7/15 pair
    (Piessens et al., QUADPACK, 1983): 15 evaluations give the Kronrod
    value and, from the embedded Gauss rule, the error estimate
    |K15 - G7|. The adaptive pass starts from the dyadic mesh with
    breakpoints T 2^-j, j = 0, 1, ..., down to the first one at or below
    ``1 / fast_rate``, plus 0. A single panel [0, T] would put its first
    node near 0.006 T, where a stiff integrand can already have decayed to
    nothing; every node of the first panel and both estimates would then
    read 0, and the mass near t = 0 would be lost without any warning. On
    the dyadic mesh each panel is no longer than the time already elapsed
    (or than 1 / fast_rate), so no integrand term can vanish across it
    unseen. Panels are then split, worst estimate first, until the summed
    estimates meet the budget.

    Parameters
    ----------
    f : callable
        Maps a nonnegative float to a matrix (consistent shape across
        calls) or to a scalar, which is integrated as it is, with no
        1 x 1 wrapper.
    decay_rate : float
        Positive certified exponential decay rate.
    abs_tol : float
        Entrywise absolute error target for the result.
    bound_constant : float
        The constant K of the decay certificate. It must be a proven bound:
        it sets T, and so what is dropped.
    fast_rate : float
        Upper bound on the fastest rate at which ``f`` varies, e.g.
        2 norm(A) for an integrand quadratic in exp(A t); any larger value
        is safe and costs about one panel per doubling.

    Returns
    -------
    ndarray or scalar
        The integral, of the kind ``f`` returns, entrywise accurate to
        ``abs_tol``. Panel values are
        summed in order of their left endpoints, so for a given integrand
        and arguments the result is reproducible bit for bit.

    Raises
    ------
    QuadratureError
        If ``abs_tol`` is below the float64 rounding floor of the sum,
        64 eps times the largest entry of the summed absolute panel values
        on the start mesh (raised before any refinement), or if the
        budget of ``_MAX_PANELS`` panels is exhausted first. Either way the
        error carries the best estimate and the tolerance actually achieved.
    """
    decay_rate = float(decay_rate)
    abs_tol = float(abs_tol)
    bound_constant = float(bound_constant)
    fast_rate = float(fast_rate)
    if not np.isfinite(decay_rate) or decay_rate <= 0:
        raise ValueError("decay_rate must be a finite positive real")
    if not np.isfinite(abs_tol) or abs_tol <= 0:
        raise ValueError("abs_tol must be a finite positive real")
    if not np.isfinite(bound_constant) or bound_constant <= 0:
        raise ValueError("bound_constant must be a finite positive real")
    if not np.isfinite(fast_rate) or fast_rate <= 0:
        raise ValueError("fast_rate must be a finite positive real")

    # tail: integral_T^inf K e^{-mu t} dt = K e^{-mu T} / mu <= abs_tol / 2
    t_end = np.log(max(2.0 * bound_constant / (decay_rate * abs_tol), 2.0)) / decay_rate
    panel_budget = abs_tol / 2.0

    edges = [t_end]
    while edges[-1] * fast_rate > 1.0:
        edges.append(0.5 * edges[-1])
    edges.append(0.0)
    edges.reverse()

    # heap orders panels by decreasing error; the counter makes ordering
    # deterministic under ties
    heap = []
    total_err = 0.0
    for counter, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        value, err = _kronrod_panel(f, lo, hi)
        heap.append((-err, counter, lo, hi, value))
        total_err += err
    heapq.heapify(heap)
    counter = len(heap)

    # float64 cannot resolve a sum of panel values much below eps times
    # their size; K / rate can exceed that size by orders of magnitude, so
    # the floor is taken from the start mesh, before any refinement
    size = sum(np.abs(item[4]) for item in heap)
    floor = 64.0 * EPS * float(np.max(size, initial=0.0))
    if abs_tol < floor:
        raise QuadratureError(
            "tolerance %.3e is below the rounding floor %.3e of the sum "
            "(64 eps times its largest entry)" % (abs_tol, floor),
            estimate=_ordered_panel_sum(heap),
            achieved_tol=max(total_err, floor) + abs_tol / 2.0,
        )

    while total_err > panel_budget:
        if len(heap) >= _MAX_PANELS:
            value = _ordered_panel_sum(heap)
            raise QuadratureError(
                "adaptive quadrature did not reach tolerance %.3e within %d "
                "panels (achieved %.3e)" % (abs_tol, _MAX_PANELS, total_err),
                estimate=value,
                achieved_tol=total_err + abs_tol / 2.0,
            )
        neg_err, _, lo, hi, _ = heapq.heappop(heap)
        total_err += neg_err  # neg_err is -err of the popped panel
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
            value, err = _kronrod_panel(f, sub_lo, sub_hi)
            counter += 1
            heapq.heappush(heap, (-err, counter, sub_lo, sub_hi, value))
            total_err += err

    return _ordered_panel_sum(heap)


def _ordered_panel_sum(heap):
    """Sum panel values sorted by left endpoint (fixed-order reduction)."""
    panels = sorted(heap, key=lambda item: item[2])
    total = None
    for _, _, _, _, value in panels:
        total = value if total is None else total + value
    if total is not None and np.iscomplexobj(total):
        if np.abs(total.imag).max(initial=0.0) == 0.0:
            total = total.real
    return total
