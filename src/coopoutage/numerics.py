"""Gauss quadrature engines and a few special-function wrappers.

Gauss-Legendre rules (gauss_legendre, mapped_legendre, and _legendre_base,
which exact_metrics reads directly for the AF integrals and lcr_u's fixed
10-node rule) are generated by Newton iteration on the Legendre
recurrence, so any order works; at order 1024 this builds 3-4x faster
than numpy's leggauss, whose weights are up to 1.2e-9 relative off there.
Each rule is symmetric about 0 bit for bit (x_i = -x_(n-1-i), equal
weights), which aor_af's folded inner rule relies on.
Gauss-Laguerre rules (gauss_laguerre) come from numpy's laggauss
(Golub-Welsch); no metric uses one, they serve integrate_semi_infinite's
consistency check and the tests.

The package's one quadrature order loop lives here: `refine_blocks`
raises the order of each block of a split integral separately
(exact_metrics.op_af and aor_af, one block per outer panel, on the same
(outer, inner) order schedule), and `refine` is refine_blocks over one
block, for a whole integral (integrate_semi_infinite: order0 doubled up
to max_order, 64..1024 by default).  refine_blocks asks for its two
opening orders in one call, so aor_af evaluates them on one grid.

bessel_k0, bessel_k1, erfc and upper_inc_gamma_3_2 are checked wrappers
over scipy.special (domain errors, saturation to 0 with UnderflowWarning)
for the tests and the package API; exact_metrics calls scipy.special
directly.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special as _sp

__all__ = [
    "QuadratureRule",
    "ConvergenceError",
    "UnderflowWarning",
    "LaguerreDisagreement",
    "gauss_legendre",
    "gauss_laguerre",
    "mapped_legendre",
    "integrate_gauss",
    "refine",
    "refine_blocks",
    "integrate_semi_infinite",
    "bessel_k0",
    "bessel_k1",
    "erfc",
    "upper_inc_gamma_3_2",
]

# exp(-z) underflows to zero (in double precision) past this point
_K_UNDERFLOW_Z = 705.0

# smallest normal double: the floor of a relative error budget
_TINY = np.finfo(float).tiny

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 120


class ConvergenceError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the last two estimates."""

    def __init__(self, message: str, estimates: tuple = ()):
        super().__init__(message)
        self.estimates = estimates


class UnderflowWarning(RuntimeWarning):
    """An exponentially small result saturated to zero."""


class LaguerreDisagreement(RuntimeWarning):
    """Gauss-Laguerre consistency check disagrees with the mapped-Legendre result."""


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable quadrature rule: sum(weights * f(nodes)) approximates the integral.

    kind is one of "finite-legendre", "semi-infinite-laguerre" or
    "mapped-legendre".  Nodes are strictly increasing and weights strictly
    positive; both are validated at construction.
    """

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValueError("nodes/weights must have shape (order,)")
        if self.order > 1 and not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0.0):
            raise ValueError("weights must all be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _legendre_poly(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (P_n(x), P_n'(x)) via the three-term recurrence."""
    p_prev = np.zeros_like(x)
    p_cur = np.ones_like(x)
    for j in range(1, n + 1):
        p_prev, p_cur = p_cur, ((2 * j - 1) * x * p_cur - (j - 1) * p_prev) / j
    return p_cur, n * (x * p_cur - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=64)
def _legendre_base(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Legendre nodes/weights on [-1, 1] by Newton iteration on the recurrence."""
    n = order
    k = np.arange(n, dtype=float)
    # Tricomi-style initial guess, accurate enough for global Newton
    x = np.cos(math.pi * (k + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_poly(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise ConvergenceError(f"Legendre Newton iteration stalled at order {n}")
    # one clean derivative evaluation at the converged nodes
    _, dp = _legendre_poly(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    x, w = x[idx], w[idx]
    # the rule is symmetric about 0; averaging each node with its mirror
    # makes it so exactly, so either half of it is the whole rule
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


@lru_cache(maxsize=64)
def _laguerre_base(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Laguerre (weight e^{-t} on [0, inf)) nodes/weights, numpy's Golub-Welsch rule."""
    return np.polynomial.laguerre.laggauss(order)


def gauss_legendre(order: int, a: float = -1.0, b: float = 1.0) -> QuadratureRule:
    """Gauss-Legendre rule of the given order on [a, b].

    Exact for polynomials of degree <= 2*order - 1.  Raises ValueError for
    order < 1 or a >= b.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    x, w = _legendre_base(order)
    half = 0.5 * (b - a)
    return QuadratureRule("finite-legendre", order, a + half * (x + 1.0), half * w)


def gauss_laguerre(order: int) -> QuadratureRule:
    """Gauss-Laguerre rule: sum(w_i * g(x_i)) approximates int_0^inf e^{-t} g(t) dt.

    Orders above 128 are rejected: the largest node grows like 4*order, so
    the smallest weight (roughly e^{-x_max}) leaves the normal double range
    near order 170 and the rule degenerates (numpy's laggauss returns
    NaN weights from about order 190).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > 128:
        raise ValueError("gauss_laguerre order capped at 128 (weights underflow beyond)")
    x, w = _laguerre_base(order)
    return QuadratureRule("semi-infinite-laguerre", order, x, w)


def mapped_legendre(order: int, scale: float = 1.0) -> QuadratureRule:
    """Legendre rule mapped onto (0, inf) through t = scale * (u / (1 - u))^2.

    The weights absorb the Jacobian 2 * scale * u / (1 - u)^3, so
    sum(weights * f(nodes)) approximates int_0^inf f(t) dt directly.  The
    quadratic map regularises inverse-square-root behaviour at t = 0 (the
    worst case among the outage integrands) and stretches deep into the
    tail, so a single rule covers several decades of integrand scale.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    x, w = _legendre_base(order)
    u = 0.5 * (x + 1.0)
    one_minus = 1.0 - u
    return QuadratureRule(
        "mapped-legendre",
        order,
        scale * (u / one_minus) ** 2,
        scale * w * u / one_minus**3,
    )


def integrate_gauss(f: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> float:
    """Apply a quadrature rule to a vectorised integrand."""
    return float(np.sum(rule.weights * f(rule.nodes)))


def refine(estimate: Callable[[int], float], orders: Iterable[int], tol: float, what: str) -> float:
    """Return the first estimate(m) along orders that agrees with the previous one to tol.

    refine_blocks over one block, so orders needs at least two entries:
    orders after the agreeing one are not evaluated, and when the orders
    run out, or an estimate is not finite, ConvergenceError carries the
    last two estimates.
    """
    return refine_blocks(lambda ms, idx: [np.array([estimate(m)]) for m in ms], 1, orders, tol, what)


def refine_blocks(
    values: Callable[[tuple, np.ndarray], Sequence[np.ndarray]],
    n_blocks: int,
    orders: Iterable,
    tol: float,
    what: str,
) -> float:
    """Sum of n_blocks block integrals, each raised along orders only while its error counts.

    values(entries, idx) returns one array per entry of the tuple entries,
    the values of the blocks idx (an increasing index array) at that entry
    of orders: an int, or a tuple such as aor_af's (outer, inner) order
    pairs.  The opening round asks for orders[:2] of every block in one
    call; a block's error estimate is the difference of its last two
    values.  While the summed error exceeds tol * |total|, the blocks with
    the largest errors move to their next order, just enough of them that
    the errors left behind fit half of that budget; each later round calls
    values once per target order, with that one entry.  Returns the total
    of the latest block values.  If a block that must move is already at
    the last order, or a block value is not finite, raises
    ConvergenceError carrying the last two totals.
    """
    orders = tuple(orders)
    if len(orders) < 2:
        raise ValueError("refine_blocks needs at least two orders")
    lo, hi = values(orders[:2], np.arange(n_blocks))
    prev, cur = float(lo.sum()), float(hi.sum())
    level = None
    while True:
        # a NaN total would fit no budget and move no block
        if not (math.isfinite(prev) and math.isfinite(cur)):
            raise ConvergenceError(f"{what} has a non-finite block value: {prev!r}, {cur!r}", (prev, cur))
        err = np.abs(hi - lo)
        budget = tol * max(abs(cur), _TINY)
        if err.sum() <= budget:
            return cur
        if level is None:
            level = np.ones(n_blocks, dtype=int)
        # the smallest errors whose sum fits budget / 2 stay; the rest move on
        by_err = np.argsort(err)
        n_stay = np.searchsorted(np.cumsum(err[by_err]), 0.5 * budget, side="right")
        raise_idx = np.sort(by_err[n_stay:])
        if np.any(level[raise_idx] == len(orders) - 1):
            raise ConvergenceError(
                f"{what} did not converge by order {orders[-1]}: {prev!r}, {cur!r}", (prev, cur)
            )
        for lev in np.unique(level[raise_idx]):
            idx = raise_idx[level[raise_idx] == lev]
            lo[idx] = hi[idx]
            hi[idx] = values(orders[lev + 1 : lev + 2], idx)[0]
            level[idx] += 1
        prev, cur = cur, float(hi.sum())


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-9,
    *,
    order0: int = 64,
    max_order: int = 1024,
    laguerre_check: bool = True,
) -> float:
    """Integrate f over (0, inf) with estimated relative error <= tol.

    The integrand is mapped onto (0, 1) through t = (u / (1 - u))^2 and
    integrated with Gauss-Legendre, doubling the order from order0 until two
    successive estimates agree to tol (see refine).  f must be vectorised,
    continuous on (0, inf), decay at least exponentially at infinity, and
    grow no faster than t^(-1/2) at 0+.

    A 64-point Gauss-Laguerre evaluation, sum(w_i e^{x_i} f(x_i)), is
    computed as a consistency check; if it disagrees with the converged
    result by more than 10 * tol relative, a LaguerreDisagreement warning
    is raised at the caller.  The check can be disabled for
    integrands whose decay rate differs strongly from e^{-t}, where plain
    Gauss-Laguerre is a poor monitor.

    Raises ConvergenceError (carrying the last two estimates) if the order
    cap is reached without convergence, and ValueError if order0 is not
    below max_order (a single order gives no error estimate).
    """
    orders = [order0]
    while orders[-1] < max_order:
        orders.append(2 * orders[-1])
    cur = refine(
        lambda m: integrate_gauss(f, mapped_legendre(m)), orders, tol, "semi-infinite integral"
    )
    if laguerre_check:
        rule = gauss_laguerre(64)
        # w_i e^{x_i} stays finite in double precision for order <= 128
        lag = float(np.sum(rule.weights * np.exp(rule.nodes) * f(rule.nodes)))
        if abs(lag - cur) > 10.0 * tol * max(abs(cur), _TINY):
            msg = f"Gauss-Laguerre check ({lag:.6e}) disagrees with the integral {cur:.6e}"
            warnings.warn(msg, LaguerreDisagreement, stacklevel=2)
    return cur


def _check_positive_domain(z, name: str):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError(f"{name} requires strictly positive argument")
    return z


def _saturated_bessel(kernel, z, name: str):
    za = _check_positive_domain(z, name)
    out = kernel(za)
    if np.any(za > _K_UNDERFLOW_Z):
        warnings.warn(f"{name} underflowed to 0", UnderflowWarning, stacklevel=3)
        out = np.where(za > _K_UNDERFLOW_Z, 0.0, out)
    return float(out) if np.isscalar(z) else out


def bessel_k0(z):
    """Modified Bessel function of the second kind, order zero.

    Accepts scalars or arrays.  z <= 0 raises ValueError.  Arguments large
    enough that the result underflows saturate to 0.0 and raise an
    UnderflowWarning.
    """
    return _saturated_bessel(_sp.k0, z, "bessel_k0")


def bessel_k1(z):
    """Modified Bessel function of the second kind, order one (see bessel_k0)."""
    return _saturated_bessel(_sp.k1, z, "bessel_k1")


def erfc(x):
    """Complementary error function (thin wrapper, vectorised)."""
    if np.isscalar(x):
        return math.erfc(x)
    return _sp.erfc(np.asarray(x, dtype=float))


def upper_inc_gamma_3_2(x):
    """Upper incomplete gamma function Gamma(3/2, x) for x >= 0.

    Evaluated through the closed identity
        Gamma(3/2, x) = (sqrt(pi)/2) * erfc(sqrt(x)) + sqrt(x) * exp(-x),
    which is exact and cancellation free for all x >= 0.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError("upper_inc_gamma_3_2 requires x >= 0")
    rx = np.sqrt(xa)
    out = 0.5 * math.sqrt(math.pi) * erfc(rx) + rx * np.exp(-xa)
    return float(out) if np.isscalar(x) else out
