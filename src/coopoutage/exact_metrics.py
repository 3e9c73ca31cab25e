"""Exact outage probability, rate, and duration of the four protocols.

For each transmission scheme (direct, variable-gain amplify-and-forward,
decode-and-forward with repetition coding, and selection decode-and-forward)
the instantaneous capacity outage is a threshold crossing of an equivalent
end-to-end gain process.  This module evaluates the outage probability (OP)
as the CDF of that gain at the threshold, the average outage rate (AOR) as
its downward level-crossing rate via Rice's formula, and the average outage
duration (AOD) as OP / AOR.

The AF expressions involve a one-dimensional integral (OP) and a
two-dimensional integral (AOR), both Gauss-Legendre sums over the same
outer quadrature: the relayed-path level a in [0, g0^2], split into the
geometric panels of _outer_panels, with the nodes of _outer_nodes.  aor_af
gives every outer node its own inner rule in ln t, over the window where
the inner exponents stay within psi of their peak.  A block is one outer
panel, and numerics.refine_blocks raises the (outer, inner) orders ((8,
48), (12, 64), ... (96, 512)) only of the blocks whose error estimate
still counts against tol (1e-8 for op_af, which reads only the outer
orders; 1e-7 for aor_af).  Neither runs a Gauss-Laguerre cross-check.
Direct, DF and SR use no adaptive quadrature.  lcr_u, the crossing rate
of sqrt(X^2 + Z^2) behind DF and SR, is one integral in a form symmetric
in the two links and free of cancellation, on one skeleton: it orders the
links by c = (g0/omega) g0 and takes Jh = e^{ca} J once, exactly at equal
derivative variances, by one fixed 10-node Gauss-Legendre rule where the
exponent gap d = cb - ca is at most 1, and in closed form elsewhere.  The
rate, sqrt(2/pi) g0 (g0/ox)(g0/oz) e^{-ca} Jh, is a plain product where
every factor and partial product is a normal float and one exp of the
sum of the logs elsewhere, with log Jh from _lcr_log_tail only where the
closed form leaves the float range (see lcr_u's docstring).  Each
difference of two exponentials that turns 0/0 at equal parameters is
exp's divided difference, taken through _exprel: as exprel(-d) in lcr_u
at equal variances, as _exp_dd(a, b) = (e^a - e^b)/(a - b) in p3 and p4
of sr_switch_probs at every pair of gains, and directly in Pr{U > g0}
inside its equal-gain window.  No zeroth-order limit is left.
One window remains (_EQUAL_BRANCH_TOL): Pr{U > g0}'s, exact at every gap.

Each per-operating-point term is computed once per Scenario through
channel.scenario_term: Pr{U > g0} and U's crossing rate, which DF and SR
share (_u_exceeds, _u_lcr), and the AF outer panels with their shares of
the outer density, which op_af and aor_af share (_outer_panels).

op_af takes each panel's share of the outer density e^-(g0^2 - a)/ox / ox
in closed form and lets the panel's rule average the relayed-path CDF
over it; the CDF is -expm1(-b) + e^-b(1 - x K1(x)) with 1 - x K1(x) from
its positive-term series for x < 1.8, so no node cancels, and the
returned probability is clipped to [0, 1].  The outer panels are decades
of a from 1e-10*min(g0^2, oy*oz/c1) (at deep outage the rate's mass sits
at a <~ oy*oz/c1, far below g0^2), with the top decade graded in g0^2 - a
down to about ox and its last sliver mapped through a = g0^2 - span*u^2,
which smooths the sqrt(g0^2 - a) endpoint of the rate and the width-ox
peak of the outer density.
The inner window of outer node a is |ln t - ln t*| <= arccosh(1 + psi/(2k)),
with k = sqrt(a(a + c1)/(oy oz)) and t* = 1/(oy k): the two e^-psi cuts
where they are far apart, a band around the merged peak t* at deep outage.
In e = t/t* the inner exponents are -k(e + 1/e), and the integrand is
sqrt(q(e)) exp(-k(e + 1/e))/e with q a quartic whose coefficients, all
nonnegative, are computed once per outer node (_af_rate_quartic).  The
window is symmetric in ln e, so the inner rule's nodes +-x pair e with
1/e: only the nonnegative half of each rule is evaluated
(_af_rate_rules), and each pair costs one exp(h x), one reciprocal, one
exp(-k(e + 1/e)) and two Horner passes, over q and over the reversed
quartic e^4 q(1/e) (_af_rate_kernel).  The separable factors go into the
weights (half*oy*k and exp(-(g0^2 - a)/ox - a(1/oy + 1/oz)) per outer
node, which absorbs the exp(-g0^2/ox) prefactor), so every exponent is
<= 0 and deep outage underflows to 0 instead of overflowing.  The opening
round evaluates both opening order pairs of every block on one
zero-padded grid.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import attrgetter

import numpy as np
from scipy import special as _sp

from .channel import _EXP_NORMAL, MobilityError, Scenario, _domain_error, rayleigh_lcr, scenario_term
from .numerics import _TINY, _legendre_base, refine_blocks

__all__ = [
    "Protocol",
    "OutageMetrics",
    "op_direct",
    "aor_direct",
    "op_af",
    "aor_af",
    "prob_u_exceeds",
    "lcr_u",
    "op_df",
    "aor_df",
    "op_sr",
    "aor_sr",
    "sr_switch_probs",
    "metrics",
]

# Equal-parameter detection: the general two-branch formula of Pr{U > g0}
# develops a 0/0 form (and catastrophic cancellation) as the gains approach
# each other, so inside this relative gap a form built for it runs instead.
# One window is left, prob_u_exceeds' (equal gains): it takes the exact
# divided difference through _exprel (2.5e-14 worst against 50-digit
# mpmath at g0 <= 20).  lcr_u and sr_switch_probs need no window.
_EQUAL_BRANCH_TOL = 1e-5

# exp(-PSI) ~ 1e-20: integration cutoff for exponentially decaying tails
_PSI = 46.0

# aor_af's per-block order schedule: (outer nodes per panel, inner nodes
# per outer node), raised together
_AF_RATE_ORDERS = tuple(zip((8, 12, 16, 24, 32, 48, 64, 96), (48, 64, 96, 128, 192, 256, 384, 512)))


@dataclass(frozen=True)
class OutageMetrics:
    """Outage probability, rate (Hz) and mean duration (s) at one operating point.

    aod is None when the rate is zero (no outages, duration undefined);
    otherwise aod * aor == p_out holds by construction (metrics raises
    OverflowError where the quotient would leave the float range).
    """

    p_out: float
    aor: float
    aod: float | None


def _equalish(a: float, b: float) -> bool:
    return abs(a - b) <= _EQUAL_BRANCH_TOL * max(abs(a), abs(b))


def _exprel(y: float) -> float:
    """(e^y - 1)/y, 1 at y = 0: exp's divided difference at y and 0, never 0/0.

    expm1 keeps it within a few ulps as y -> 0 (McCurdy, Ng & Parlett,
    Math. Comp. 43, 1984).  Every caller passes y <= 0, so it cannot
    overflow.
    """
    return math.expm1(y) / y if y else 1.0


def _exp_dd(a: float, b: float) -> float:
    """(e^a - e^b)/(a - b), e^a at a = b: exp's divided difference at a and b.

    Taken as e^max(a, b) exprel(-|a - b|), so nothing cancels, and for
    a, b <= 0 no exp overflows.
    """
    return math.exp(max(a, b)) * _exprel(-abs(a - b))


def _require_mobility(scenario: Scenario):
    if scenario.dopplers.all_static:
        raise MobilityError("all node Dopplers are zero; outage rate is degenerate")


# ---------------------------------------------------------------------------
# direct transmission


def op_direct(scenario: Scenario) -> float:
    """Outage probability of direct transmission."""
    _, th = scenario.derived
    return -math.expm1(-th.x0**2 / scenario.gains.omega_x)


def aor_direct(scenario: Scenario) -> float:
    """Average outage rate (Hz) of direct transmission."""
    _require_mobility(scenario)
    ld, th = scenario.derived
    return rayleigh_lcr(th.x0, scenario.gains.omega_x, ld.sigma2_x)


# ---------------------------------------------------------------------------
# variable-gain AF relaying


# 1 - x K1(x) = sum_k c_k h^(2k+2) (d_k - 2 ln h), h = x/2, with
# c_k = 1/(k! (k+1)!) and d_k = psi(k+1) + psi(k+2) = H_k + H_(k+1) - 2 gamma
# (harmonic numbers H; DLMF 10.31.1).  Below _SERIES_X every term is
# positive; at x = 1.8 the 14th is ~1e-19 of the sum.
_SERIES_X = 1.8
_SERIES_K = np.arange(14)
_SERIES_C = np.array([1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in _SERIES_K])
_HARMONIC = np.cumsum([0.0] + [1.0 / j for j in range(1, _SERIES_K.size + 1)])
_SERIES_D = _HARMONIC[:-1] + _HARMONIC[1:] - 2.0 * np.euler_gamma
_SERIES_CD_C = np.stack([_SERIES_C * _SERIES_D, _SERIES_C])


def _one_minus_xk1(x: np.ndarray) -> np.ndarray:
    """1 - x K1(x) for x > 0, free of cancellation as x -> 0."""
    out = np.empty_like(x)
    big = x >= _SERIES_X
    out[big] = 1.0 - x[big] * _sp.k1(x[big])
    h = 0.5 * x[~big]
    z = h * h
    # z^k for every k by doubling (rows [n, 2n) are rows [0, n) times z^n),
    # cheaper than a float power per entry
    powers = np.empty((_SERIES_K.size, z.size))
    powers[0] = 1.0
    powers[1] = z
    n = 2
    while n < _SERIES_K.size:
        rows = powers[n : 2 * n]
        np.multiply(powers[: len(rows)], powers[n // 2] * powers[n // 2], out=rows)
        n *= 2
    sums = _SERIES_CD_C @ powers
    out[~big] = z * (sums[0] - 2.0 * np.log(h) * sums[1])
    return out


def _af_relayed_cdf(a, c1: float, oy: float, oz: float):
    """CDF of the relayed-path power Y^2 Z^2 / (Y^2 + Z^2 + C1) at levels a > 0.

    It is 1 - x K1(x) e^-b with x = 2 sqrt(a(a + c1)/(oy oz)) and
    b = a(1/oy + 1/oz), taken as -expm1(-b) + e^-b (1 - x K1(x)): two
    nonnegative terms, each accurate as a -> 0.
    """
    b = a * (1.0 / oy + 1.0 / oz)
    return -np.expm1(-b) + np.exp(-b) * _one_minus_xk1(2.0 * np.sqrt(a * (a + c1) / (oy * oz)))


def _decade_edges(lo: float, hi: float) -> list[float]:
    """Edges of geometric panels of [lo, hi], about one per decade.

    Neighbouring edges are a factor (hi/lo)^(1/n) apart, with
    n = max(1, ceil(log10(hi/lo))) panels: hi/lo for one panel, at least
    sqrt(10) for more, so the edges increase whenever lo < hi.
    """
    if not lo < hi:
        raise ValueError(f"need increasing panel edges on [{lo}, {hi}]")
    ratio = hi / lo
    n_pan = max(1, math.ceil(math.log10(ratio)))
    return [lo * ratio ** (i / n_pan) for i in range(n_pan)] + [hi]


@scenario_term
def _outer_panels(scenario: Scenario) -> tuple:
    """The AF outer panels, once per Scenario: (edges, share), both read-only.

    edges are decades of a, the top one graded in g0^2 - a.  Geometric
    panels, one per decade, run from a = 1e-10*min(g0^2, a_knee) up to the
    top decade [g0^2 - span, g0^2]; the head below, where the integrand
    grows at most like log(1/a), is dropped.  a_knee = oy*oz/c1:
    with c1 >> a the inner peak is about exp(-2*sqrt(a*c1/(oy*oz))), so at
    deep outage (a_knee << g0^2) the mass sits at a <~ a_knee, which a head
    cut at 1e-10*g0^2 would truncate.  The top decade is cut again, one
    panel per decade of d = g0^2 - a, down to d = min(ox, span/10): with
    ox << g0^2 the outer weight is a width-ox peak at a = g0^2, and the
    sqrt(d) of the rate's variance is least smooth near d = 0 whatever ox
    is.  The last panel, d in [0, min(ox, span/10)], is the one aor_af
    maps quadratically.

    share holds each panel's share of the outer density e^-(g0^2 - a)/ox / ox
    in closed form, e^-(g0^2 - a_hi)/ox (1 - e^-(a_hi - a_lo)/ox), which
    op_af weights its panels by.  op_af and aor_af read the same pair.

    Where the head cut underflows to 0, or g0^2 over it or over ox
    overflows, there is no finite count of decades: ValueError names r0
    and gamma0 before any panel is built.
    """
    g = scenario.gains
    _, th = scenario.derived
    g0sq, ox = th.g0**2, g.omega_x
    lo = 1e-10 * min(g0sq, g.omega_y * g.omega_z / th.c1)
    if not (lo > 0.0 and g0sq / lo < math.inf and g0sq / ox < math.inf):
        raise ValueError(
            f"r0 = {scenario.r0:g} b/s/Hz at gamma0 = {scenario.gamma0:g} puts the AF outage threshold "
            f"g0^2 = {g0sq:g} outside the float range of its quadrature panels"
        )
    edges = _decade_edges(lo, g0sq)
    span = g0sq - edges[-2]
    d = _decade_edges(min(ox, 0.1 * span), span)
    a_edges = np.array(edges[:-1] + [g0sq - di for di in d[-2::-1]] + [g0sq])
    share = np.exp((a_edges[1:] - g0sq) / ox) * -np.expm1((a_edges[:-1] - a_edges[1:]) / ox)
    a_edges.setflags(write=False)
    share.setflags(write=False)
    return a_edges, share


@lru_cache(maxsize=16)
def _af_rate_rules(orders: tuple) -> tuple:
    """Legendre rules of aor_af's (outer, inner) order pairs, stacked for one grid.

    Returns the outer nodes plus 1 and the outer weights of all pairs, one
    after the other, as columns of M = sum(m) rows; the folded inner nodes
    of every outer node, shape (M, n) with n half the largest inner order;
    and each pair's folded inner weights, length n.  An inner rule is
    folded to its nonnegative half, x[ni//2:] and w[ni//2:]: the rules are
    symmetric about 0 bit for bit and every inner order is even, so each
    kept node stands for itself and its mirror, which _af_rate_kernel
    evaluates with it.  A shorter half is padded with zero-weight nodes at
    x = 0.  Last, starts: the first of each pair's rows.  The arrays are
    shared by every call, so they are read-only.
    """
    n = max(ni for _, ni in orders) // 2
    xo, wo, xi, wi = [], [], [], []
    for m, ni in orders:
        x, w = _legendre_base(m)
        xo.append(x + 1.0)
        wo.append(w)
        x, w = (r[ni // 2 :] for r in _legendre_base(ni))
        xi.append(np.repeat([np.pad(x, (0, n - x.size))], m, axis=0))
        wi.append(np.pad(w, (0, n - w.size)))
    xo, wo, xi = np.concatenate(xo)[:, None], np.concatenate(wo)[:, None], np.concatenate(xi)
    starts = np.cumsum([0] + [m for m, _ in orders[:-1]])
    for arr in (xo, wo, xi, *wi, starts):
        arr.setflags(write=False)
    return xo, wo, xi, tuple(wi), starts


def _outer_nodes(a_edges: np.ndarray, idx: np.ndarray, xo: np.ndarray, wo: np.ndarray):
    """Outer nodes a and weights of the AF panels idx, shape (blocks, M, 1).

    xo and wo are the outer columns of _af_rate_rules (Legendre nodes plus
    1, and weights).  Each panel of a_edges takes its own affine copy of
    the rule, except the top one, [g0^2 - span, g0^2], which is mapped
    through a = g0^2 - span*u^2 (weight factor 2u): both AF integrands
    carry sqrt(g0^2 - a) or a width-ox peak there, smooth in u.  idx is
    increasing, so the top panel comes last when idx holds it.
    """
    left = a_edges[idx, None, None]
    hw = 0.5 * (a_edges[idx + 1, None, None] - left)
    a = left + hw * xo
    wa = hw * wo
    if idx[-1] == a_edges.size - 2:
        span = a_edges[-1] - a_edges[-2]
        u = 0.5 * xo
        a[-1] = a_edges[-1] - span * u * u
        wa[-1] = wo * span * u
    return a, wa


def op_af(scenario: Scenario, tol: float = 1e-8) -> float:
    """Outage probability of variable-gain AF relaying.

    A single integral over the relayed-path power level a in [0, g0^2] of
    the outer density e^-(g0^2 - a)/ox / ox times the relayed-path CDF, on
    aor_af's outer quadrature: the panels of _outer_panels, the outer
    nodes of _outer_nodes at the outer orders of _AF_RATE_ORDERS, and
    numerics.refine_blocks raising each panel's order while its error
    estimate still counts against tol.  A panel's share of the outer
    density is taken in closed form (_outer_panels), and its rule, with
    weights w e^-(a_hi - a)/ox, averages only the CDF over it, normalised
    by the sum of those weights.  Where the CDF is 1 at every node that
    average is exactly 1.  The result is clipped to [0, 1]: rounding in the
    sum can push it past 1 at deep outage.
    """
    _, th = scenario.derived
    if th.g0**2 == 0.0:
        return 0.0
    g = scenario.gains
    a_edges, share = _outer_panels(scenario)

    def values(orders, idx: np.ndarray) -> list:
        xo, wo, _, _, starts = _af_rate_rules(orders)
        a, wa = _outer_nodes(a_edges, idx, xo, wo)
        a, wa = a[..., 0], wa[..., 0]
        wa *= np.exp((a - a_edges[idx + 1, None]) / g.omega_x)
        # each order's rows of the stacked rule, summed per panel; weights
        # relative to the panel's top underflow only in panels far (~700 ox)
        # below g0^2, whose share is 0 as well
        cdf = np.add.reduceat(wa * _af_relayed_cdf(a, th.c1, g.omega_y, g.omega_z), starts, axis=1)
        mean = cdf / np.maximum(np.add.reduceat(wa, starts, axis=1), _TINY)
        return list((share[idx, None] * mean).T)

    p_out = refine_blocks(values, a_edges.size - 1, _AF_RATE_ORDERS, tol, "AF outage probability integral")
    return min(max(p_out, 0.0), 1.0)


def _af_rate_quartic(a, g0sq, c1, s2x, s2y, s2z, oy, oz):
    """k and the coefficients (q4, ..., q0) of aor_af's quartic at outer nodes a.

    With k = sqrt(a(a + c1)/(oy oz)), tau = 1/(oy k) and t = tau e, the
    rate's variance times P^2, P = (at + 1)(at + c1 t + 1), is
        svar P^2 = Cx (alpha beta e^2 + (alpha + beta) e + 1)^2
                   + D e^3 (alpha e + 1) + Cz (beta e + 1),
    where alpha = a tau, beta = (a + c1) tau, alpha beta = oz/oy,
    Cx = (g0^2 - a) s2x, D = a^2 (a + c1)^2 s2y tau^3 = s2y oz^2 k/oy and
    Cz = a s2z.  Expanded, that is q4 e^4 + q3 e^3 + q2 e^2 + q1 e + q0 with
        q4 = Cx (alpha beta)^2 + D alpha = (oz/oy)^2 (Cx + a s2y)
        q3 = 2 Cx alpha beta (alpha + beta) + D
        q2 = Cx ((alpha + beta)^2 + 2 alpha beta)
        q1 = 2 Cx (alpha + beta) + Cz beta
        q0 = Cx + Cz,
    every one a sum of nonnegative terms for 0 <= a <= g0^2.
    """
    k = np.sqrt(a * (a + c1) / (oy * oz))
    tau = 1.0 / (oy * k)
    ab = oz / oy
    s = (2.0 * a + c1) * tau  # alpha + beta
    cx = (g0sq - a) * s2x
    cz = a * s2z
    two_cx_s = 2.0 * cx * s
    q4 = ab * ab * (cx + a * s2y)
    q3 = ab * two_cx_s + (s2y * oz * ab) * k
    q2 = cx * (s * s + 2.0 * ab)
    q1 = two_cx_s + cz * (a + c1) * tau
    q0 = cx + cz
    return k, (q4, q3, q2, q1, q0)


def _af_rate_kernel(e, e_inv, k, q):
    """aor_af's integrand at e and at 1/e, summed, weights aside.

    With f(e) = sqrt(q(e)) exp(-k(e + 1/e))/e, it is
        f(e) + f(1/e) = (sqrt(q(e)) + sqrt(qr(e))) exp(-k(e + 1/e))/e,
    where qr(e) = e^4 q(1/e) is the quartic with its coefficients
    reversed: one mirrored pair of nodes of a symmetric rule in ln e.
    q = (q4, ..., q0) holds the coefficients of the quartic q(e) of
    _af_rate_quartic and e_inv = 1/e; the coefficients and k broadcast
    against e (aor_af: shape (blocks, M, 1) against (blocks, M, n), every
    outer node with its own inner nodes).  Horner's rule on a quartic with
    nonnegative coefficients at e > 0 adds only nonnegative terms, so
    neither quartic cancels (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 5.1).  The pair shares one exp.
    """
    roots = []
    for coeffs in (q, q[::-1]):
        p = e * coeffs[0]
        p += coeffs[1]
        for qi in coeffs[2:]:
            p *= e
            p += qi
        roots.append(np.sqrt(p, out=p))
    out, rev = roots
    out += rev
    s = e + e_inv
    s *= -k
    np.exp(s, out=s)
    out *= s
    out *= e_inv
    return out


def aor_af(scenario: Scenario, tol: float = 1e-7) -> float:
    """Average outage rate (Hz) of variable-gain AF relaying.

    The outer integral, over the relayed-path power level a in [0, g0^2],
    runs on the geometric panels of _outer_panels, which it shares with
    op_af: decades of a from 1e-10*min(g0^2, oy*oz/c1), the top decade
    graded in g0^2 - a down to about ox.  The last sliver is mapped through
    a = g0^2 - span*u^2: there the integrand carries sqrt(g0^2 - a), from
    the (g0^2 - a)*sigma2_x term of its variance, and with ox << g0^2 the
    outer weight peaks with width ox; the quadratic map (weight factor 2u)
    makes both smooth in u.

    The inner semi-infinite integral, over t, is one Gauss-Legendre rule in
    v = ln t per outer node.  Its exponents -1/(t*oy) - a*(a + c1)*t/oz are
    -A/t - B*t with A = 1/oy, B = a*(a + c1)/oz, i.e.
    -2*sqrt(AB)*cosh(v - v*) with the peak at v* = ln(A/B)/2.  The rule
    spans the window where they stay within psi of their maximum,
        |v - v*| <= arccosh(1 + psi/(2*sqrt(AB))).
    With the two e^-psi cuts far apart (s = sqrt(AB) << psi) it is about
    t in [A/(psi + 2s), (psi + 2s)/B], the cuts t >= 1/(psi*oy) and
    t <= psi*oz/(a*(a + c1)) themselves.  Where they merge (deep outage) it
    narrows around the merged peak t* = sqrt(A/B) instead of cutting it off.

    The integrand is evaluated in e = e^(v - v*) = t/t*: with
    k = sqrt(AB) and t* = 1/(oy*k) the exponents are -k(e + 1/e), and the
    variance times the squared rational factor is a quartic in e with
    nonnegative coefficients (_af_rate_quartic), computed once per outer
    node.  The window is symmetric about v*, and so is the Legendre rule,
    so its nodes v - v* = +-half*x pair e with 1/e, which share the
    exponent.  The grid holds only e = exp(half*x) >= 1, x >= 0, and
    _af_rate_kernel returns the pair's sum: two Horner passes, over q and
    its reversed quartic, two sqrts and one exp per pair of inner nodes.
    The separable factors are folded into the weights:
    dt/t^2 = (oy*k) dv/e, so each outer node carries half*oy*k and
    exp(-(g0^2 - a)/ox - a*(1/oy + 1/oz)), which absorbs the
    exp(-g0^2/ox) prefactor.  Every exponent is <= 0, so deep outage
    underflows towards 0 instead of overflowing.

    A block is one outer panel with the inner rules of its nodes.
    numerics.refine_blocks raises the orders of each block separately, the
    outer and inner order together (8 outer nodes per panel with 48 inner
    nodes each, up to 96 with 512; _AF_RATE_ORDERS), only while its error
    estimate (the change from its previous orders) still counts against
    tol times the total.  The opening round evaluates both opening order
    pairs of every block on one grid, shape (blocks, 8 + 12, 32): the
    nonnegative halves of the inner rules, the 24 of the 48-node rule
    padded with zero weights (_af_rate_rules).
    """
    _require_mobility(scenario)
    g = scenario.gains
    ld, th = scenario.derived
    g0sq = th.g0**2
    if g0sq == 0.0:
        return 0.0
    ox, oy, oz = g.omega_x, g.omega_y, g.omega_z
    args = (g0sq, th.c1, ld.sigma2_x, ld.sigma2_y, ld.sigma2_z, oy, oz)
    a_edges, _ = _outer_panels(scenario)

    def values(orders, idx: np.ndarray) -> list:
        xo, wo, xi, wi, starts = _af_rate_rules(orders)
        a, wa = _outer_nodes(a_edges, idx, xo, wo)
        wa *= np.exp(-(g0sq - a) / ox - a * (1.0 / oy + 1.0 / oz))
        k, q = _af_rate_quartic(a, *args)
        half = np.arccosh(1.0 + 0.5 * _PSI / k)
        wa *= half * oy * k
        # x >= 0, so e >= 1; the kernel adds each node's mirror 1/e
        e = half * xi
        np.exp(e, out=e)
        kern = _af_rate_kernel(e, np.reciprocal(e), k, q)
        return [
            np.einsum("bi,bi->b", wa[:, s : s + m, 0], kern[:, s : s + m] @ w)
            for (m, _), s, w in zip(orders, starts, wi)
        ]

    total = refine_blocks(values, a_edges.size - 1, _AF_RATE_ORDERS, tol, "AF outage rate integral")
    return math.sqrt(2.0 / math.pi) / (ox * oy * oz) * total


# ---------------------------------------------------------------------------
# DF relaying


def prob_u_exceeds(g0: float, omega_x: float, omega_z: float) -> float:
    """Pr{sqrt(X^2 + Z^2) > g0} for independent Rayleigh X, Z.

    (ox e^{-g0^2/ox} - oz e^{-g0^2/oz}) / (ox - oz), or, where the gains
    agree within _EQUAL_BRANCH_TOL, the same value as
    e^{-g0^2/o}(1 + (g0^2/o) exprel(-g0^2 |ox - oz|/(ox oz))) with
    o = max(ox, oz): exact at every gap, the equal-gain limit at ox == oz.
    A NaN or infinite argument, g0 < 0 or a gain <= 0 raise ValueError.
    """
    if not (0.0 <= g0 < math.inf and 0.0 < omega_x < math.inf and 0.0 < omega_z < math.inf):
        raise _domain_error(g0=g0, omega_x=omega_x, omega_z=omega_z)
    g0sq = g0 * g0
    if _equalish(omega_x, omega_z):
        hi = max(omega_x, omega_z)
        return math.exp(-g0sq / hi) * (1.0 + g0sq / hi * _exprel(-g0sq * abs(omega_x - omega_z) / (omega_x * omega_z)))
    return (
        omega_x * math.exp(-g0sq / omega_x) - omega_z * math.exp(-g0sq / omega_z)
    ) / (omega_x - omega_z)


def _k32(w: float) -> float:
    """Kernel K of lcr_u's closed form, overflow free.

    For w > 0 it is e^w Gamma(3/2, w) = (sqrt(pi)/2) erfcx(sqrt(w)) + sqrt(w).
    For w < 0 it is D(sqrt(-w)) - sqrt(-w) with Dawson's integral D, since
    int sqrt(u) e^u du = e^u (sqrt(u) - D(sqrt(u))).  The branch follows the
    sign bit, so lcr_u's K(lambda sigma2) at a static link, where
    lambda * 0.0 is +0.0 or -0.0 with the sign of lambda, takes the same
    branch as the moving link's K.
    """
    if math.copysign(1.0, w) > 0.0:
        return 0.5 * math.sqrt(math.pi) * float(_sp.erfcx(math.sqrt(w))) + math.sqrt(w)
    return float(_sp.dawsn(math.sqrt(-w))) - math.sqrt(-w)


# lcr_u's fixed rule on [0, 1], (node, weight) pairs as Python floats (a
# loop over numpy scalars is 2x slower): 10 Gauss-Legendre nodes integrate
# its entire integrand within 6.5e-16 where the exponent spans at most 1,
# static links included; 9 nodes over a span of 1.5 are 6.3e-13 off (error
# bound: Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed.,
# 1984, sec. 2.7)
_LCR_NODES, _LCR_WEIGHTS = _legendre_base(10)
_LCR_RULE = tuple(zip((0.5 * _LCR_NODES + 0.5).tolist(), (0.5 * _LCR_WEIGHTS).tolist()))
# beyond |w| = e^40, _k32(w) is sign(w) sqrt|w| to a relative 1/(2|w|) < 3e-18
_K32_LOG_FLAT = 40.0


def _lcr_rule(sa: float, sb: float, d: float) -> float:
    """lcr_u's Jh = 2/(sa + sb) int_0^1 r^2 e^{-d v(u)} du on _LCR_RULE, from link a's end.

    r = sa + (sb - sa) u and v = u (sa + r)/(sa + sb), where 0 <= d <= 1.
    """
    ds, k = sb - sa, d / (sa + sb)
    total = 0.0
    for u, w in _LCR_RULE:
        r = sa + ds * u
        total += w * r * r * math.exp(-k * u * (sa + r))
    return 2.0 / (sa + sb) * total


def _lcr_log_tail(s2a: float, s2b: float, d: float, log_d: float) -> float:
    """log Jh of lcr_u's closed form where that form leaves the float range.

    Link a has the smaller c, d = cb - ca > 1 and log_d = log d.  With
    q = (sb^2 - sa^2)/d,
        Jh = int_0^d sqrt(sa^2 + t q) e^{-t} dt / d = (|Ma| - e^{-d} |Mb|) / d,
    where M(s) = sqrt|q| _k32(s^2/q) is the tail of the link with derivative
    deviation s (lcr_u's closed form with lambda = 1/q), taken as s itself
    where |s^2/q| > e^40 and q may underflow.  A static link a has
    Ma = sqrt(q) _k32(+0.0); an Mb that rounds to 0 (a static link b, or
    q < 0 with |sb^2/q| so small that D(x) - x cancels) drops out, as its
    true value is below the rounding of |Ma|.  Equal variances (q = 0)
    take the limit sa (1 - e^{-d})/d exactly.
    """
    gap = s2b - s2a
    log_q = math.log(abs(gap)) - log_d if gap else -math.inf

    def log_m(s2: float) -> float:
        log_w = math.log(s2) - log_q if s2 else -math.inf
        if log_w > _K32_LOG_FLAT:
            return 0.5 * math.log(s2)
        k = abs(_k32(math.copysign(math.exp(log_w), gap)))
        return 0.5 * log_q + math.log(k) if k else -math.inf

    log_a = log_m(s2a)
    return log_a - log_d + math.log1p(-math.exp(log_m(s2b) - d - log_a))


def lcr_u(g0: float, omega_x: float, omega_z: float, sigma2_x: float, sigma2_z: float) -> float:
    """Downward level-crossing rate (Hz) of U(t) = sqrt(X^2(t) + Z^2(t)).

    X and Z are independent Rayleigh processes with mean squares omega_x,
    omega_z and gain-derivative variances sigma2_x, sigma2_z.  With
    c = (g0/omega) g0 per link, link a the one of smaller c (on a tie, of
    smaller variance), b the other, sa, sb the square roots of their
    variances and d = cb - ca >= 0, the rate is
    sqrt(2/pi) g0 (g0/ox)(g0/oz) e^{-ca} Jh, where g0^2 splits between the
    two links as (1 - v, v) in
        Jh = e^{ca} J = int_0^1 sqrt((1 - v) sa^2 + v sb^2) e^{-v d} dv.
    With r = sa + (sb - sa) u, so that v = u (sa + r)/(sa + sb),
        Jh = 2/(sa + sb) int_0^1 r^2 e^{-d v(u)} du,
    a quadratic times the exp of a quadratic: symmetric in the links, exact
    at sa = sb, smooth for a static link and free of any difference of
    nearly equal terms.  Jh takes one of three paths:

    - sigma2_a == sigma2_b: sa exprel(-d), exact;
    - d <= 1: the u-form on the fixed 10-node rule _LCR_RULE;
    - otherwise, with lambda = d/(sb^2 - sa^2) and K = _k32,
      [K(lambda sa^2) - e^{-d} K(lambda sb^2)] / ((sb^2 - sa^2) |lambda|^{3/2}).
      Its two terms are the integrand's tails from each end of the
      interval, which spans an exponent gap above 1, so the interval
      holds more than 1 - e^{-1} of the larger tail and the difference
      does not cancel at any variance gap.  A static link enters as
      lambda * 0.0, whose sign bit _k32 reads.

    The rate is assembled in linear scale where ca <= _EXP_NORMAL (e^{-ca}
    is a normal float) and g0/ox, g0/oz and every partial product are
    normal floats.  Elsewhere it is one exp of the sum of the factors'
    logs, so neither a subnormal e^{-ca} nor an extreme g0/omega or Jh
    costs digits, and a rate that underflows gives 0, not inf * 0.  There
    log Jh is the log of Jh itself or, where the closed form leaves the
    float range (d = inf, an overflowing lambda or |lambda|^{3/2}),
    _lcr_log_tail's, with log d taken from the gains where d overflows.  A subnormal g0^2 is never formed.  g0 = 0,
    two static links or two overflowing c give 0.  Swapping the links
    returns the same float.
    A NaN or infinite argument, g0 < 0, a gain <= 0 or a variance < 0
    raise ValueError.
    """
    if not (0.0 <= g0 < math.inf and 0.0 < omega_x < math.inf and 0.0 < omega_z < math.inf
            and 0.0 <= sigma2_x < math.inf and 0.0 <= sigma2_z < math.inf):
        raise _domain_error(g0=g0, omega_x=omega_x, omega_z=omega_z, sigma2_x=sigma2_x, sigma2_z=sigma2_z)
    fx, fz = g0 / omega_x, g0 / omega_z
    cx, cz = fx * g0, fz * g0
    if cz < cx or cz == cx and sigma2_z < sigma2_x:
        ca, cb, oa, ob, s2a, s2b = cz, cx, omega_z, omega_x, sigma2_z, sigma2_x
    else:
        ca, cb, oa, ob, s2a, s2b = cx, cz, omega_x, omega_z, sigma2_x, sigma2_z
    if g0 == 0.0 or s2a + s2b == 0.0 or ca == math.inf:
        return 0.0
    d = cb - ca
    sa = math.sqrt(s2a)
    if s2a == s2b:
        jh = sa * _exprel(-d)
    elif d <= 1.0:
        jh = _lcr_rule(sa, math.sqrt(s2b), d)
    else:
        gap = s2b - s2a
        lam = d / gap
        try:
            jh = (_k32(lam * s2a) - math.exp(-d) * _k32(lam * s2b)) / (gap * abs(lam) ** 1.5)
        except (OverflowError, ZeroDivisionError):
            jh = math.nan
    # the plain product where every factor and partial product is a normal
    # float, so each step rounds once; e^{-ca} and sqrt(2/pi) are <= 1 and
    # come last, so a normal nu bounds the partial products they make
    scale = fx * fz
    part = scale * jh
    nu = part * g0 * math.exp(-ca) * math.sqrt(2.0 / math.pi)
    if (ca <= _EXP_NORMAL and _TINY <= fx and _TINY <= fz and _TINY <= scale and _TINY <= part
            and _TINY <= nu < math.inf):
        return nu
    if _TINY <= jh < math.inf:
        log_jh = math.log(jh)
    else:
        log_d = math.log(d) if d < math.inf else 2.0 * math.log(g0) - math.log(ob) + math.log1p(-ob / oa)
        log_jh = _lcr_log_tail(s2a, s2b, d, log_d)
    log_scale = 3.0 * math.log(g0) - (math.log(omega_x) + math.log(omega_z))
    return math.exp(0.5 * math.log(2.0 / math.pi) + log_scale - ca + log_jh)


@scenario_term
def _u_exceeds(scenario: Scenario) -> float:
    """Pr{U > g0} of the scenario: prob_u_exceeds, once per Scenario instance."""
    g = scenario.gains
    return prob_u_exceeds(scenario.derived[1].g0, g.omega_x, g.omega_z)


@scenario_term
def _u_lcr(scenario: Scenario) -> float:
    """U's downward crossing rate (Hz) at g0: lcr_u, once per Scenario instance.

    Only the outage rates ask for it, so an OP-only call never computes it.
    """
    g = scenario.gains
    ld, th = scenario.derived
    return lcr_u(th.g0, g.omega_x, g.omega_z, ld.sigma2_x, ld.sigma2_z)


def op_df(scenario: Scenario) -> float:
    """Outage probability of DF relaying (repetition coding, full decoding)."""
    g = scenario.gains
    _, th = scenario.derived
    g0sq = th.g0**2
    return 1.0 - math.exp(-g0sq / g.omega_y) * _u_exceeds(scenario)


def aor_df(scenario: Scenario) -> float:
    """Average outage rate (Hz) of DF relaying."""
    _require_mobility(scenario)
    g = scenario.gains
    ld, th = scenario.derived
    n_y = rayleigh_lcr(th.g0, g.omega_y, ld.sigma2_y)
    p_y = math.exp(-th.g0**2 / g.omega_y)
    return n_y * _u_exceeds(scenario) + _u_lcr(scenario) * p_y


# ---------------------------------------------------------------------------
# selection DF relaying


def sr_switch_probs(g0: float, omega_x: float, omega_z: float) -> tuple[float, float]:
    """Joint probabilities of the two relay-switching crossing events.

    Returns (Pr{sqrt(2) X > g0 and U < g0}, Pr{sqrt(2) X < g0 and U > g0})
    for independent Rayleigh X, Z with U = sqrt(X^2 + Z^2).

    With u = (g0/ox) g0/2, z = (g0/oz) g0/2 (half of lcr_u's c, so a
    subnormal g0^2 is never formed) and exp's divided difference
    d = u _exp_dd(-u, -z), each is one term at every pair of gains:
    p4 = e^{-z} d, and p3 = e^{-u} (-expm1(-u) - d), clamped at 0 against
    rounding.  Only at omega_x == omega_z exactly does p3 take
    e^{-u} P(2, u), with the regularized lower gamma P: there the
    difference cancels as u -> 0.  Elsewhere p3 keeps about 2e-16/z
    relative as z -> 0.  Where u overflows, the pair is its limit
    (0, e^{-2z}), (0, 0) when z overflows too.  A NaN or infinite
    argument, g0 < 0 or a gain <= 0 raise ValueError.
    """
    if not (0.0 <= g0 < math.inf and 0.0 < omega_x < math.inf and 0.0 < omega_z < math.inf):
        raise _domain_error(g0=g0, omega_x=omega_x, omega_z=omega_z)
    u = g0 / omega_x * g0 / 2.0
    z = g0 / omega_z * g0 / 2.0
    if u == math.inf:
        return 0.0, math.exp(-2.0 * z)
    d = u * _exp_dd(-u, -z)
    # at omega_x == omega_z, -expm1(-u) - d is P(2, u), regularized lower gamma, free of its cancellation
    p3 = float(_sp.gammainc(2.0, u)) if omega_x == omega_z else max(-math.expm1(-u) - d, 0.0)
    return math.exp(-u) * p3, math.exp(-z) * d


def op_sr(scenario: Scenario) -> float:
    """Outage probability of selection DF relaying."""
    g = scenario.gains
    _, th = scenario.derived
    g0sq = th.g0**2
    p_y_le = -math.expm1(-th.y0**2 / g.omega_y)
    p_2x_le = -math.expm1(-g0sq / (2.0 * g.omega_x))
    p_u_le = 1.0 - _u_exceeds(scenario)
    return p_2x_le * p_y_le + p_u_le * math.exp(-th.y0**2 / g.omega_y)


def aor_sr(scenario: Scenario) -> float:
    """Average outage rate (Hz) of selection DF relaying.

    Sums the four downward-crossing mechanisms: the combined direct gain
    falling through the threshold while the relay is off, the relayed gain
    falling through while it is on, and the two relay on/off switching
    events that land the equivalent gain below the threshold.
    """
    _require_mobility(scenario)
    g = scenario.gains
    ld, th = scenario.derived
    p_y_le = -math.expm1(-th.y0**2 / g.omega_y)
    p_y_gt = math.exp(-th.y0**2 / g.omega_y)  # not 1 - p_y_le, which rounds to 0 below 1.1e-16
    n_2x = rayleigh_lcr(th.g0 / math.sqrt(2.0), g.omega_x, ld.sigma2_x)
    n_y = rayleigh_lcr(th.y0, g.omega_y, ld.sigma2_y)
    p3, p4 = sr_switch_probs(th.g0, g.omega_x, g.omega_z)
    return n_2x * p_y_le + _u_lcr(scenario) * p_y_gt + n_y * (p3 + p4)


# ---------------------------------------------------------------------------
# protocols


class Protocol(Enum):
    """Transmission scheme, with every exact fact about it as member data.

    Each member is built from (token, diversity_gain, level, op, aor) and
    keeps them as plain attributes, set once in __new__: token, the CLI /
    CSV token (also the member's value, so Protocol("sr") is Protocol.SR);
    diversity_gain, the high-SNR decay order d of its outage probability;
    level(th), the outage threshold of its equivalent gain, th.x0 for
    direct and th.g0 otherwise; and op(scenario) and aor(scenario), its
    exact outage probability and rate.  The scalar metrics read these
    instead of comparing members, which keeps enum property and
    class-attribute lookups off their call path.
    """

    DIRECT = ("direct", 1, "x0", op_direct, aor_direct)
    AF = ("af", 2, "g0", op_af, aor_af)
    DF = ("df", 1, "g0", op_df, aor_df)
    SR = ("sr", 2, "g0", op_sr, aor_sr)

    def __new__(cls, token: str, diversity_gain: int, level: str, op, aor):
        member = object.__new__(cls)
        member._value_ = token
        member.token = token
        member.diversity_gain = diversity_gain
        member.level = attrgetter(level)
        member.op = op
        member.aor = aor
        return member


def metrics(scenario: Scenario, protocol: Protocol) -> OutageMetrics:
    """Exact OP, AOR and AOD for one protocol at one operating point.

    Raises OverflowError when the rate is so small (subnormal) that
    AOD = OP/AOR exceeds the float range, where OP = AOR*AOD cannot hold.
    """
    p_out = protocol.op(scenario)
    aor = protocol.aor(scenario)
    aod = p_out / aor if aor > 0.0 else None
    if aod == math.inf:
        raise OverflowError(f"{protocol.token}: outage duration OP/AOR overflows at AOR {aor:.6g} Hz")
    return OutageMetrics(p_out=p_out, aor=aor, aod=aod)
