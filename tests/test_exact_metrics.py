"""Exact OP/AOR/AOD expressions against closed anchors, oracles, and each other."""

import dataclasses
import itertools
import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopoutage import exact_metrics
from coopoutage.asym_metrics import asym
from coopoutage.channel import LinkGains, MobilityError, NodeDopplers, Scenario, derive, rayleigh_lcr
from coopoutage.exact_metrics import (
    Protocol,
    aor_af,
    aor_df,
    aor_direct,
    aor_sr,
    lcr_u,
    metrics,
    op_af,
    op_df,
    op_direct,
    op_sr,
    prob_u_exceeds,
    sr_switch_probs,
)
from coopoutage.numerics import _legendre_base, gauss_legendre

# Monte Carlo pins (independent oracles, frozen):
# - static sampling of the AF equivalent gain, 6e7 iid Rayleigh triples
#   (numpy default_rng(20240)); tolerance 5 standard errors
OP_AF_10DB_MC = 1.21539500e-02
OP_AF_10DB_MC_TOL = 5 * 1.41e-06
OP_AF_0DB_MC = 5.23142917e-01
OP_AF_0DB_MC_TOL = 5 * 6.45e-05
# - sum-of-sinusoids trace oracle (64 rays, 4 x 1e7 samples, seed 555):
#   downward-crossing rates of the composed equivalent gains at 10 dB
#   (tolerance: ~0.4% counting noise plus a few percent ray-count bias)
AOR_AF_10DB_MC = 2.294368e-01
AOR_AF_10DB_MC_TOL = 0.03
AOR_SR_10DB_MC = 2.022848e-01
AOR_SR_10DB_MC_TOL = 0.06


def make_scenario(gamma0=100.0, r0=0.5, omegas=(1.0, 1.0, 1.0), dopplers=(1.0, 1.0, 1.0), y0=None):
    return Scenario(
        gamma0=gamma0,
        r0=r0,
        gains=LinkGains(*omegas),
        dopplers=NodeDopplers(*dopplers),
        y0=y0,
    )


def lcr_u_quadrature_oracle(g0, ox, oz, s2x, s2z, order=3000):
    """Independent oracle: the crossing rate of sqrt(X^2 + Z^2) reduced to a
    single integral over the conditioning gain, evaluated by brute quadrature."""
    rule = gauss_legendre(order, 0.0, g0)
    z = rule.nodes
    f = z * np.sqrt(g0 * g0 * s2x + z * z * (s2z - s2x)) * np.exp(-z * z * (1.0 / oz - 1.0 / ox))
    return (
        4.0
        / (math.sqrt(2.0 * math.pi) * ox * oz)
        * math.exp(-g0 * g0 / ox)
        * float(np.sum(rule.weights * f))
    )


def switch_sum_reference(g0, ox, oz):
    """p3 + p4 of sr_switch_probs in 60-digit decimal arithmetic, at the same doubles.

    With u = g0^2/(2 ox) and z = g0^2/(2 oz) the two closed forms sum to
    e^-u - e^-2u - u (e^-u - e^-z)^2 / (z - u), and to e^-u - e^-2u at u = z.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        g0sq = Decimal(g0) ** 2
        u, z = g0sq / (2 * Decimal(ox)), g0sq / (2 * Decimal(oz))
        eu = (-u).exp()
        total = eu - eu * eu
        if u != z:
            total -= u * (eu - (-z).exp()) ** 2 / (z - u)
        return total


# the four link shapes of the SNR sweep: gains, r0, node Dopplers
SWEEP_SHAPES = {
    "symmetric": ((1.0, 1.0, 1.0), 0.5, (1.0, 1.0, 1.0)),
    "strong_sr": ((1.0, 100.0, 1.0), 0.25, (2.0, 0.3, 1.0)),
    "strong_rd": ((1.0, 1.0, 100.0), 1.0, (2.0, 1.0, 0.0)),
    "weak_sd": ((0.1, 1.0, 1.0), 2.0, (0.5, 1.0, 2.0)),
}


def sweep_scenario(shape, snr_db):
    omegas, r0, dopplers = SWEEP_SHAPES[shape]
    return make_scenario(gamma0=10.0 ** (snr_db / 10.0), r0=r0, omegas=omegas, dopplers=dopplers)


def af_rate_grid(scenario, m):
    """Decade-panel Gauss-Legendre rules of order m in a and in t, flattened.

    The outer panels run over [1e-10 g0^2, g0^2], the inner ones between
    the e^-psi cuts t >= 1/(psi*oy) and t <= psi*oz/(a(a + c1)) at
    a = 1e-10 g0^2, one tensor grid for every outer node.  Plain
    Gauss-Legendre on every panel, with no top-panel map.
    """
    _, th = derive(scenario)
    g = scenario.gains
    g0sq, psi = th.g0**2, exact_metrics._PSI
    a_head = 1e-10 * g0sq
    t_hi = psi * g.omega_z / (a_head * (a_head + th.c1))
    return (*decade_rule(a_head, g0sq, m), *decade_rule(1.0 / (psi * g.omega_y), t_hi, m))


def decade_rule(lo, hi, m):
    """Gauss-Legendre rules of order m on the decade panels of [lo, hi], flattened."""
    edges = exact_metrics._decade_edges(lo, hi)
    rules = [gauss_legendre(m, left, right) for left, right in zip(edges, edges[1:])]
    return np.concatenate([r.nodes for r in rules]), np.concatenate([r.weights for r in rules])


def af_rate_integrand(scenario, a, t):
    """The unfolded AF rate integrand at outer node a and inner nodes t, per dt.

    Every exponential sits in one exponent (the exp(-g0^2/ox) prefactor too)
    and the variance is built by divisions; the constant
    sqrt(2/pi)/(ox oy oz) is left out.
    """
    g = scenario.gains
    ld, th = derive(scenario)
    g0sq, c1 = th.g0**2, th.c1
    ox, oy, oz = g.omega_x, g.omega_y, g.omega_z
    at1 = a * t + 1.0
    act1 = at1 + c1 * t
    svar = (
        (g0sq - a) * ld.sigma2_x
        + a**2 * t**3 * (a + c1) ** 2 / (at1 * act1**2) * ld.sigma2_y
        + a / (at1**2 * act1) * ld.sigma2_z
    )
    expo = -(g0sq - a) / ox - a * (1.0 / oy + 1.0 / oz) - a * (a + c1) * t / oz - 1.0 / (t * oy)
    return np.sqrt(svar) * at1 * act1 / t**2 * np.exp(expo)


def af_rate_node_sum(scenario, m):
    """Reference AF outage rate: the unfolded integrand, one outer node at a time.

    The full tensor grid of af_rate_integrand is summed.  It keeps
    af_rate_grid's cut t >= 1/(psi*oy), so it misses the merged inner peak
    at deep outage; af_rate_brute has no cut.
    """
    g = scenario.gains
    a, wa, t, wt = af_rate_grid(scenario, m)
    total = sum(wai * float(af_rate_integrand(scenario, ai, t) @ wt) for ai, wai in zip(a, wa))
    return math.sqrt(2.0 / math.pi) / (g.omega_x * g.omega_y * g.omega_z) * total


def af_rate_brute(scenario, n=1000):
    """Independent AF outage rate with no e^-psi cut and no a cut.

    A trapezoid sum over the whole (z, v) plane, with a = g0^2/(1 + e^-z)
    (so g0^2 - a = g0^2/(1 + e^z) is exact near the top) and t = e^v.  Both
    maps send the integration range onto the real line, where the integrand
    times its Jacobians a(g0^2 - a)/g0^2 and t decays at least exponentially,
    so the trapezoid rule converges geometrically (Trefethen & Weideman,
    SIAM Rev. 56, 2014).  A 0.1-step scan over z in [-40, 40] and
    v in [-130, 130] finds the box where the log-integrand is within 100 of
    its maximum; an n x n grid on that box, widened by 3 scan steps, gives
    the sum.  Every factor stays in one log-domain exponent, summed as
    exp(L - max L), so rates far below the range of the separate
    exponentials come out right.
    """
    g = scenario.gains
    ld, th = derive(scenario)
    g0sq, c1 = th.g0**2, th.c1
    ox, oy, oz = g.omega_x, g.omega_y, g.omega_z

    def log_f(z, v):
        a = g0sq / (1.0 + np.exp(-z))
        d = g0sq / (1.0 + np.exp(z))
        t = np.exp(v)
        at1 = a * t + 1.0
        act1 = at1 + c1 * t
        svar = (
            d * ld.sigma2_x
            + a**2 * t**3 * (a + c1) ** 2 / (at1 * act1**2) * ld.sigma2_y
            + a / (at1**2 * act1) * ld.sigma2_z
        )
        expo = -d / ox - a * (1.0 / oy + 1.0 / oz) - a * (a + c1) * t / oz - 1.0 / (t * oy)
        return 0.5 * np.log(svar) + np.log(at1 * act1) - v + np.log(a * d / g0sq) + expo

    def grid(zs, vs):
        return np.vstack([log_f(z, vs) for z in zs])

    z_scan = np.linspace(-40.0, 40.0, 801)
    v_scan = np.linspace(-130.0, 130.0, 2601)
    keep = grid(z_scan, v_scan)
    keep = keep >= keep.max() - 100.0
    iz = np.flatnonzero(keep.any(axis=1))
    iv = np.flatnonzero(keep.any(axis=0))
    zs = np.linspace(z_scan[max(iz[0] - 3, 0)], z_scan[min(iz[-1] + 3, 800)], n)
    vs = np.linspace(v_scan[max(iv[0] - 3, 0)], v_scan[min(iv[-1] + 3, 2600)], n)
    lf = grid(zs, vs)
    top = lf.max()
    log_sum = top + math.log(np.exp(lf - top).sum() * (zs[1] - zs[0]) * (vs[1] - vs[0]))
    return math.sqrt(2.0 / math.pi) / (ox * oy * oz) * math.exp(log_sum)


class TestDirect:
    def test_zero_rate_means_no_outage(self):
        assert op_direct(make_scenario(r0=0.0)) == 0.0
        assert aor_direct(make_scenario(r0=0.0)) == 0.0

    def test_reference_point(self):
        got = op_direct(make_scenario())
        assert got == pytest.approx(1.0 - math.exp(-(math.sqrt(2.0) - 1.0) / 100.0), rel=1e-14)
        assert got == pytest.approx(4.1336e-3, rel=1e-4)

    def test_depends_only_on_received_snr(self):
        base = op_direct(make_scenario(gamma0=100.0, omegas=(1.0, 1.0, 1.0)))
        for c in (0.2, 3.0, 42.0):
            assert op_direct(
                make_scenario(gamma0=100.0 / c, omegas=(c, 1.0, 1.0))
            ) == pytest.approx(base, rel=1e-12)

    def test_rate_reference_point(self):
        inv2 = 1.0 / math.sqrt(2.0)
        sc = make_scenario(dopplers=(inv2, 0.0, inv2))  # composite S->D Doppler of 1 Hz
        assert aor_direct(sc) == pytest.approx(0.160658, abs=2e-6)

    def test_doubling_dopplers_doubles_rate(self):
        sc1 = make_scenario(dopplers=(0.3, 0.9, 1.4))
        sc2 = make_scenario(dopplers=(0.6, 1.8, 2.8))
        assert aor_direct(sc2) == pytest.approx(2.0 * aor_direct(sc1), rel=1e-12)

    def test_static_network_rejected(self):
        with pytest.raises(MobilityError):
            aor_direct(make_scenario(dopplers=(0.0, 0.0, 0.0)))


class TestAfOutageProbability:
    def test_zero_rate(self):
        assert op_af(make_scenario(r0=0.0)) == 0.0

    def test_high_snr_matches_second_order_decay(self):
        # symmetric unit gains at 40 dB: limit value (oy+oz)/(2 ox oy oz) * g0^4 = 1e-8
        assert op_af(make_scenario(gamma0=1e4)) == pytest.approx(1e-8, rel=0.03)

    def test_against_static_mc_oracle_10db(self):
        assert abs(op_af(make_scenario(gamma0=10.0)) - OP_AF_10DB_MC) < OP_AF_10DB_MC_TOL

    def test_against_static_mc_oracle_0db(self):
        assert abs(op_af(make_scenario(gamma0=1.0)) - OP_AF_0DB_MC) < OP_AF_0DB_MC_TOL

    def test_at_most_one_at_deep_outage(self):
        # domain-grid edge point where the unclipped outer sum gave 1 + 2e-14
        sc = make_scenario(
            gamma0=10.0 ** (-2.94314881589456 / 10.0),
            r0=4.488313364971638,
            omegas=(0.30226225762506764, 7.6044046413161075, 9.107822993690235),
            dopplers=(0.0, 0.7455552876850151, 0.6049799808074553),
        )
        assert 0.0 <= op_af(sc) <= 1.0

    def test_high_snr_matches_asymptote(self):
        # 100 dB: the relayed-path CDF is ~1e-11 at every node; 1 - x K1(x)
        # from its series keeps it free of cancellation
        sc = Scenario(1e10, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = op_af(sc)
            ref = asym(sc, Protocol.AF).p_out
        assert got == pytest.approx(ref, rel=1e-7, abs=0.0)

    def test_certain_outage_at_low_snr(self):
        # -30 dB, r0 = 8: the outer density is a width-1 peak at a = g0^2 ~ 6.6e7
        assert op_af(Scenario(1e-3, 8.0, gains=LinkGains(1.0, 0.01, 0.01))) == 1.0

    # op_af by adaptive QUADPACK over the relayed-path level a (epsrel
    # 1e-13, geometric breakpoints toward a = 0 and a = g0^2), keyed by
    # (SNR dB, r0, (ox, oy, oz)): the 11 declared-grid points and five
    # random-domain points where ox is far above the relayed-path scale,
    # so the relayed-path CDF rises within a sliver of the outer range,
    # which one Legendre rule over the whole range misses
    OP_AF_QUADPACK = {
        (-30.0, 0.1, (100.0, 0.01, 1.0)): 7.7394647019e-01,
        (-30.0, 0.1, (100.0, 0.01, 100.0)): 7.7394458561e-01,
        (-30.0, 0.1, (100.0, 1.0, 0.01)): 7.7394647019e-01,
        (-30.0, 0.1, (100.0, 1.0, 1.0)): 7.7394424116e-01,
        (-30.0, 0.1, (100.0, 100.0, 0.01)): 7.7394458561e-01,
        (-10.0, 0.1, (1.0, 0.01, 0.01)): 7.7394424116e-01,
        (-10.0, 0.1, (100.0, 0.01, 0.01)): 1.4759727316e-02,
        (-10.0, 1.0, (100.0, 0.01, 0.01)): 2.5918170553e-01,
        (-10.0, 1.0, (100.0, 0.01, 1.0)): 2.5917553983e-01,
        (-10.0, 1.0, (100.0, 1.0, 0.01)): 2.5917553983e-01,
        (30.0, 8.0, (100.0, 0.01, 0.01)): 4.8072319749e-01,
        (-11.933811068957645, 0.1559231495059145, (3.3849920294542857, 0.3852287181439077, 0.014252278551283689)): 6.7129216862e-01,
        (-4.079904094418367, 1.447306597321933, (15.196746816117223, 0.018517215510040062, 0.2655837963879259)): 6.6160359123e-01,
        (-6.4878142246866375, 0.7144000359616033, (4.203947466938251, 0.053211627810189906, 0.0621519132157302)): 8.3351368742e-01,
        (-8.224904728709063, 0.2888326797309668, (55.00473780952675, 0.0285665403414873, 0.03653499372800564)): 5.7751478004e-02,
        (3.1959360063256383, 1.4431043189584656, (9.02208844819146, 0.012154644779619065, 0.014042780020833995)): 2.8783783053e-01,
    }

    @pytest.mark.parametrize("key", list(OP_AF_QUADPACK))
    def test_matches_quadpack(self, key):
        db, r0, omegas = key
        got = op_af(make_scenario(gamma0=10.0 ** (db / 10.0), r0=r0, omegas=omegas))
        assert got == pytest.approx(self.OP_AF_QUADPACK[key], rel=1e-9, abs=0.0)

    def test_nonincreasing_in_each_gain(self):
        for slot in range(3):
            prev = None
            for scale in (0.5, 1.0, 2.0, 4.0, 16.0):
                om = [1.0, 1.0, 1.0]
                om[slot] = scale
                cur = op_af(make_scenario(gamma0=10.0, omegas=tuple(om)))
                if prev is not None:
                    assert cur <= prev * (1.0 + 1e-9)
                prev = cur


class TestAfOutageRate:
    def test_zero_rate(self):
        assert aor_af(make_scenario(r0=0.0)) == 0.0

    def test_high_snr_matches_equal_doppler_closed_form(self):
        # 4 sqrt(pi) f_m (g0^2)^{3/2} for unit gains and equal node Dopplers
        got = aor_af(make_scenario(gamma0=1e4))
        assert got == pytest.approx(4.0 * math.sqrt(math.pi) * 1e-6, rel=0.05)

    def test_against_trace_mc_oracle_10db(self):
        got = aor_af(make_scenario(gamma0=10.0))
        assert got == pytest.approx(AOR_AF_10DB_MC, rel=AOR_AF_10DB_MC_TOL)

    def test_static_network_rejected(self):
        with pytest.raises(MobilityError):
            aor_af(make_scenario(dopplers=(0.0, 0.0, 0.0)))

    def test_empty_inner_range_gives_zero_rate(self):
        # -30 dB, r0 = 8: every outer weight underflows, as the outer factor
        # alone is at most exp(-g0^2/ox) ~ 10^-28461488
        assert aor_af(make_scenario(gamma0=1e-3, r0=8.0, omegas=(1.0, 0.01, 0.01))) == 0.0

    @pytest.mark.parametrize("m", [8, 16, 32])
    @pytest.mark.parametrize("snr_db", [4.0, 40.0, 76.0])
    @pytest.mark.parametrize("shape", list(SWEEP_SHAPES))
    def test_kernel_with_folded_weights_matches_node_sum(self, shape, snr_db, m):
        # full tensor grid, no inner cut: only the folding and the kernel differ.
        # The kernel sums a mirrored pair in ln t, t and t*^2/t, so the
        # reference takes the integrand per dv = dt/t at both, with t's weight
        sc = sweep_scenario(shape, snr_db)
        ld, th = derive(sc)
        g = sc.gains
        g0sq, c1, ox, oy, oz = th.g0**2, th.c1, g.omega_x, g.omega_y, g.omega_z
        a, wa, t, wt = af_rate_grid(sc, m)
        k, q = exact_metrics._af_rate_quartic(a[:, None], g0sq, c1, ld.sigma2_x, ld.sigma2_y, ld.sigma2_z, oy, oz)
        # e = t/t* = t*oy*k per outer node, and dt/t^2 = oy*k * (dt/t)/e
        e = t * (oy * k)
        kern = exact_metrics._af_rate_kernel(e, 1.0 / e, k, q)
        wa_k = wa * np.exp(-(g0sq - a) / ox - a * (1.0 / oy + 1.0 / oz)) * oy * k[:, 0]
        got = math.sqrt(2.0 / math.pi) / (ox * oy * oz) * float(wa_k @ (kern @ (wt / t)))
        ref = 0.0
        for ai, wai in zip(a, wa):
            tm = oz / (oy * ai * (ai + c1)) / t  # t*^2/t
            pair = t * af_rate_integrand(sc, ai, t) + tm * af_rate_integrand(sc, ai, tm)
            ref += wai * float(pair @ (wt / t))
        ref *= math.sqrt(2.0 / math.pi) / (ox * oy * oz)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("snr_db", [4.0, 40.0, 76.0])
    @pytest.mark.parametrize("shape", list(SWEEP_SHAPES))
    def test_block_orders_meet_tolerance(self, shape, snr_db):
        # against the full order-96 grid with no inner cut and no top-panel map
        sc = sweep_scenario(shape, snr_db)
        ref = af_rate_node_sum(sc, 96)
        assert aor_af(sc) == pytest.approx(ref, rel=1e-7, abs=0.0)
        assert aor_af(sc, tol=1e-9) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_outer_peak_at_threshold(self):
        # ox = 0.01 << g0^2 = 65.5: the outer weight peaks at a = g0^2 with
        # width ox; a 5000 x 300 nodes-per-panel grid gives 0.61699762420132
        sc = Scenario(1e3, 8.0, LinkGains(0.01, 100.0, 100.0), NodeDopplers(0.3, 1.0, 0.7))
        assert aor_af(sc) == pytest.approx(0.6169976242013, rel=1e-7, abs=0.0)

    def test_deep_outage_is_finite(self):
        # weak S-D link at -10 dB, 1/ox > 1/oy + 1/oz: the unfolded exponent
        # overflows, and the merged inner peak t* lies below 1/(psi*oy);
        # af_rate_brute gives 6.2078580574591e-250 (n = 1000 and 1500 agree
        # to 1.1e-13)
        sc = Scenario(
            0.1,
            1.954389050389492,
            LinkGains(0.0983984790272646, 0.983984790272646, 0.983984790272646),
            NodeDopplers(0.0594837, 0.1158931, 0.2257270),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = aor_af(sc)
        assert got == pytest.approx(6.2078580574591e-250, rel=1e-7, abs=0.0)

    # (gamma0, r0, omegas, dopplers) where t* = sqrt(oz/(oy a(a + c1))) falls
    # below 1/(psi*oy) on the top outer panels: the weak S-D sweep
    # configuration at -6, -4 and -2 dB (snr_sweep edge rows 99-101 of seeds
    # 1 and 2 in benchmark/workloads.py), and two declared-domain points
    DEEP_OUTAGE = {
        **{
            f"weak_sd_seed1_{db}dB": (
                10.0 ** (db / 10.0),
                1.954389050389492,
                (0.0983984790272646, 0.983984790272646, 0.983984790272646),
                (0.059483714553222905, 0.1158931354535626, 0.22572700553896405),
            )
            for db in (-6, -4, -2)
        },
        **{
            f"weak_sd_seed2_{db}dB": (
                10.0 ** (db / 10.0),
                2.0606200318768924,
                (0.09754841028845238, 0.9754841028845237, 0.9754841028845237),
                (0.2554380360240806, 0.49569068232341856, 0.9704789361114676),
            )
            for db in (-6, -4, -2)
        },
        "domain_10dB_r0_8": (10.0, 8.0, (1.0, 100.0, 100.0), (0.3, 1.0, 0.7)),
        "domain_-30dB_r0_1": (1e-3, 1.0, (0.01, 100.0, 100.0), (0.3, 1.0, 0.7)),
        # oy*oz/c1 ~ 0.0089 is far below g0^2 ~ 8.05: the mass reaches below a
        # head cut at 1e-10 g0^2
        "random_deep_head": (
            0.021096867893535817,
            0.11316241355702293,
            (0.041390879984909035, 7.404851257315078, 0.05682896959991768),
            (3.4062993765566385, 0.12828070212745596, 3.711430758905131),
        ),
    }

    @pytest.mark.parametrize("name", list(DEEP_OUTAGE))
    def test_deep_outage_against_uncut_reference(self, name):
        sc = make_scenario(*self.DEEP_OUTAGE[name])
        assert aor_af(sc) == pytest.approx(af_rate_brute(sc), rel=1e-7, abs=0.0)

    # aor_af as the t-grid kernel computed it (three exps per node, the same
    # nodes, orders and tolerance): the sweep shapes at 4, 40 and 76 dB and
    # the deep-outage points above
    T_GRID_VALUES = {
        ("symmetric", 4.0): 1.1511099772653024,
        ("symmetric", 40.0): 7.096424882787154e-06,
        ("symmetric", 76.0): 2.8225077455082174e-11,
        ("strong_sr", 4.0): 0.27520745374969163,
        ("strong_sr", 40.0): 1.2352851051646453e-06,
        ("strong_sr", 76.0): 4.917674361875383e-12,
        ("strong_rd", 4.0): 2.153293181356948,
        ("strong_rd", 40.0): 2.8505933928018592e-05,
        ("strong_rd", 76.0): 1.1351165820810403e-10,
        ("weak_sd", 4.0): 4.631143209363549e-09,
        ("weak_sd", 40.0): 0.003614325487751724,
        ("weak_sd", 76.0): 1.4459979189209045e-08,
        "weak_sd_seed1_-6dB": 9.517816673632468e-99,
        "weak_sd_seed1_-4dB": 6.024755743357592e-62,
        "weak_sd_seed1_-2dB": 8.444023947603987e-39,
        "weak_sd_seed2_-6dB": 8.096238920224619e-116,
        "weak_sd_seed2_-4dB": 1.8564698770631241e-72,
        "weak_sd_seed2_-2dB": 3.5785444039767116e-45,
        "domain_10dB_r0_8": 9.848244703515951e-112,
        "domain_-30dB_r0_1": 2.4272326487313673e-54,
        "random_deep_head": 7.331555977910172e-83,
    }

    @pytest.mark.parametrize("key", list(T_GRID_VALUES))
    def test_matches_t_grid_values(self, key):
        sc = sweep_scenario(*key) if isinstance(key, tuple) else make_scenario(*self.DEEP_OUTAGE[key])
        assert aor_af(sc) == pytest.approx(self.T_GRID_VALUES[key], rel=1e-12, abs=0.0)

    def test_uncut_reference_pins(self):
        # the reference reproduces itself at a finer grid, and a value pinned
        # where aor_af used to raise ConvergenceError
        sc = make_scenario(*self.DEEP_OUTAGE["domain_-30dB_r0_1"])
        ref = af_rate_brute(sc)
        assert ref == pytest.approx(af_rate_brute(sc, n=1500), rel=1e-11, abs=0.0)
        assert ref == pytest.approx(2.42723265e-54, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("shape", list(SWEEP_SHAPES))
    def test_uncut_reference_matches_node_sum(self, shape):
        # at 40 dB the e^-psi cuts are far apart and cost nothing; the two
        # references differ only by af_rate_node_sum's dropped head
        # [0, 1e-10 g0^2] of the outer range
        sc = sweep_scenario(shape, 40.0)
        assert af_rate_brute(sc) == pytest.approx(af_rate_node_sum(sc, 96), rel=1e-9, abs=0.0)

    def test_self_convergence_below_1e8(self):
        for gamma_db in (0.0, 10.0, 20.0, 40.0):
            sc = make_scenario(gamma0=10.0 ** (gamma_db / 10.0))
            loose = aor_af(sc, tol=1e-7)
            tight = aor_af(sc, tol=1e-9)
            assert abs(loose - tight) < 1e-7 * tight
        assert abs(op_af(sc, tol=1e-8) - op_af(sc, tol=1e-11)) < 1e-8 * op_af(sc)


class TestExpDividedDifference:
    """exact_metrics._exp_dd(a, b) = (e^a - e^b)/(a - b), e^a at a = b."""

    @pytest.mark.parametrize(
        "a, b", [(-1.0, -3.0), (0.0, -1e-9), (-700.0, -0.5), (-2.5, -2.5 - 1e-12), (-1e-300, 0.0)]
    )
    def test_symmetric(self, a, b):
        assert exact_metrics._exp_dd(a, b) == exact_metrics._exp_dd(b, a)

    @pytest.mark.parametrize("a", [0.0, -1e-300, -0.5, -30.0, -700.0])
    def test_equal_arguments_give_exp(self, a):
        assert exact_metrics._exp_dd(a, a) == math.exp(a)

    @pytest.mark.parametrize("a, b", [(-0.5, -3.0), (0.0, -1.0), (-10.0, -2.0), (-1.0, -40.0), (-300.0, -1.0)])
    def test_agrees_with_the_quotient_where_it_does_not_cancel(self, a, b):
        quotient = (math.exp(a) - math.exp(b)) / (a - b)
        assert exact_metrics._exp_dd(a, b) == pytest.approx(quotient, rel=4 * 2.0**-52, abs=0.0)

    def test_finite_far_apart_and_where_it_underflows(self):
        # e^-1000 underflows, the quotient's 1/1000 does not
        assert exact_metrics._exp_dd(0.0, -1000.0) == pytest.approx(1e-3, rel=1e-15, abs=0.0)
        assert exact_metrics._exp_dd(-745.0, -745.0) == math.exp(-745.0) > 0.0


class TestAuxiliaryGainStatistics:
    def test_prob_u_exceeds_anchors(self):
        assert prob_u_exceeds(0.0, 1.0, 1.0) == 1.0
        assert prob_u_exceeds(0.1, 1.0, 1.0) == pytest.approx(
            math.exp(-0.01) * 1.01, rel=1e-14
        )
        assert prob_u_exceeds(1.0, 2.0, 1.0) == pytest.approx(
            2.0 * math.exp(-0.5) - math.exp(-1.0), rel=1e-14
        )
        assert prob_u_exceeds(1.0, 2.0, 1.0) == pytest.approx(0.845182, abs=1e-6)

    @pytest.mark.parametrize("ox,oz", [(1.0, 1.0), (2.0, 1.0), (0.3, 1.7)])
    def test_prob_u_exceeds_brute_force(self, ox, oz):
        rng = np.random.default_rng(99)
        n = 2_000_000
        x = rng.rayleigh(math.sqrt(ox / 2.0), n)
        z = rng.rayleigh(math.sqrt(oz / 2.0), n)
        for g0 in (0.3, 1.0, 1.8):
            p_emp = float(np.mean(np.hypot(x, z) > g0))
            se = math.sqrt(p_emp * (1 - p_emp) / n)
            assert abs(prob_u_exceeds(g0, ox, oz) - p_emp) < 5.0 * se + 1e-9

    # (g0, omega_z, Pr{U > g0}) at omega_x = 1, inside the 1e-5 equal-gain
    # window: 50-digit mpmath of the two-branch form at the same doubles.
    # A zeroth-order limit there is off by 2.2e-6 ... 6.8e-5 relative
    @pytest.mark.parametrize(
        "g0, oz, ref",
        [
            (1.0, 1.000009, 0.7357605377904373),
            (2.0, 1.000009, 0.09157951317362702),
            (4.0, 1.000009, 1.9132276158047834e-06),
            (1.0, 0.999991, 0.7357572268754665),
            (2.0, 0.999991, 0.09157687572162712),
            (4.0, 0.999991, 1.9129683347619856e-06),
        ],
    )
    def test_prob_u_exceeds_inside_equal_gain_window(self, g0, oz, ref):
        assert prob_u_exceeds(g0, 1.0, oz) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_prob_u_exceeds_refuses_non_finite_input(self, bad):
        for i, name in enumerate(("g0", "omega_x", "omega_z")):
            args = [1.0, 1.0, 1.0]
            args[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                prob_u_exceeds(*args)

    def test_lcr_u_anchors(self):
        assert lcr_u(0.0, 1.0, 1.0, 1.0, 2.0) == 0.0
        pi2 = math.pi**2
        got = lcr_u(1.0, 1.0, 1.0, pi2, pi2)
        assert got == pytest.approx(math.sqrt(2.0 * math.pi) * math.exp(-1.0), rel=1e-13)
        assert got == pytest.approx(0.92214, abs=5e-6)

    @pytest.mark.parametrize(
        "case",
        [
            (1.0, 1.0, 1.0, math.pi**2, math.pi**2),  # all equal
            (1.0, 1.0, 1.0, math.pi**2, 4 * math.pi**2),  # equal gains only
            (0.3, 2.0, 0.5, 1.3, 1.3),  # equal derivative variances only
            (0.1, 10.0, 1.0, 20 * math.pi**2, 2 * math.pi**2),  # strong direct link
            (0.1, 0.1, 1.0, 0.2 * math.pi**2, 2 * math.pi**2),  # weak direct link
            (0.5, 3.0, 1.0, 2.0, 9.0),
            (2.0, 1.0, 4.0, 30.0, 3.0),
            (1.5, 1.0, 1.0 + 2e-5, 3.0, 7.0),  # just outside the limit branch
            (0.25, 5.0, 0.2, 40.0, 0.7),
            # gains inside the old 1e-5 equal-gain window, where a limit
            # branch was O(gap) off
            (0.7, 1.0, 1.0 + 3e-6, 2.0, 5.0),
            (3.0, 1.0, 1.0 + 9e-6, 2.0, 5.0),
            (9.0, 2.0, 2.0 * (1.0 - 8e-6), 9.0, 0.4),
        ],
    )
    def test_lcr_u_against_quadrature_oracle(self, case):
        assert lcr_u(*case) == pytest.approx(lcr_u_quadrature_oracle(*case), rel=1e-11, abs=0.0)

    # (g0, ox, oz, h, rate) at sigma2_x = 1, sigma2_z = 1 + h: 50-digit mpmath
    # of the integral behind lcr_u_quadrature_oracle.  Near equal variances
    # the s -> 1 limit alone is O(h) off (up to 3.9e-6 relative here); h runs
    # from 1e-7 to 3e-5, across the 1e-5 gap at which an earlier form
    # switched from an equal-variance approximation to a power series
    @pytest.mark.parametrize(
        "g0, ox, oz, h, rate",
        [
            (2.0, 0.5, 4.0, 9e-6, 0.1675764561342225),
            (2.0, 0.5, 4.0, -9e-6, 0.16757516203001294),
            (2.0, 0.5, 4.0, 1e-7, 0.1675758162728677),
            (2.0, 0.5, 4.0, 1.1e-5, 0.16757659992294588),
            (2.0, 0.5, 4.0, 3e-5, 0.16757796590950175),
            (1.0, 1.0, 3.0, 9e-6, 0.13909231932009358),
            (1.0, 1.0, 3.0, -9e-6, 0.1390916243699983),
            (1.0, 1.0, 3.0, 1e-7, 0.13909197570642856),
            (1.0, 1.0, 3.0, 1.1e-5, 0.13909239653649982),
            (1.0, 1.0, 3.0, 3e-5, 0.1390931300896556),
            (0.5, 1.0, 1.0, 9e-6, 0.077674314860785),
            (0.5, 1.0, 1.0, -9e-6, 0.07767396532715458),
            (0.5, 1.0, 1.0, 1e-7, 0.07767414203608541),
            (0.5, 1.0, 1.0, 1.1e-5, 0.07767435369772559),
            (0.5, 1.0, 1.0, 3e-5, 0.0776747226473699),
        ],
    )
    def test_lcr_u_near_equal_derivative_variances(self, g0, ox, oz, h, rate):
        assert lcr_u(g0, ox, oz, 1.0, 1.0 + h) == pytest.approx(rate, rel=1e-9, abs=0.0)

    def test_lcr_u_limit_branch_continuity(self):
        # values at near-equal gains or variances stay within 1e-5 relative
        # of the equal ones
        base = lcr_u(0.7, 1.0, 1.0, 2.0, 5.0)
        for eps in (1e-7, -1e-7, 1e-6, 1e-9):
            assert lcr_u(0.7, 1.0, 1.0 * (1.0 + eps), 2.0, 5.0) == pytest.approx(base, rel=1e-5)
        for eps in (1e-7, -1e-7):
            assert lcr_u(0.7, 1.0, 1.1, 2.0, 2.0 * (1.0 + eps)) == pytest.approx(
                lcr_u(0.7, 1.0, 1.1, 2.0, 2.0), rel=1e-5
            )

    def test_lcr_u_branch_boundary_seam(self):
        # gains 0.99e-5 and 1.01e-5 apart, either side of the 1e-5 relative
        # gap at which earlier forms switched branch: the value changes only
        # at O(gap)
        lo = lcr_u(0.7, 1.0, 1.0 * (1.0 + 0.99e-5), 2.0, 5.0)
        hi = lcr_u(0.7, 1.0, 1.0 * (1.0 + 1.01e-5), 2.0, 5.0)
        assert hi == pytest.approx(lo, rel=1e-4)

    @pytest.mark.parametrize(
        "case",
        [
            (5.0, 0.3, 1.0, 100.0, 1.0),  # deep threshold, large positive exponent
            (10.0, 0.05, 1.0, 400.0, 0.5),  # result near 1e-43, naive form overflows
            (8.0, 2.0, 0.2, 1.0, 30.0),
            (6.0, 0.5, 2.0, 3.0, 3.0003),  # |exponent argument| ~ 5e5
            (0.01, 5.0, 0.1, 7.0, 0.2),
            (10.0, 0.05, 5.0, 3.0, 3.0),  # equal derivative variances, wide gain gap
            # static X link (sigma2_x = 0): U's rate comes from Z alone, on
            # each of the closed form's kernels and on the fixed rule
            (5.0, 0.3, 1.0, 0.0, 1.0),  # Dawson
            (3.0, 2.0, 0.4, 0.0, 1.0),  # erfcx
            (0.5, 1.0, 2.0, 0.0, 3.0),  # rule, |cz - cx| = 0.125
            # static Z link (sigma2_z = 0): K(lambda sigma2_z) at
            # lambda * 0.0 = +0.0 stays on K(lambda sigma2_x)'s erfcx branch
            (3.0, 0.4, 2.0, 1.0, 0.0),
        ],
    )
    def test_lcr_u_extreme_parameters(self, case):
        # oracle with the envelope factor kept inside the exponent so it
        # stays finite at deep thresholds
        g0, ox, oz, s2x, s2z = case
        rule = gauss_legendre(8000, 0.0, g0)
        z = rule.nodes
        expo = -g0 * g0 / ox - z * z * (1.0 / oz - 1.0 / ox)
        f = z * np.sqrt(g0 * g0 * s2x + z * z * (s2z - s2x)) * np.exp(expo)
        ref = 4.0 / (math.sqrt(2.0 * math.pi) * ox * oz) * float(np.sum(rule.weights * f))
        assert lcr_u(*case) == pytest.approx(ref, rel=1e-9, abs=0.0)

    # (g0, ox, oz, sigma2_x, sigma2_z, rate): 50-digit mpmath of the
    # integral in lcr_u's docstring at the same doubles.  A domain_grid row
    # with variances 1.8e-5 apart (an earlier power series was 7.1e-12 off
    # there); static X and static Z with cz - cx = +-0.9 (fixed rule) and
    # +-1.1 (closed form); variances 2e-5 and 1e-4 apart with
    # cz - cx ~ 0.67 and ~ 4.67; equal variances with cz - cx = 0, 1, 10
    @pytest.mark.parametrize(
        "case, rate",
        [
            ((0.015741958564841722, 5.6390609867407315, 5.6390609867407315, 4258.775056034173, 4258.852349092714),
             6.3874572934495064e-6),
            ((1.5, 2.0, 1.1111111111111112, 0.0, 3.0), 0.27234598825808759),
            ((1.5, 2.0, 1.1111111111111112, 3.0, 0.0), 0.32558137581823218),
            ((1.5, 2.0, 10.000000000000002, 0.0, 3.0), 0.08897788498858709),
            ((1.5, 2.0, 10.000000000000002, 3.0, 0.0), 0.074429226670078468),
            ((1.5, 2.0, 1.0112359550561798, 0.0, 3.0), 0.26919088437009994),
            ((1.5, 2.0, 1.0112359550561798, 3.0, 0.0), 0.33454502242282381),
            ((1.5, 2.0, 90.00000000000033, 0.0, 3.0), 0.011292458312843161),
            ((1.5, 2.0, 90.00000000000033, 3.0, 0.0), 0.0090864506604578006),
            ((0.8, 1.0, 0.48854961832061067, 2.0, 2.00004), 0.4544374317334604),
            ((0.8, 1.0, 0.48854961832061067, 2.0, 2.0002), 0.45444551289664739),
            ((0.8, 1.0, 0.12052730696798494, 2.0, 2.00004), 0.53614910855240375),
            ((0.8, 1.0, 0.12052730696798494, 2.0, 2.0002), 0.53615349787771673),
            ((2.0, 4.0, 4.0, 7.0, 7.0), 0.38829750850725325),
            ((2.0, 4.0, 2.0, 7.0, 7.0), 0.4909016761386831),
            ((2.0, 4.0, 0.36363636363636365, 7.0, 7.0), 0.42710786781040408),
        ],
    )
    def test_lcr_u_against_mpmath(self, case, rate):
        assert lcr_u(*case) == pytest.approx(rate, rel=1e-13, abs=0.0)

    # (g0, ox, oz, sigma2_x, sigma2_z, rate, rel): 50-digit mpmath where the
    # direct evaluation under- or overflows.  As ox -> 0 (or oz -> 0) the
    # rate tends to the other link's Rayleigh rate, rayleigh_lcr(1, 1, 2) =
    # sqrt(4/pi) e^{-1} and rayleigh_lcr(1, 1, 1): cx overflows (nan before),
    # |lambda|^{3/2} overflows (OverflowError before), equal variances and a
    # static link at an overflowing c; a static link of smaller c, whose
    # rate scales with sqrt(q); variances 1e-300 and 3e-300 (lambda
    # overflows); both c above 708.4 with |cz - cx| <= 1, unequal and equal
    # variances; g0^3 subnormal; three domain_grid edge rows whose
    # e^{-min(cx, cz)} is subnormal (3.8e-308, 7.1e-312 and 9.2e-315; the
    # last is 1e-9 coarse in the subnormal range); and four whose plain
    # product would pass through a subnormal: g0^3/(ox oz) before a Jh of
    # 1e47 lifts it, (g0/ox)(g0/oz) Jh before g0 = 2e93 lifts it, g0/ox
    # itself, and (g0/ox)(g0/oz) = 1e-320 before a Jh of 1e150 lifts it
    # (60-digit mpmath); last, |lambda|^{3/2} overflowing with a tail of
    # link b so small that D(x) - x rounds to 0 (ValueError before)
    @pytest.mark.parametrize(
        "case, rate, rel",
        [
            ((1.0, 1e-310, 1.0, 1.0, 2.0), 0.41510749742059470, 1e-12),
            ((1.0, 1e-300, 1.0, 1.0, 2.0), 0.41510749742059470, 1e-12),
            ((1.0, 1e-310, 1.0, 1.0, 1.0), 0.29352532634747980, 1e-12),
            ((1.0, 1.0, 1e-300, 1.0, 0.0), 0.29352532634747980, 1e-12),
            ((1.0, 1e-300, 1.0, 2.0, 0.0), 3.6787944117144233e-151, 1e-12),
            ((2.0, 1e-3, 1.0, 1e-300, 3e-300), 5.0670015448628876e-152, 1e-12),
            ((29.2, 1.2, 1.201, 1.0, 3.0), 7.0788329848524957e-305, 1e-12),
            ((29.2, 1.2, 1.201, 2.0, 2.0), 6.981633203657585e-305, 1e-12),
            ((1e-103, 1.0, 1.0, 1.0, 2.0), 9.725825155921064e-310, 1e-12),
            ((35.35145582403373, 1.7514902155218262, 0.2678237975485103, 228.15784709382044, 16.98304456704156),
             3.7997147654922201e-308, 1e-12),
            ((38.599574129829996, 0.29260740436363725, 2.060470397708411, 280.7858336782566, 1978.2083327973955),
             7.0895919141331111e-312, 1e-12),
            ((50.15597248930373, 0.45696726088678064, 3.4568010945572594, 81.55870424508754, 60.28994145373131),
             9.2408906940069592e-315, 1e-9),
            ((3.766616693779297e-106, 747.9404665928821, 10.001087260173033, 2010.603552837594, 1.743835113771814e+94),
             5.0181258030674468e-274, 1e-12),
            ((2.3598608530666947e+93, 1.1032177180636325e+230, 256.9801712848013, 4.553924686932339e-224,
              64.08153589549346), 8.2250782302378219e-229, 1e-12),
            ((2.6792314290863697e-151, 1.2074491944834263e+170, 7.936997606811468e-267, 1.73533063673658e+243, 0.0),
             4.4467784405105908e-235, 1e-12),
            ((1e-100, 1e60, 1e60, 1e300, 1e300), 7.9788456080286551e-271, 1e-12),
            ((1.0, 1.0, 1e-210, 1.0, 1e-250), 0.29352532634747980, 1e-12),
        ],
    )
    def test_lcr_u_where_its_direct_form_under_or_overflows(self, case, rate, rel):
        assert lcr_u(*case) == pytest.approx(rate, rel=rel, abs=0.0)
        assert lcr_u(*case) == pytest.approx(lcr_u(case[0], case[2], case[1], case[4], case[3]), rel=rel, abs=0.0)

    def test_lcr_u_at_a_subnormal_g0_squared(self):
        # g0^2 = 1e-316 and ox*oz = 1e-320 are subnormal; forming either put
        # the rate 1.1e-5 off.  50-digit mpmath
        assert lcr_u(1e-158, 1e-160, 1e-160, 1.0, 2.0) == pytest.approx(9.7258251559210674e-155, rel=1e-12, abs=0.0)

    def test_lcr_u_large_negative_exponent(self):
        # -30 dB, strong direct link: w ~ -5.4e4; 80-digit mpmath value of
        # the closed form at the same double arguments
        sc = Scenario(1e-3, 1.0, LinkGains(10, 1, 1))
        ld, th = derive(sc)
        g = sc.gains
        got = lcr_u(th.g0, g.omega_x, g.omega_z, ld.sigma2_x, ld.sigma2_z)
        assert got == pytest.approx(3.5116083937141662e-129, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_lcr_u_refuses_non_finite_input(self, bad):
        names = ("g0", "omega_x", "omega_z", "sigma2_x", "sigma2_z")
        for i, name in enumerate(names):
            args = [1.0, 1.0, 1.0, 1.0, 1.0]
            args[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                lcr_u(*args)

    def test_lcr_u_symmetric_under_link_swap(self):
        # sqrt(X^2 + Z^2) does not care which link is which, and lcr_u orders
        # the links itself, so a swap returns the same float on every path
        # and in both assemblies
        cases = [
            (2.0, 4.0, 2.0, 7.0, 7.0),  # equal variances
            (0.8, 1.0, 0.48854961832061067, 2.0, 2.00004),  # fixed rule
            (1.0, 2.0, 2.0, 1.0, 3.0),  # fixed rule at equal c, ordered by variance
            (4.0, 0.3, 2.0, 11.0, 0.9),  # closed form
            (5.0, 0.3, 1.0, 0.0, 1.0),  # static link, closed form
            (0.5, 1.0, 2.0, 0.0, 3.0),  # static link, fixed rule
            (29.2, 1.2, 1.201, 1.0, 3.0),  # log assembly, log Jh from Jh
            (1.0, 1e-300, 1.0, 1.0, 2.0),  # log assembly, _lcr_log_tail
        ]
        for g0, ox, oz, s2x, s2z in cases:
            assert lcr_u(g0, ox, oz, s2x, s2z) == lcr_u(g0, oz, ox, s2z, s2x), (g0, ox, oz, s2x, s2z)


class TestDecodeForward:
    def test_zero_rate(self):
        assert op_df(make_scenario(r0=0.0)) == 0.0
        assert aor_df(make_scenario(r0=0.0)) == 0.0

    def test_reference_outage_probability(self):
        got = op_df(make_scenario())
        assert got == pytest.approx(1.0 - 1.01 * math.exp(-0.02), rel=1e-13)
        assert got == pytest.approx(9.999e-3, abs=5e-7)
        # second-order decay limit g0^2 / omega_y
        assert got == pytest.approx(1e-2, rel=1e-3)

    def test_reference_outage_rate(self):
        got = aor_df(make_scenario())
        assert got == pytest.approx(0.354421, abs=1e-6)
        # high-SNR closed form sqrt(2 pi) f_y g0 / sqrt(omega_y)
        assert got == pytest.approx(math.sqrt(2.0 * math.pi) * math.sqrt(2.0) * 0.1, rel=2e-3)

    def test_rate_at_large_negative_exponent(self):
        # 10 dB, r0 = 8, weak direct link: the crossing rate of U is a normal
        # double far below the S-D term; 80-digit mpmath value
        sc = Scenario(10.0, 8.0, LinkGains(0.01, 100, 100), NodeDopplers(0.3, 1, 0.7))
        assert aor_df(sc) == pytest.approx(5.4878234622516396e-56, rel=1e-12, abs=0.0)

    def test_lower_bound_structure(self):
        for gamma_db in (0.0, 10.0, 20.0):
            sc = make_scenario(gamma0=10.0 ** (gamma_db / 10.0), omegas=(0.8, 1.7, 1.2))
            _, th = derive(sc)
            p_y_out = 1.0 - math.exp(-th.g0**2 / 1.7)
            p_u_out = 1.0 - prob_u_exceeds(th.g0, 0.8, 1.2)
            assert op_df(sc) >= max(p_y_out, p_u_out) - 1e-15


class TestSelectionRelaying:
    def test_zero_rate(self):
        assert op_sr(make_scenario(r0=0.0)) == 0.0
        assert aor_sr(make_scenario(r0=0.0)) == 0.0

    def test_switch_probability_anchors(self):
        p3, p4 = sr_switch_probs(1.0, 1.0, 1.0)
        assert p3 == pytest.approx(math.exp(-0.5) - 1.5 * math.exp(-1.0), rel=1e-12)
        assert p3 == pytest.approx(0.0547115, abs=5e-8)
        assert p4 == pytest.approx(0.5 * math.exp(-1.0), rel=1e-13)
        assert p4 == pytest.approx(0.1839397, abs=5e-8)

    def test_equal_gain_switch_probability_extremes(self):
        # p3 = exp(-u) P(2, u), u = g0^2 / (2 omega); 80-digit mpmath values
        p3, _ = sr_switch_probs(1.0, 5e7, 5e7)  # u = 1e-8
        assert p3 == pytest.approx(4.999999916666668e-17, rel=1e-13, abs=0.0)
        p3, _ = sr_switch_probs(1.0, 1.0 / 1400.0, 1.0 / 1400.0)  # u = 700
        assert p3 == pytest.approx(9.85967654375977e-305, rel=1e-12, abs=0.0)
        assert sr_switch_probs(1.0, 1.0 / 1600.0, 1.0 / 1600.0) == (0.0, 0.0)  # u = 800

    def test_switch_probabilities_at_a_subnormal_g0_squared(self):
        # g0^2 = 1e-320 is subnormal; forming it put p4 1.1e-5 and the
        # equal-gain p3 2.2e-5 off.  60-digit mpmath at the same doubles
        assert sr_switch_probs(1e-160, 1e-300, 3e-300)[1] == pytest.approx(4.9999999999999998e-21, rel=1e-13, abs=0.0)
        assert sr_switch_probs(1e-160, 1e-300, 1e-300)[0] == pytest.approx(1.2499999999999999e-41, rel=1e-13, abs=0.0)

    def test_switch_probabilities_where_u_overflows(self):
        # u = g0^2/(2 omega_x) = inf: the limit (0, e^-2z), (0, 0) once z = inf too
        assert sr_switch_probs(1.0, 1e-310, 1.0) == (0.0, math.exp(-1.0))
        assert sr_switch_probs(1.0, 1e-310, 1e-310) == (0.0, 0.0)

    # (g0, omega_z, p4) at omega_x = 1: 50-digit mpmath of the two-branch
    # form at the same doubles.  Inside the 1e-5 equal-gain window a
    # zeroth-order limit is off by 6.8e-6 ... 1.1e-4 relative; just outside
    # it (0.999, 1.01 at g0 = 0.01) the two-term difference by up to 3.4e-10
    @pytest.mark.parametrize(
        "g0, oz, p4",
        [
            (1.0, 1.000009, 0.18394096217200637),
            (2.0, 1.000009, 0.036632266826913534),
            (4.0, 1.000009, 9.003786327149778e-07),
            (1.0, 0.999991, 0.18393847898577842),
            (2.0, 0.999991, 0.03663028873791362),
            (4.0, 0.999991, 9.001841719328236e-07),
            (0.01, 0.999, 4.999499649661342e-05),
            (0.01, 1.01, 4.999503737500615e-05),
        ],
    )
    def test_switch_probability_p4_near_equal_gains(self, g0, oz, p4):
        assert sr_switch_probs(g0, 1.0, oz)[1] == pytest.approx(p4, rel=1e-12, abs=0.0)

    # (g0, omega_z, p3, p4) at omega_x = 1: 80-digit mpmath of the closed
    # forms at the same doubles.  The three-term form of p3 and its old 1e-5
    # zeroth-order equal-gain window were off by up to 7.2e-5 relative here;
    # as z -> 0 the divided-difference form keeps about 2e-16/z
    @pytest.mark.parametrize(
        "g0, oz, p3, p4",
        [
            (0.01, 0.999991, 1.2499070867365846e-9, 4.999500021624474e-5),
            (0.01, 1.000009, 1.2498845889864703e-9, 4.999500028373799e-5),
            (0.01, 0.999, 1.2511469638717984e-9, 4.9994996496613418e-5),
            (0.01, 1.01, 1.2375208356563306e-9, 4.9995037375006149e-5),
            (0.01, 3.0, 4.166365751832284e-10, 4.999750006481366e-5),
            (0.01, 0.2, 6.2490625794221228e-9, 4.9980004082766729e-5),
            (0.3, 0.999991, 0.00093940155293820768, 0.041126878352394495),
            (0.3, 1.000009, 0.00093938489654235483, 0.041126928321582053),
            (0.3, 0.999, 0.00094031949236516993, 0.041124124589739761),
            (0.3, 1.01, 0.00093022992991986909, 0.041154398665997144),
            (0.3, 3.0, 0.00031627409234093604, 0.043021499946389198),
            (0.3, 0.2, 0.0044283738282779692, 0.031437835678769972),
            (1.0, 0.999991, 0.054711911822945267, 0.18393847898577841),
            (1.0, 1.000009, 0.054711084094202586, 0.18394096217200637),
            (1.0, 0.999, 0.054757521238031924, 0.18380168144453254),
            (1.0, 1.01, 0.054255449372531658, 0.18531088277484654),
            (1.0, 3.0, 0.020344701749466544, 0.30467128731179584),
            (1.0, 0.2, 0.1591281253402965, 0.010762280342194621),
        ],
    )
    def test_switch_probabilities_against_closed_forms(self, g0, oz, p3, p4):
        rel = 1e-12 if g0 >= 0.3 else 5e-11
        got3, got4 = sr_switch_probs(g0, 1.0, oz)
        assert got3 == pytest.approx(p3, rel=rel, abs=0.0)
        assert got4 == pytest.approx(p4, rel=rel, abs=0.0)

    def test_switching_term_on_the_declared_grid(self):
        # n_y (p3 + p4) against switch_sum_reference, relative to aor_sr, over
        # SNR {-30, -10, ..., 90, 100} dB x r0 {0.1, 1, 8} x each gain in
        # {0.01, 1, 100}.  The three-term p3 put 25 of these above 1e-10
        # (worst 3.9e-7, at 90 dB).  At the 101 points where aor_sr is 0 the
        # switching term itself is below 1e-600, so there is nothing to compare
        checked = 0
        for snr_db, r0, omegas in itertools.product(
            (-30, -10, 10, 30, 50, 70, 90, 100), (0.1, 1.0, 8.0), itertools.product((0.01, 1.0, 100.0), repeat=3)
        ):
            sc = Scenario(10.0 ** (snr_db / 10.0), r0, LinkGains(*omegas), NodeDopplers(0.3, 1.0, 0.7))
            rate = aor_sr(sc)
            if rate == 0.0:
                continue
            ld, th = derive(sc)
            g = sc.gains
            p3, p4 = sr_switch_probs(th.g0, g.omega_x, g.omega_z)
            n_y = rayleigh_lcr(th.y0, g.omega_y, ld.sigma2_y)
            with localcontext() as ctx:
                ctx.prec = 60
                err = Decimal(n_y) * abs(Decimal(p3) + Decimal(p4) - switch_sum_reference(th.g0, g.omega_x, g.omega_z))
                assert err <= Decimal(1e-13) * Decimal(rate), (snr_db, r0, omegas, float(err) / rate)
            checked += 1
        assert checked == 547

    def test_rate_at_deep_threshold_near_equal_gains(self):
        # 98.75 dB, g0 = 7.2e-6: the three-term p3, O(g0^4) out of terms of
        # order 1, put aor_sr 2.4e-4 off; 50-digit mpmath of the closed form,
        # with nu_U from Rice's formula on U = g0
        sc = make_scenario(
            gamma0=10.0 ** (98.75459158318932 / 10.0),
            r0=0.23673945348879083,
            omegas=(1.7745474611111032, 4.186098231008649, 1.7470062447900954),
            dopplers=(0.842130733595355, 0.17629947739113627, 0.0),
        )
        assert aor_sr(sc) == pytest.approx(4.4332635832804904e-16, rel=1e-12, abs=0.0)

    def test_switch_probability_p4_at_deep_threshold(self):
        # 92 dB, r0 = 1.31, g0 = 5.7e-5: the two-term difference of p4 lost
        # 5.1e-4 of it (2.3e-4 of aor_sr); 50-digit mpmath at the same doubles
        sc = make_scenario(
            gamma0=10.0 ** (92.03272285417935 / 10.0),
            r0=1.3054820550763278,
            omegas=(8.011242627673523, 4.873920329752255, 8.018995417952366),
            dopplers=(0.24379391494055438, 2.4010581073061195, 0.0),
        )
        _, th = derive(sc)
        assert th.g0 == pytest.approx(5.6563571618087655e-05, rel=1e-15)
        p4 = sr_switch_probs(th.g0, sc.gains.omega_x, sc.gains.omega_z)[1]
        assert p4 == pytest.approx(1.99684230125909e-10, rel=1e-12, abs=0.0)

    def test_rate_keeps_the_relayed_term_at_large_negative_exponent(self):
        # 10 dB, r0 = 8, weak direct link: Pr{Y > y0} = e^-65.5 is below
        # 1.1e-16, so 1 - Pr{Y <= y0} rounds to 0 and drops nu_U Pr{Y > y0}
        # = 2.958e-56, leaving the switching term 2.530e-56 alone; 50-digit
        # mpmath of the closed form, with nu_U from Rice's formula on U = g0
        sc = Scenario(10.0, 8.0, LinkGains(0.01, 100, 100), NodeDopplers(0.3, 1, 0.7))
        assert aor_sr(sc) == pytest.approx(5.4878234622516396e-56, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_switch_probabilities_refuse_non_finite_input(self, bad):
        for i, name in enumerate(("g0", "omega_x", "omega_z")):
            args = [1.0, 1.0, 1.0]
            args[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                sr_switch_probs(*args)

    @pytest.mark.parametrize("ox,oz", [(1.0, 1.0), (10.0, 1.0), (0.1, 1.0), (0.7, 2.3)])
    def test_switch_probabilities_brute_force(self, ox, oz):
        rng = np.random.default_rng(123)
        n = 2_000_000
        x = rng.rayleigh(math.sqrt(ox / 2.0), n)
        z = rng.rayleigh(math.sqrt(oz / 2.0), n)
        u = np.hypot(x, z)
        for g0 in (0.4, 1.0):
            p3, p4 = sr_switch_probs(g0, ox, oz)
            e3 = float(np.mean((math.sqrt(2.0) * x > g0) & (u < g0)))
            e4 = float(np.mean((math.sqrt(2.0) * x < g0) & (u > g0)))
            assert abs(p3 - e3) < 5.0 * math.sqrt(max(e3, 1e-12) / n) + 1e-9
            assert abs(p4 - e4) < 5.0 * math.sqrt(max(e4, 1e-12) / n) + 1e-9

    def test_rate_near_symmetric_closed_form(self):
        got = aor_sr(make_scenario())
        ref = (math.sqrt(2.0) + 3.0) * math.sqrt(math.pi) * 1e-3
        assert got == pytest.approx(ref, rel=0.15)
        assert got == pytest.approx(7.698119e-3, rel=1e-6)  # regression

    def test_against_trace_mc_oracle_10db(self):
        got = aor_sr(make_scenario(gamma0=10.0))
        assert got == pytest.approx(AOR_SR_10DB_MC, rel=AOR_SR_10DB_MC_TOL)

    def test_rate_is_sum_of_nonnegative_mechanisms(self):
        for omegas in [(1.0, 1.0, 1.0), (10.0, 1.0, 1.0), (0.1, 1.0, 2.0)]:
            sc = make_scenario(omegas=omegas)
            g = sc.gains
            ld, th = derive(sc)
            terms = [
                rayleigh_lcr(th.g0 / math.sqrt(2.0), g.omega_x, ld.sigma2_x)
                * -math.expm1(-th.y0**2 / g.omega_y),
                lcr_u(th.g0, g.omega_x, g.omega_z, ld.sigma2_x, ld.sigma2_z)
                * math.exp(-th.y0**2 / g.omega_y),
                rayleigh_lcr(th.y0, g.omega_y, ld.sigma2_y) * sum(
                    sr_switch_probs(th.g0, g.omega_x, g.omega_z)
                ),
            ]
            assert all(t >= 0.0 for t in terms)
            assert aor_sr(sc) == pytest.approx(sum(terms), rel=1e-12)

    def test_explicit_relay_threshold_changes_result(self):
        assert op_sr(make_scenario(y0=0.5)) != op_sr(make_scenario())


class TestSharedUTerms:
    """Pr{U > g0} and U's crossing rate, computed once per Scenario instance."""

    ASYMMETRIC = dict(gamma0=10.0, omegas=(0.5, 2.0, 1.0), dopplers=(1.3, 0.7, 0.4))

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"prob_u_exceeds": 0, "lcr_u": 0}
        for name in calls:
            original = getattr(exact_metrics, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(exact_metrics, name, counting)
        return calls

    def test_df_and_sr_compute_each_term_once(self, calls):
        sc = make_scenario(**self.ASYMMETRIC)
        fresh = make_scenario(**self.ASYMMETRIC)
        values = [f(sc) for f in (op_df, aor_df, op_sr, aor_sr)]
        assert calls == {"prob_u_exceeds": 1, "lcr_u": 1}
        # a second round reuses the kept terms and gives the same values
        assert [f(sc) for f in (op_df, aor_df, op_sr, aor_sr)] == values
        for protocol in (Protocol.DF, Protocol.SR):
            metrics(sc, protocol)
        assert calls == {"prob_u_exceeds": 1, "lcr_u": 1}
        # the values are those of the module functions at the scenario
        ld, th = derive(fresh)
        g = fresh.gains
        assert sc.__dict__["_u_exceeds"] == prob_u_exceeds(th.g0, g.omega_x, g.omega_z)
        assert sc.__dict__["_u_lcr"] == lcr_u(th.g0, g.omega_x, g.omega_z, ld.sigma2_x, ld.sigma2_z)

    def test_outage_probability_never_computes_the_crossing_rate(self, calls):
        sc = make_scenario(**self.ASYMMETRIC)
        op_df(sc)
        op_sr(sc)
        assert calls == {"prob_u_exceeds": 1, "lcr_u": 0}

    def test_replaced_scenario_recomputes_its_terms(self, calls):
        sc = make_scenario(**self.ASYMMETRIC)
        aor_df(sc)
        other = dataclasses.replace(sc, gamma0=1000.0)
        assert aor_df(other) == aor_df(make_scenario(**{**self.ASYMMETRIC, "gamma0": 1000.0}))
        assert aor_df(other) != aor_df(sc)
        # sc, other and the fresh reference scenario: one pair of terms each
        assert calls == {"prob_u_exceeds": 3, "lcr_u": 3}

    def test_terms_are_not_part_of_value_identity(self):
        filled, fresh = make_scenario(**self.ASYMMETRIC), make_scenario(**self.ASYMMETRIC)
        op_sr(filled)
        aor_sr(filled)
        assert "_u_exceeds" in filled.__dict__ and "_u_lcr" in filled.__dict__
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)

    def test_all_static_scenario_gives_op_and_rejects_rate(self):
        sc = make_scenario(**{**self.ASYMMETRIC, "dopplers": (0.0, 0.0, 0.0)})
        moving = make_scenario(**self.ASYMMETRIC)
        assert op_df(sc) == op_df(moving)
        assert op_sr(sc) == op_sr(moving)
        for rate in (aor_df, aor_sr):
            with pytest.raises(MobilityError):
                rate(sc)
        assert "_u_lcr" not in sc.__dict__

    def test_static_direct_link_with_moving_relay(self):
        # f_s = f_d = 0: the S-D link is static and U crosses g0 through Z only
        sc = make_scenario(**{**self.ASYMMETRIC, "dopplers": (0.0, 1.0, 0.0)})
        assert derive(sc)[0].sigma2_x == 0.0
        for protocol in (Protocol.DF, Protocol.SR):
            m = metrics(sc, protocol)
            assert all(math.isfinite(v) for v in (m.p_out, m.aor, m.aod))
            assert 0.0 < m.p_out < 1.0 and m.aor > 0.0
            assert m.aod == m.p_out / m.aor


class TestSharedAfPanels:
    """AF's outer panels and their shares of the outer density, once per Scenario."""

    ASYMMETRIC = TestSharedUTerms.ASYMMETRIC

    def test_metrics_builds_the_panels_once(self, monkeypatch):
        calls = []
        original = exact_metrics._decade_edges

        def counting(lo, hi):
            calls.append((lo, hi))
            return original(lo, hi)

        # one panel build is two _decade_edges calls: decades of a, then of g0^2 - a
        monkeypatch.setattr(exact_metrics, "_decade_edges", counting)
        sc = make_scenario(**self.ASYMMETRIC)
        metrics(sc, Protocol.AF)
        metrics(sc, Protocol.AF)
        assert len(calls) == 2

    def test_shared_panels_give_the_values_of_fresh_ones(self):
        sc = make_scenario(**self.ASYMMETRIC)
        p_out, aor = op_af(sc), aor_af(sc)
        assert p_out == op_af(make_scenario(**self.ASYMMETRIC))
        assert aor == aor_af(make_scenario(**self.ASYMMETRIC))

    def test_panels_are_kept_read_only_outside_value_identity(self):
        filled, fresh = make_scenario(**self.ASYMMETRIC), make_scenario(**self.ASYMMETRIC)
        op_af(filled)
        edges, share = filled.__dict__["_outer_panels"]
        assert not (edges.flags.writeable or share.flags.writeable)
        # the closed-form share, bit for bit
        g0sq, ox = derive(fresh)[1].g0 ** 2, fresh.gains.omega_x
        expected = np.exp((edges[1:] - g0sq) / ox) * -np.expm1((edges[:-1] - edges[1:]) / ox)
        assert np.array_equal(share, expected)
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert "_outer_panels" not in dataclasses.replace(filled).__dict__

    @pytest.mark.parametrize("fn", [op_af, aor_af])
    def test_panel_range_error_recurs_and_keeps_nothing(self, fn):
        # 0 dB, r0 500: the panels refuse g0^2 = 2^1000 - 1
        sc = Scenario(1.0, 500.0)
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match="r0 = 500 b/s/Hz") as info:
                fn(sc)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert sc.__dict__.keys() == {f.name for f in dataclasses.fields(sc)} | {"derived"}

    @pytest.mark.parametrize("orders", [exact_metrics._AF_RATE_ORDERS[:2], exact_metrics._AF_RATE_ORDERS[5:6]])
    def test_rule_offsets_match_the_order_pairs(self, orders):
        xo, wo, xi, wi, starts = exact_metrics._af_rate_rules(orders)
        sizes = [m for m, _ in orders]
        assert list(np.diff([*starts, xo.shape[0]])) == sizes
        assert starts[0] == 0 and xo.shape[0] == wo.shape[0] == xi.shape[0] == sum(sizes)

    @pytest.mark.parametrize(
        "orders", [exact_metrics._AF_RATE_ORDERS[:2], *((pair,) for pair in exact_metrics._AF_RATE_ORDERS)]
    )
    def test_inner_rules_are_folded_halves(self, orders):
        # each pair's inner rows hold the nonnegative half of its rule, which
        # mirrored is the whole rule, then zero-weight padding at x = 0
        _, _, xi, wi, starts = exact_metrics._af_rate_rules(orders)
        assert xi.shape[1] == max(ni for _, ni in orders) // 2
        assert np.all(xi >= 0.0)
        for (m, ni), s, w in zip(orders, starts, wi):
            half = ni // 2
            x_full, w_full = _legendre_base(ni)
            for x in xi[s : s + m]:
                assert np.array_equal(np.concatenate([-x[half - 1 :: -1], x[:half]]), x_full)
                assert np.all(x[half:] == 0.0)
            assert np.array_equal(np.concatenate([w[half - 1 :: -1], w[:half]]), w_full)
            assert np.all(w[half:] == 0.0)


class TestAsymmetricScenarioPins:
    """Frozen trace-oracle values for a fully asymmetric operating point.

    10 dB, r0 = 0.5, gains (0.5, 2.0, 1.0), node Dopplers (1.3, 0.7, 0.4);
    sum-of-sinusoids run with 64 rays, 6e6 samples, seed 64.  Exercises the
    general (unequal-gain, unequal-derivative-variance) branch of every
    closed form inside a full composition.
    """

    SCENARIO = dict(gamma0=10.0, omegas=(0.5, 2.0, 1.0), dopplers=(1.3, 0.7, 0.4))
    PINS = {
        Protocol.DIRECT: (8.119350e-02, 9.320960e-01),
        Protocol.AF: (1.670283e-02, 2.560213e-01),
        Protocol.DF: (5.631033e-02, 8.835200e-01),
        Protocol.SR: (1.305750e-02, 2.263253e-01),
    }

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_exact_matches_frozen_trace_oracle(self, protocol):
        m = metrics(make_scenario(**self.SCENARIO), protocol)
        mc_op, mc_aor = self.PINS[protocol]
        assert m.p_out == pytest.approx(mc_op, rel=0.05)
        assert m.aor == pytest.approx(mc_aor, rel=0.07)


class TestMetricsDispatch:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_duration_identity(self, protocol):
        m = metrics(make_scenario(gamma0=10.0), protocol)
        assert m.aod is not None
        assert m.aod * m.aor == pytest.approx(m.p_out, rel=1e-12)

    def test_zero_rate_flags_duration(self):
        m = metrics(make_scenario(r0=0.0), Protocol.DIRECT)
        assert m.p_out == 0.0 and m.aor == 0.0 and m.aod is None

    @pytest.mark.parametrize(
        "protocol, snr_db, r0, omegas, dopplers",
        [
            # domain_grid seed-1 edge rows 239 and 1404: AOR is subnormal
            (
                Protocol.DF,
                18.315538255850498,
                7.069362126254593,
                (6.30367787817034, 0.38063019462127684, 0.28477033895565684),
                (0.0, 4.862880506459804, 5.242090176308804),
            ),
            (
                Protocol.DIRECT,
                -29.957233878731508,
                0.3954003129979202,
                (0.42129706206422557, 2.9636436762451774, 0.17495258300931466),
                (0.0, 0.11957200445754375, 4.681943344050389),
            ),
        ],
    )
    def test_subnormal_rate_raises_instead_of_infinite_duration(self, protocol, snr_db, r0, omegas, dopplers):
        sc = make_scenario(gamma0=10.0 ** (snr_db / 10.0), r0=r0, omegas=omegas, dopplers=dopplers)
        assert 0.0 < protocol.aor(sc) < 1e-300 and protocol.op(sc) > 0.0
        with pytest.raises(OverflowError, match=f"{protocol.value}: .* AOR"):
            metrics(sc, protocol)

    @pytest.mark.parametrize("fn", [op_af, aor_af])
    @pytest.mark.parametrize(
        "gamma0, r0",
        [
            (1.0, 500.0),  # g0^2 = 2^1000 - 1: g0^2 over the head cut overflows
            (1e308, 1e-10),  # g0^2 ~ 1.4e-318: the head cut underflows to 0
        ],
    )
    def test_af_threshold_beyond_panel_range_raises_value_error(self, fn, gamma0, r0, monkeypatch):
        def no_panels(lo, hi):
            raise AssertionError("panels built before the range check")

        monkeypatch.setattr(exact_metrics, "_decade_edges", no_panels)
        with pytest.raises(ValueError, match=re.escape(f"r0 = {r0:g} b/s/Hz at gamma0 = {gamma0:g} ")):
            fn(Scenario(gamma0, r0))

    @pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.DF, Protocol.SR])
    def test_closed_forms_at_af_panel_range_limit(self, protocol):
        assert metrics(Scenario(1.0, 500.0), protocol) == exact_metrics.OutageMetrics(1.0, 0.0, None)

    def test_block_durations_at_20db(self):
        # mean outage durations in coding blocks at f_m T = 1e-3
        expected = {Protocol.SR: 13.0, Protocol.AF: 14.0, Protocol.DF: 28.0, Protocol.DIRECT: 18.0}
        for protocol, blocks in expected.items():
            m = metrics(make_scenario(), protocol)
            assert m.aod / 1e-3 == pytest.approx(blocks, rel=0.15)

    def test_blocks_between_outages_at_20db(self):
        expected = {
            Protocol.SR: 1.3e5,
            Protocol.AF: 1.4e5,
            Protocol.DF: 2.8e3,
            Protocol.DIRECT: 4.3e3,
        }
        for protocol, blocks in expected.items():
            m = metrics(make_scenario(), protocol)
            assert 1.0 / (m.aor * 1e-3) == pytest.approx(blocks, rel=0.15)


class TestStructuralProperties:
    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(min_value=0.1, max_value=10.0))
    def test_joint_scale_invariance(self, c):
        base = make_scenario(gamma0=50.0, omegas=(1.0, 2.0, 0.7))
        scaled = make_scenario(gamma0=50.0 / c, omegas=(c, 2.0 * c, 0.7 * c))
        for protocol in Protocol:
            m0 = metrics(base, protocol)
            m1 = metrics(scaled, protocol)
            assert m1.p_out == pytest.approx(m0.p_out, rel=1e-9)
            assert m1.aor == pytest.approx(m0.aor, rel=1e-9)
            assert m1.aod == pytest.approx(m0.aod, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(min_value=0.05, max_value=20.0))
    def test_doppler_linearity(self, c):
        base = make_scenario(gamma0=25.0, dopplers=(0.8, 1.1, 0.5))
        scaled = make_scenario(gamma0=25.0, dopplers=(0.8 * c, 1.1 * c, 0.5 * c))
        for protocol in Protocol:
            m0 = metrics(base, protocol)
            m1 = metrics(scaled, protocol)
            assert m1.p_out == pytest.approx(m0.p_out, rel=1e-12)
            assert m1.aor == pytest.approx(c * m0.aor, rel=1e-9)
            assert m1.aod == pytest.approx(m0.aod / c, rel=1e-9)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_outage_probability_strictly_decreasing_in_snr(self, protocol):
        ops = [
            metrics(make_scenario(gamma0=10.0 ** (db / 10.0)), protocol).p_out
            for db in np.linspace(0.0, 40.0, 17)
        ]
        assert all(b < a for a, b in zip(ops, ops[1:]))
