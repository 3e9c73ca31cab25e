"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria (symmetric network = unit mean-square gains, equal node Dopplers,
r0 = 0.5 b/s/Hz unless stated):
  1. closed-form outage durations in coding blocks at 20 dB, and exact
     integrals approaching them (15% at 20 dB, 2% at 40 dB)
  2. mean coding blocks between outages at 20 dB from the exact rates
  3. fitted log-log decay exponents over 30-40 dB
  4. selection relaying with strong/weak direct link at 20 dB against
     reference operating-point readings
  5. rate versus outage-probability power law at OP = 1e-5
  6. Monte Carlo equivalence at 0 and 10 dB (2e7 samples, 64x oversampling)
  7. structural properties (scaling, identities, limit branches)
  8. numerics (quadrature self-convergence, special-function oracles)
"""

import math

import numpy as np
import pytest

from coopoutage.asym_metrics import asym, fit_loglog_slope, op_to_aor
from coopoutage.channel import LinkGains, NodeDopplers, Scenario, derive
from coopoutage.exact_metrics import (
    Protocol,
    aor_af,
    lcr_u,
    metrics,
    op_af,
    prob_u_exceeds,
)
from coopoutage.mc_sim import (
    CrossingCounts,
    EmpiricalMetrics,
    FadingTrace,
    TraceConfig,
    equivalent_gain,
    gen_link_traces,
)
from coopoutage.numerics import bessel_k0, bessel_k1, gauss_legendre, integrate_semi_infinite, upper_inc_gamma_3_2

FM_T = 1e-3  # coding-block duration in units of 1/f_m


def sym_scenario(gamma_db: float, r0: float = 0.5, omegas=(1.0, 1.0, 1.0)) -> Scenario:
    return Scenario(
        gamma0=10.0 ** (gamma_db / 10.0),
        r0=r0,
        gains=LinkGains(*omegas),
        dopplers=NodeDopplers(1.0, 1.0, 1.0),
    )


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    return passed


# ---------------------------------------------------------------------------
# criterion 1: outage durations in coding blocks


ASYM_BLOCKS_20DB = {
    Protocol.SR: 12.78,
    Protocol.AF: 14.10,
    Protocol.DF: 28.21,
    Protocol.DIRECT: 18.16,
}


def test_criterion_1_block_durations():
    ok = True
    for protocol, blocks in ASYM_BLOCKS_20DB.items():
        a20 = asym(sym_scenario(20.0), protocol)
        got = a20.aod / FM_T
        ok &= report(
            f"1 asym-blocks {protocol.value}",
            abs(got - blocks) <= 0.005,
            f"got {got:.4f} want {blocks} (4 significant digits)",
        )
        e20 = metrics(sym_scenario(20.0), protocol)
        ok &= report(
            f"1 exact-20dB {protocol.value}",
            abs(e20.aod / FM_T / blocks - 1.0) <= 0.15,
            f"got {e20.aod / FM_T:.3f} want {blocks} +-15%",
        )
        a40 = asym(sym_scenario(40.0), protocol)
        e40 = metrics(sym_scenario(40.0), protocol)
        ok &= report(
            f"1 exact-40dB {protocol.value}",
            abs(e40.aod / a40.aod - 1.0) <= 0.02,
            f"exact/asym {e40.aod / a40.aod:.4f} want 1 +-2%",
        )
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: mean blocks between outages


BLOCKS_BETWEEN_20DB = {
    Protocol.SR: 1.3e5,
    Protocol.AF: 1.4e5,
    Protocol.DF: 2.8e3,
    Protocol.DIRECT: 4.3e3,
}


def test_criterion_2_blocks_between_outages():
    ok = True
    for protocol, blocks in BLOCKS_BETWEEN_20DB.items():
        m = metrics(sym_scenario(20.0), protocol)
        got = 1.0 / (m.aor * FM_T)
        ok &= report(
            f"2 {protocol.value}",
            abs(got / blocks - 1.0) <= 0.15,
            f"got {got:.4g} want {blocks:.2g} +-15%",
        )
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: log-log decay exponents over 30-40 dB


def test_criterion_3_slope_suite():
    points_db = np.linspace(30.0, 40.0, 6)
    gammas = 10.0 ** (points_db / 10.0)
    ok = True
    for protocol in Protocol:
        ms = [metrics(sym_scenario(db), protocol) for db in points_db]
        d = protocol.diversity_gain
        s_aor, _ = fit_loglog_slope(gammas, np.array([m.aor for m in ms]))
        s_aod, _ = fit_loglog_slope(gammas, np.array([m.aod for m in ms]))
        ok &= report(
            f"3 aor {protocol.value}",
            abs(s_aor + (d - 0.5)) <= 0.05,
            f"slope {s_aor:+.4f} want {-(d - 0.5):+.2f} +-0.05",
        )
        ok &= report(
            f"3 aod {protocol.value}",
            abs(s_aod + 0.5) <= 0.05,
            f"slope {s_aod:+.4f} want -0.50 +-0.05",
        )
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: selection relaying with strong/weak direct link at 20 dB
#
# Reference operating-point readings: spacing between outages (in channel
# coherence times 1/f_m) and outage duration (in coherence times), +-20%.
# Note the two reference pairs are mutually inconsistent with the identity
# p_out = aor * aod: spacing * duration implies p_out = 4.8e-6 (strong link)
# where the closed-form and Monte Carlo value is 9.9e-6, a factor 2.05 gap,
# so the spacing and duration readings cannot both hold at once.  The
# fine-sampled trace simulator reproduces the computed rate (and excludes
# the rate implied by the spacing reading), so the failures below are
# reported honestly rather than fitted.


def test_criterion_4_asymmetric_selection_relaying():
    cases = {
        # omega_x: (spacing in coherence times, duration in coherence times)
        10.0: (8.3e2, 4e-3),
        0.1: (30.0, 2e-2),
    }
    ok = True
    for omega_x, (spacing_ref, duration_ref) in cases.items():
        m = metrics(sym_scenario(20.0, omegas=(omega_x, 1.0, 1.0)), Protocol.SR)
        spacing = 1.0 / m.aor  # coherence times, f_m = 1
        duration = m.aod
        ok &= report(
            f"4 spacing omega_x={omega_x}",
            abs(spacing / spacing_ref - 1.0) <= 0.20,
            f"got {spacing:.3g} want {spacing_ref:.3g} +-20%",
        )
        ok &= report(
            f"4 duration omega_x={omega_x}",
            abs(duration / duration_ref - 1.0) <= 0.20,
            f"got {duration:.3g} want {duration_ref:.3g} +-20%",
        )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: rate versus outage probability at OP = 1e-5


def solve_gamma_db_for_op(protocol: Protocol, target: float) -> float:
    lo, hi = 0.0, 80.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if metrics(sym_scenario(mid), protocol).p_out > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_5_rate_versus_outage_probability():
    ok = True
    for protocol in Protocol:
        level = 1e-3 if protocol in (Protocol.SR, Protocol.AF) else 1e-2
        rates = {}
        for target in (1e-5, 1e-6):
            db = solve_gamma_db_for_op(protocol, target)
            m = metrics(sym_scenario(db), protocol)
            assert m.p_out == pytest.approx(target, rel=1e-6)
            rates[target] = m.aor  # per coherence time (f_m = 1)
        ok &= report(
            f"5 rate-level {protocol.value}",
            level / 1.5 <= rates[1e-5] <= level * 1.5,
            f"aor/f_m {rates[1e-5]:.3e} want {level:.0e} within x1.5",
        )
        slope = math.log(rates[1e-5] / rates[1e-6]) / math.log(10.0)
        d = protocol.diversity_gain
        ok &= report(
            f"5 exponent {protocol.value}",
            abs(slope - (d + 1) / 4.0) <= 0.05,
            f"slope {slope:.4f} want {(d + 1) / 4:.2f} +-0.05",
        )
        # the high-SNR elimination law reproduces the rate it was built from
        sc = sym_scenario(solve_gamma_db_for_op(protocol, 1e-5))
        implied = op_to_aor(1e-5, sc, protocol)
        ok &= report(
            f"5 law {protocol.value}",
            abs(implied / rates[1e-5] - 1.0) <= 0.10,
            f"implied {implied:.3e} direct {rates[1e-5]:.3e}",
        )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: Monte Carlo equivalence at 0 and 10 dB


@pytest.fixture(scope="module")
def mc_traces():
    # one long realization per link; 64 rays keep the envelope-distribution
    # bias well under the 5% OP tolerance (criterion pins samples and
    # oversampling, not the ray count)
    cfg = TraceConfig(n_samples=20_000_000, seed=90, oversampling=64, n_sinusoids=64)
    scenario = sym_scenario(10.0)
    x, y, z = gen_link_traces(scenario, cfg)
    return x, y, z


def test_criterion_6_monte_carlo_equivalence(mc_traces):
    x, y, z = mc_traces
    ok = True
    for gamma_db in (0.0, 10.0):
        scenario = sym_scenario(gamma_db)
        ld, th = derive(scenario)
        for protocol in Protocol:
            g = equivalent_gain(protocol, x.samples, y.samples, z.samples, th)
            emp = EmpiricalMetrics.from_counts(
                CrossingCounts.from_trace(FadingTrace(x.dt, g), protocol.level(th))
            )
            exact = metrics(scenario, protocol)
            tag = f"{protocol.value}@{gamma_db:.0f}dB"
            ok &= report(
                f"6 op {tag}",
                abs(emp.p_out / exact.p_out - 1.0) <= 0.05,
                f"mc {emp.p_out:.4e} exact {exact.p_out:.4e} "
                f"dev {(emp.p_out / exact.p_out - 1.0) * 100:+.2f}% (tol 5%)",
            )
            ok &= report(
                f"6 aor {tag}",
                abs(emp.aor / exact.aor - 1.0) <= 0.10,
                f"mc {emp.aor:.4e} exact {exact.aor:.4e} "
                f"dev {(emp.aor / exact.aor - 1.0) * 100:+.2f}% (tol 10%)",
            )
            ok &= report(
                f"6 aod {tag}",
                abs(emp.aod / exact.aod - 1.0) <= 0.10,
                f"mc {emp.aod:.4e} exact {exact.aod:.4e} "
                f"dev {(emp.aod / exact.aod - 1.0) * 100:+.2f}% (tol 10%)",
            )
        # combined-gain crossing rate against the auxiliary-process closed form
        u = FadingTrace(x.dt, np.hypot(x.samples, z.samples))
        n_u_mc = EmpiricalMetrics.from_counts(CrossingCounts.from_trace(u, th.g0)).aor
        n_u_exact = lcr_u(th.g0, 1.0, 1.0, ld.sigma2_x, ld.sigma2_z)
        ok &= report(
            f"6 lcr-u @{gamma_db:.0f}dB",
            abs(n_u_mc / n_u_exact - 1.0) <= 0.05,
            f"mc {n_u_mc:.4e} exact {n_u_exact:.4e} "
            f"dev {(n_u_mc / n_u_exact - 1.0) * 100:+.2f}% (tol 5%)",
        )
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: structural property suites


def test_criterion_7_properties():
    ok = True
    base = Scenario(gamma0=50.0, r0=0.5, gains=LinkGains(1.0, 2.0, 0.7), dopplers=NodeDopplers(0.8, 1.1, 0.5))
    # joint (gains, SNR) scale invariance to 1e-9
    worst = 0.0
    for c in (0.13, 0.5, 2.0, 9.0):
        scaled = Scenario(
            gamma0=50.0 / c,
            r0=0.5,
            gains=LinkGains(1.0 * c, 2.0 * c, 0.7 * c),
            dopplers=base.dopplers,
        )
        for protocol in Protocol:
            m0, m1 = metrics(base, protocol), metrics(scaled, protocol)
            worst = max(
                worst,
                abs(m1.p_out / m0.p_out - 1.0),
                abs(m1.aor / m0.aor - 1.0),
                abs(m1.aod / m0.aod - 1.0),
            )
    ok &= report("7 scale-invariance", worst <= 1e-9, f"worst rel dev {worst:.2e} (tol 1e-9)")

    # Doppler linearity: rates scale by c, durations by 1/c, OP unchanged
    worst = 0.0
    for c in (0.25, 3.5):
        scaled = Scenario(
            gamma0=50.0,
            r0=0.5,
            gains=base.gains,
            dopplers=NodeDopplers(0.8 * c, 1.1 * c, 0.5 * c),
        )
        for protocol in Protocol:
            m0, m1 = metrics(base, protocol), metrics(scaled, protocol)
            worst = max(
                worst,
                abs(m1.p_out / m0.p_out - 1.0),
                abs(m1.aor / (c * m0.aor) - 1.0),
                abs(m1.aod * c / m0.aod - 1.0),
            )
    ok &= report("7 doppler-linearity", worst <= 1e-9, f"worst rel dev {worst:.2e} (tol 1e-9)")

    # duration identity: analytic to 1e-12, empirical exact by construction
    worst = max(
        abs(m.aod * m.aor / m.p_out - 1.0)
        for m in (metrics(sym_scenario(db), p) for db in (0.0, 17.0, 33.0) for p in Protocol)
    )
    ok &= report("7 duration-identity", worst <= 1e-12, f"worst rel dev {worst:.2e}")
    cfg = TraceConfig(n_samples=300_000, seed=41)
    sc = sym_scenario(10.0)
    _, th = derive(sc)
    x, y, z = gen_link_traces(sc, cfg)
    emp = EmpiricalMetrics.from_counts(
        CrossingCounts.from_trace(FadingTrace(x.dt, equivalent_gain(Protocol.DF, x.samples, y.samples, z.samples, th)), th.g0)
    )
    ok &= report(
        "7 empirical-identity",
        emp.aod * emp.aor == pytest.approx(emp.p_out, rel=1e-14),
        f"aod*aor={emp.aod * emp.aor!r} p_out={emp.p_out!r}",
    )

    # equal-Doppler reductions of the relayed-protocol rate asymptotes
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        ox, oy, oz = rng.uniform(0.1, 10.0, 3)
        f_m = rng.uniform(0.2, 5.0)
        sc = Scenario(gamma0=200.0, r0=0.5, gains=LinkGains(ox, oy, oz), dopplers=NodeDopplers(f_m, f_m, f_m))
        _, th = derive(sc)
        g3 = th.g0**3
        spi = math.sqrt(math.pi)

        def part(oa):
            return (ox + math.sqrt(ox * oa) + oa) / (math.sqrt(ox) + math.sqrt(oa)) / (ox * oa)

        af_ref = 4.0 * spi * f_m / 3.0 * (part(oz) + part(oy)) * g3
        sr_ref = (
            spi
            * f_m
            * (
                math.sqrt(2.0) / (math.sqrt(ox) * oy)
                + 1.0 / (ox * math.sqrt(oy))
                + 4.0 / (3.0 * ox * oz) * (ox + math.sqrt(ox * oz) + oz) / (math.sqrt(ox) + math.sqrt(oz))
            )
            * g3
        )
        worst = max(
            worst,
            abs(asym(sc, Protocol.AF).aor / af_ref - 1.0),
            abs(asym(sc, Protocol.SR).aor / sr_ref - 1.0),
        )
    ok &= report("7 equal-doppler-reductions", worst <= 1e-11, f"worst rel dev {worst:.2e}")

    # equal-parameter limit branches continuous to 1e-5
    worst = 0.0
    for eps in (1e-7, -1e-7, 1e-6):
        worst = max(
            worst,
            abs(prob_u_exceeds(0.6, 1.0, 1.0 + eps) / prob_u_exceeds(0.6, 1.0, 1.0) - 1.0),
            abs(lcr_u(0.7, 1.0, 1.0 + eps, 2.0, 5.0) / lcr_u(0.7, 1.0, 1.0, 2.0, 5.0) - 1.0),
            abs(lcr_u(0.7, 1.3, 1.0, 2.0, 2.0 * (1.0 + eps)) / lcr_u(0.7, 1.3, 1.0, 2.0, 2.0) - 1.0),
            abs(
                lcr_u(0.7, 1.0 + eps, 1.0, 2.0 * (1.0 + eps), 2.0)
                / lcr_u(0.7, 1.0, 1.0, 2.0, 2.0)
                - 1.0
            ),
        )
    ok &= report("7 limit-branches", worst <= 1e-5, f"worst rel dev {worst:.2e} (tol 1e-5)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: numerics suite


def test_criterion_8_numerics():
    ok = True
    # self-convergence of the outage integrals below 1e-8
    worst = 0.0
    for db in (0.0, 20.0, 40.0):
        sc = sym_scenario(db)
        worst = max(
            worst,
            abs(op_af(sc, tol=1e-8) / op_af(sc, tol=1e-11) - 1.0),
            abs(aor_af(sc, tol=1e-8) / aor_af(sc, tol=1e-9) - 1.0),
        )
    ok &= report("8 self-convergence", worst <= 1e-8, f"worst rel dev {worst:.2e} (tol 1e-8)")

    # special functions against their independent oracles
    def k_oracle(z, nu):
        tmax = float(np.arccosh(1.0 + 745.0 / z))
        rule = gauss_legendre(2000, 0.0, tmax)
        ch = np.cosh(rule.nodes)
        return float(np.sum(rule.weights * np.exp(-z * ch) * (ch if nu else 1.0)))

    worst = 0.0
    for z in np.logspace(-5, 1.5, 12):
        worst = max(
            worst,
            abs(bessel_k0(float(z)) / k_oracle(float(z), 0) - 1.0),
            abs(bessel_k1(float(z)) / k_oracle(float(z), 1) - 1.0),
        )

    def g32_series(x):
        total = 0.5 * math.sqrt(math.pi) - (2.0 / 3.0) * x**1.5
        fact = 1.0
        for k in range(1, 80):
            fact *= k
            total -= (-1.0) ** k * x ** (k + 1.5) / ((k + 1.5) * fact)
        return total

    for x in (0.05, 0.3, 0.8, 1.5):
        worst = max(worst, abs(upper_inc_gamma_3_2(x) / g32_series(x) - 1.0))
    ok &= report("8 special-functions", worst <= 1e-10, f"worst rel dev {worst:.2e} (tol 1e-10)")

    # exponential-product kernel identities on a parameter grid
    worst = 0.0
    for p in (0.4, 1.0, 3.0):
        for q in (0.2, 1.0, 2.5):
            arg = 2.0 * math.sqrt(q / p)
            j1 = integrate_semi_infinite(lambda u: np.exp(-(u / p + q / u)), 1e-11, laguerre_check=False)
            j2 = integrate_semi_infinite(lambda u: np.exp(-(u / p + q / u)) / u, 1e-11, laguerre_check=False)
            j3 = integrate_semi_infinite(lambda u: np.exp(-(u / p + q / u)) / u**2, 1e-11, laguerre_check=False)
            worst = max(
                worst,
                abs(j1 / (2.0 * math.sqrt(p * q) * bessel_k1(arg)) - 1.0),
                abs(j2 / (2.0 * bessel_k0(arg)) - 1.0),
                abs(j3 / (2.0 / q * math.sqrt(q / p) * bessel_k1(arg)) - 1.0),
            )
    ok &= report("8 kernel-identities", worst <= 1e-9, f"worst rel dev {worst:.2e} (tol 1e-9)")
    assert ok
