"""High-SNR closed forms: reductions, table coefficients, and slope laws."""

import math
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopoutage.asym_metrics import (
    Table1System,
    _coefficients,
    _power_law,
    asym,
    fit_loglog_slope,
    op_to_aod,
    op_to_aor,
    table1_symmetric,
)
from coopoutage.channel import LinkGains, NodeDopplers, Scenario, derive
from coopoutage.exact_metrics import Protocol, metrics

_SQRT_PI = math.sqrt(math.pi)


def make_scenario(gamma0=100.0, r0=0.5, omegas=(1.0, 1.0, 1.0), dopplers=(1.0, 1.0, 1.0)):
    return Scenario(
        gamma0=gamma0, r0=r0, gains=LinkGains(*omegas), dopplers=NodeDopplers(*dopplers)
    )


def af_rate_equal_doppler_reference(omegas, f_m, g0sq):
    """Equal-node-Doppler AF rate closed form, written independently."""
    ox, oy, oz = omegas

    def part(oa):
        return (ox + math.sqrt(ox * oa) + oa) / (math.sqrt(ox) + math.sqrt(oa)) / (ox * oa)

    return 4.0 * _SQRT_PI * f_m / 3.0 * (part(oz) + part(oy)) * g0sq**1.5


def sr_rate_equal_doppler_reference(omegas, f_m, g0sq):
    """Equal-node-Doppler selection-relaying rate closed form.

    The first two terms are sqrt(2)/(sqrt(ox) * oy) and 1/(ox * sqrt(oy));
    this grouping is the one that reproduces the symmetric-network
    (sqrt(2) + 3) sqrt(pi) coefficient.
    """
    ox, oy, oz = omegas
    third = (
        4.0 / (3.0 * ox * oz) * (ox + math.sqrt(ox * oz) + oz) / (math.sqrt(ox) + math.sqrt(oz))
    )
    return (
        _SQRT_PI
        * f_m
        * (math.sqrt(2.0) / (math.sqrt(ox) * oy) + 1.0 / (ox * math.sqrt(oy)) + third)
        * g0sq**1.5
    )


class TestAsymClosedForms:
    def test_df_rate_symmetric(self):
        a = asym(make_scenario(), Protocol.DF)
        assert a.aor == pytest.approx(math.sqrt(2.0 * math.pi) * math.sqrt(2.0) * 0.1, rel=1e-12)
        assert a.aor == pytest.approx(2.0 * _SQRT_PI * 0.1, rel=1e-12)
        assert a.p_out == pytest.approx(1e-2, rel=1e-12)

    def test_af_duration_symmetric(self):
        a = asym(make_scenario(), Protocol.AF)
        assert a.aod == pytest.approx(1.0 / (4.0 * _SQRT_PI * 10.0), rel=1e-12)
        assert a.aod == pytest.approx(0.014105, abs=5e-7)

    def test_direct_duration_both_terminals_mobile(self):
        a = asym(make_scenario(), Protocol.DIRECT)
        ref = math.sqrt((math.sqrt(2.0) - 1.0) / 100.0) / (math.sqrt(2.0 * math.pi) * math.sqrt(2.0))
        assert a.aod == pytest.approx(ref, rel=1e-12)
        assert a.aod / 1e-3 == pytest.approx(18.16, abs=5e-3)

    def test_duration_identity_and_slopes(self):
        sc = make_scenario(gamma0=30.0)
        _, th = derive(sc)
        assert [p.value for p in Protocol] == ["direct", "af", "df", "sr"]
        for protocol in Protocol:
            a = asym(sc, protocol)
            assert a.aod * a.aor == pytest.approx(a.p_out, rel=1e-14)
            d = protocol.diversity_gain
            assert a.slope_op == -d
            assert a.slope_aor == -(d - 0.5)
            assert a.slope_aod == -0.5
            # the member data: token, gain and level rule of each protocol
            assert Protocol(protocol.value) is protocol and protocol.token == protocol.value
            assert pickle.loads(pickle.dumps(protocol)) is protocol
            assert d == (2 if protocol in (Protocol.AF, Protocol.SR) else 1)
            assert protocol.level(th) == (th.x0 if protocol is Protocol.DIRECT else th.g0)


class TestReductions:
    @settings(max_examples=30, deadline=None)
    @given(
        ox=st.floats(min_value=0.05, max_value=20.0),
        oy=st.floats(min_value=0.05, max_value=20.0),
        oz=st.floats(min_value=0.05, max_value=20.0),
        f_m=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_af_rate_reduces_under_equal_dopplers(self, ox, oy, oz, f_m):
        sc = make_scenario(omegas=(ox, oy, oz), dopplers=(f_m, f_m, f_m))
        _, th = derive(sc)
        a = asym(sc, Protocol.AF)
        assert a.aor == pytest.approx(
            af_rate_equal_doppler_reference((ox, oy, oz), f_m, th.g0**2), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(
        ox=st.floats(min_value=0.05, max_value=20.0),
        oy=st.floats(min_value=0.05, max_value=20.0),
        oz=st.floats(min_value=0.05, max_value=20.0),
        f_m=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_sr_rate_reduces_under_equal_dopplers(self, ox, oy, oz, f_m):
        sc = make_scenario(omegas=(ox, oy, oz), dopplers=(f_m, f_m, f_m))
        _, th = derive(sc)
        a = asym(sc, Protocol.SR)
        assert a.aor == pytest.approx(
            sr_rate_equal_doppler_reference((ox, oy, oz), f_m, th.g0**2), rel=1e-12
        )

    def test_removable_equal_parameter_limits(self):
        # the factored cubic-over-quadratic ratio is continuous through equality
        base = asym(make_scenario(omegas=(1.0, 1.0, 1.0)), Protocol.AF).aor
        for eps in (1e-12, 1e-9, 1e-6):
            near = asym(make_scenario(omegas=(1.0 + eps, 1.0, 1.0)), Protocol.AF).aor
            assert near == pytest.approx(base, rel=1e-4)


class TestTable1:
    def test_rows_match_general_formulas_at_symmetric_point(self):
        for gamma_bar, omega in [(100.0, 1.0), (250.0, 2.5), (1e4, 0.5)]:
            sc = make_scenario(gamma0=gamma_bar / omega, omegas=(omega, omega, omega))
            for protocol, system in [
                (Protocol.DIRECT, Table1System.DIRECT),
                (Protocol.AF, Table1System.AF),
                (Protocol.DF, Table1System.DF),
                (Protocol.SR, Table1System.SR),
            ]:
                a = asym(sc, protocol)
                t = table1_symmetric(gamma_bar, 0.5, 1.0, system)
                assert t.p_out == pytest.approx(a.p_out, rel=1e-12)
                assert t.aor == pytest.approx(a.aor, rel=1e-12)
                assert system.diversity_gain == protocol.diversity_gain
                assert Protocol(system.value) is protocol

    def test_rows_match_paper_closed_forms(self):
        # Table 1 as the paper writes it, at one (gamma_bar, r0, f_m)
        gamma_bar, r0, f_m = 250.0, 0.75, 2.5
        c1, c2 = 2.0**r0 - 1.0, 2.0 ** (2.0 * r0) - 1.0
        rows = {
            Table1System.DIRECT: (c1 / gamma_bar, 2.0 * _SQRT_PI * f_m * math.sqrt(c1 / gamma_bar)),
            Table1System.SIMO_1X2: (c2**2 / (2.0 * gamma_bar**2), 2.0 * _SQRT_PI * f_m * (c2 / gamma_bar) ** 1.5),
            Table1System.AF: (c2**2 / gamma_bar**2, 4.0 * _SQRT_PI * f_m * (c2 / gamma_bar) ** 1.5),
            Table1System.DF: (c2 / gamma_bar, 2.0 * _SQRT_PI * f_m * math.sqrt(c2 / gamma_bar)),
            Table1System.SR: (
                c2**2 / gamma_bar**2,
                (3.0 + math.sqrt(2.0)) * _SQRT_PI * f_m * (c2 / gamma_bar) ** 1.5,
            ),
        }
        assert list(rows) == list(Table1System)
        for system, (p_out, aor) in rows.items():
            t = table1_symmetric(gamma_bar, r0, f_m, system)
            assert t.p_out == pytest.approx(p_out, rel=1e-15)
            assert t.aor == pytest.approx(aor, rel=1e-15)
            assert t.aod == pytest.approx(p_out / aor, rel=1e-15)

    def test_sr_duration_row(self):
        t = table1_symmetric(100.0, 0.5, 1.0, Table1System.SR)
        assert t.aod == pytest.approx(1.0 / ((math.sqrt(2.0) + 3.0) * _SQRT_PI * 10.0), rel=1e-12)
        assert t.aod / 1e-3 == pytest.approx(12.78, abs=5e-3)

    def test_simo_row_shares_af_duration_coefficient(self):
        simo = table1_symmetric(100.0, 0.5, 1.0, Table1System.SIMO_1X2)
        af = table1_symmetric(100.0, 0.5, 1.0, Table1System.AF)
        assert simo.aod == pytest.approx(af.aod, rel=1e-14)
        assert simo.p_out == pytest.approx(af.p_out / 2.0, rel=1e-14)
        assert simo.aor == pytest.approx(af.aor / 2.0, rel=1e-14)

    def test_df_rate_depends_only_on_relay_decoding_link(self):
        # the relayed-protocol threshold applied to the S->R link alone
        from coopoutage.channel import rayleigh_lcr

        for omega in (0.5, 1.0, 3.0):
            sc = make_scenario(omegas=(omega, 2.0, 0.3), dopplers=(1.0, 1.0, 1.0))
            ld, th = derive(sc)
            a = asym(sc, Protocol.DF)
            small = rayleigh_lcr(th.g0, 2.0, ld.sigma2_y) / math.exp(-th.g0**2 / 2.0)
            assert a.aor == pytest.approx(small, rel=1e-10)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            table1_symmetric(0.0, 0.5, 1.0, Table1System.AF)
        with pytest.raises(ValueError):
            table1_symmetric(10.0, 0.5, 0.0, Table1System.AF)
        with pytest.raises(ValueError):
            table1_symmetric(10.0, -0.5, 1.0, Table1System.AF)
        # non-finite input is refused as Scenario refuses it
        for bad in (math.nan, math.inf):
            for args in ((bad, 0.5, 1.0), (10.0, 0.5, bad), (10.0, bad, 1.0)):
                with pytest.raises(ValueError):
                    table1_symmetric(*args, Table1System.AF)
        # an r0 whose 2^(2 r0) overflows is refused for every row, the
        # direct one (2^r0) included
        for system in Table1System:
            with pytest.raises(ValueError, match="r0 = 600"):
                table1_symmetric(100.0, 600.0, 1.0, system)
        # zero rate: no outage, so the duration is undefined as in asym
        for system in Table1System:
            t = table1_symmetric(100.0, 0.0, 1.0, system)
            assert t.p_out == 0.0 and t.aor == 0.0 and math.isnan(t.aod)


class TestAsymptoticConsistency:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_exact_over_asym_within_two_percent_at_40db(self, protocol):
        sc = make_scenario(gamma0=1e4)
        e = metrics(sc, protocol)
        a = asym(sc, protocol)
        assert e.p_out / a.p_out == pytest.approx(1.0, abs=0.02)
        assert e.aor / a.aor == pytest.approx(1.0, abs=0.02)
        assert e.aod / a.aod == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_fitted_slopes_over_30_to_40_db(self, protocol):
        points_db = np.linspace(30.0, 40.0, 6)
        gammas = 10.0 ** (points_db / 10.0)
        ms = [metrics(make_scenario(gamma0=g), protocol) for g in gammas]
        d = protocol.diversity_gain
        s_aor, _ = fit_loglog_slope(gammas, np.array([m.aor for m in ms]))
        s_aod, _ = fit_loglog_slope(gammas, np.array([m.aod for m in ms]))
        assert s_aor == pytest.approx(-(d - 0.5), abs=0.05)
        assert s_aod == pytest.approx(-0.5, abs=0.05)


class TestRateVersusOutageProbability:
    def test_exponents(self):
        sc = make_scenario(omegas=(1.3, 0.8, 2.0), dopplers=(0.7, 1.2, 1.0))
        for protocol in Protocol:
            d = protocol.diversity_gain
            lo, hi = 1e-7, 1e-5
            slope = math.log(op_to_aor(hi, sc, protocol) / op_to_aor(lo, sc, protocol)) / math.log(
                hi / lo
            )
            assert slope == pytest.approx((d + 1) / 4.0, rel=1e-12)
            slope_d = math.log(
                op_to_aod(hi, sc, protocol) / op_to_aod(lo, sc, protocol)
            ) / math.log(hi / lo)
            assert slope_d == pytest.approx((3 - d) / 4.0, rel=1e-12)

    def test_product_recovers_probability(self):
        sc = make_scenario()
        for protocol in Protocol:
            p = 3.7e-4
            assert op_to_aor(p, sc, protocol) * op_to_aod(p, sc, protocol) == pytest.approx(
                p, rel=1e-14
            )

    def test_consistent_with_asym_at_matching_point(self):
        # feeding the asymptotic OP back through the power law returns the
        # asymptotic AOR (same SNR eliminated both ways)
        for protocol in Protocol:
            for gamma0 in (1e3, 1e4, 1e5):
                sc = make_scenario(gamma0=gamma0, omegas=(1.2, 0.6, 1.9))
                a = asym(sc, protocol)
                assert op_to_aor(a.p_out, sc, protocol) == pytest.approx(a.aor, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_inverts_the_power_law_at_any_diversity_gain(self, d):
        # OP = p*level^(2d) and AOR = n*level^(2d - 1) give
        # AOR = n*(OP/p)^((2d - 1)/(2d)) for every d, not only d = 1, 2
        sc = make_scenario(omegas=(1.2, 0.6, 1.9))
        protocol = types.SimpleNamespace(token="af", diversity_gain=d, level=Protocol.AF.level)
        law = _power_law(*_coefficients(sc, protocol), d)
        assert op_to_aor(law.p_out, sc, protocol) == pytest.approx(law.aor, rel=1e-12)
        assert op_to_aod(law.p_out, sc, protocol) == pytest.approx(law.aod, rel=1e-12)

    def test_sr_spacing_and_duration_orders_at_1e_minus_5(self):
        sc = make_scenario()
        rate = op_to_aor(1e-5, sc, Protocol.SR)  # per second with f_m = 1
        assert 1.0 / rate == pytest.approx(1000.0, rel=0.5)  # spacing in coherence times
        assert op_to_aod(1e-5, sc, Protocol.SR) == pytest.approx(1e-2, rel=0.5)

    def test_domain(self):
        sc = make_scenario()
        with pytest.raises(ValueError):
            op_to_aor(0.0, sc, Protocol.AF)
        with pytest.raises(ValueError):
            op_to_aor(1.0, sc, Protocol.AF)


class TestSlopeFitting:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, rms = fit_loglog_slope(x, 3.0 * x**-1.5)
        assert slope == pytest.approx(-1.5, rel=1e-12)
        assert rms < 1e-12

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([1.0]), np.array([1.0]))
