"""Scenario derivation, Rayleigh statistics, and threshold scaling."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from coopoutage import Protocol, asym, channel, metrics
from coopoutage.channel import (
    LinkGains,
    NodeDopplers,
    Scenario,
    derive,
    rayleigh_cdf,
    rayleigh_lcr,
)


def make_scenario(gamma0=100.0, r0=0.5, omegas=(1.0, 1.0, 1.0), dopplers=(1.0, 1.0, 1.0), y0=None):
    return Scenario(
        gamma0=gamma0,
        r0=r0,
        gains=LinkGains(*omegas),
        dopplers=NodeDopplers(*dopplers),
        y0=y0,
    )


class TestDerive:
    def test_equal_node_dopplers(self):
        ld, _ = derive(make_scenario(dopplers=(2.0, 2.0, 2.0)))
        root2 = math.sqrt(2.0)
        assert ld.f_x == pytest.approx(2.0 * root2, rel=1e-15)
        assert ld.f_y == pytest.approx(2.0 * root2, rel=1e-15)
        assert ld.f_z == pytest.approx(2.0 * root2, rel=1e-15)
        assert ld.sigma2_x == pytest.approx(2.0 * math.pi**2 * 4.0, rel=1e-15)

    def test_only_source_moves(self):
        ld, _ = derive(make_scenario(dopplers=(3.0, 0.0, 0.0)))
        assert (ld.f_x, ld.f_y, ld.f_z) == (3.0, 3.0, 0.0)
        assert ld.sigma2_z == 0.0

    def test_threshold_values(self):
        _, th = derive(make_scenario(gamma0=100.0, r0=0.5))
        assert th.g0 == pytest.approx(0.1, rel=1e-15)
        assert th.x0 == pytest.approx(math.sqrt((math.sqrt(2.0) - 1.0) / 100.0), rel=1e-14)
        assert th.x0 == pytest.approx(0.0643594, abs=5e-8)
        assert th.c1 == pytest.approx(0.01, rel=1e-15)
        assert th.y0 == th.g0

    def test_explicit_relay_threshold(self):
        _, th = derive(make_scenario(y0=0.25))
        assert th.y0 == 0.25

    def test_threshold_scaling_in_snr(self):
        _, th1 = derive(make_scenario(gamma0=10.0))
        _, th2 = derive(make_scenario(gamma0=1000.0))
        assert th2.g0 / th1.g0 == pytest.approx(0.1, rel=1e-12)
        assert th2.x0 / th1.x0 == pytest.approx(0.1, rel=1e-12)
        assert th2.c1 / th1.c1 == pytest.approx(0.01, rel=1e-12)
        assert th1.g0 > th1.x0 > 0.0

    def test_sigma_composition_per_link(self):
        fs, fr, fd = 1.5, 0.4, 2.2
        ox, oy, oz = 0.7, 1.3, 2.4
        ld, _ = derive(make_scenario(omegas=(ox, oy, oz), dopplers=(fs, fr, fd)))
        pi2 = math.pi**2
        assert ld.sigma2_x == pytest.approx(pi2 * ox * (fs**2 + fd**2), rel=1e-15)
        assert ld.sigma2_y == pytest.approx(pi2 * oy * (fs**2 + fr**2), rel=1e-15)
        assert ld.sigma2_z == pytest.approx(pi2 * oz * (fr**2 + fd**2), rel=1e-15)


class TestDerivedCache:
    def test_computed_once_and_equal_to_derive(self):
        sc = make_scenario(omegas=(0.7, 1.3, 2.4), dopplers=(1.5, 0.4, 2.2), y0=0.3)
        assert sc.derived is sc.derived
        assert sc.derived == derive(sc)

    def test_not_part_of_value_identity(self):
        filled, fresh = make_scenario(), make_scenario()
        filled.derived  # fills the cache of one of the two
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert "derived" not in repr(filled)

    def test_replaced_scenario_derives_afresh(self):
        sc = make_scenario(gamma0=100.0)
        sc.derived  # a filled cache must not travel with replace
        other = dataclasses.replace(sc, gamma0=10000.0)
        assert other.derived[1] == derive(other)[1]
        assert other.derived[1].g0 == pytest.approx(0.1 * sc.derived[1].g0, rel=1e-12)

    def test_metrics_and_asym_derive_once_per_scenario(self, monkeypatch):
        calls = []
        original = channel.derive

        def counting(scenario):
            calls.append(scenario)
            return original(scenario)

        # every module global bound to derive, so a direct call is counted too
        for name, module in list(sys.modules.items()):
            if name == "coopoutage" or name.startswith("coopoutage."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        sc = make_scenario(gamma0=1000.0)
        for protocol in Protocol:
            metrics(sc, protocol)
            asym(sc, protocol)
        assert len(calls) == 1


class TestScenarioTerm:
    """channel.scenario_term: a function of a Scenario, kept on the instance."""

    @staticmethod
    def counted(fn):
        calls = []

        def _probe(scenario):
            calls.append(scenario)
            return fn(scenario)

        return channel.scenario_term(_probe), calls

    def test_computed_once_under_the_function_name(self):
        term, calls = self.counted(lambda sc: sc.gamma0 * 2.0)
        sc, fresh = make_scenario(), make_scenario()
        assert term(sc) == term(sc) == 200.0
        assert len(calls) == 1 and sc.__dict__["_probe"] == 200.0
        assert sc == fresh and hash(sc) == hash(fresh) and repr(sc) == repr(fresh)
        assert "_probe" not in dataclasses.replace(sc).__dict__
        assert term(dataclasses.replace(sc, gamma0=10.0)) == 20.0 and len(calls) == 2

    def test_a_raising_computation_keeps_nothing(self):
        def fail(sc):
            raise ValueError("no term")

        term, calls = self.counted(fail)
        sc = make_scenario()
        for _ in range(2):
            with pytest.raises(ValueError, match="no term"):
                term(sc)
        assert len(calls) == 2 and "_probe" not in sc.__dict__


class TestValidation:
    def test_rejects_bad_scenario(self):
        with pytest.raises(ValueError):
            make_scenario(gamma0=0.0)
        with pytest.raises(ValueError):
            make_scenario(r0=-0.1)
        with pytest.raises(ValueError):
            make_scenario(y0=0.0)
        with pytest.raises(ValueError):
            LinkGains(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            NodeDopplers(-1.0, 1.0, 1.0)
        # NaN slips past every ordered comparison and inf overflows the
        # thresholds; both must be refused at construction
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                make_scenario(gamma0=bad)
            with pytest.raises(ValueError):
                make_scenario(r0=bad)
            with pytest.raises(ValueError):
                make_scenario(y0=bad)
            with pytest.raises(ValueError):
                LinkGains(1.0, bad, 1.0)
            with pytest.raises(ValueError):
                NodeDopplers(1.0, 1.0, bad)

    def test_rejects_r0_whose_threshold_overflows(self):
        # 2^(2 r0) overflows a float from r0 = 512 on, and (2^(2 r0) - 1)/gamma0
        # can overflow below that at a small SNR
        for gamma0, r0 in ((100.0, 600.0), (100.0, 512.0), (1e-3, 511.5)):
            with pytest.raises(ValueError, match="r0 = "):
                make_scenario(gamma0=gamma0, r0=r0)
        assert math.isfinite(make_scenario(gamma0=100.0, r0=511.5).derived[1].g0)

    def test_all_static_allowed_at_construction(self):
        sc = make_scenario(dopplers=(0.0, 0.0, 0.0))
        assert sc.dopplers.all_static


class TestRayleighCdf:
    def test_anchors(self):
        assert rayleigh_cdf(0.0, 2.0) == 0.0
        omega = 1.7
        assert rayleigh_cdf(math.sqrt(omega), omega) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            rayleigh_cdf(-0.1, 1.0)
        with pytest.raises(ValueError):
            rayleigh_cdf(0.1, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="^x must be finite"):
            rayleigh_cdf(bad, 1.0)
        with pytest.raises(ValueError, match="^omega must be finite and positive"):
            rayleigh_cdf(1.0, bad)


class TestRayleighLcr:
    def test_zero_level(self):
        assert rayleigh_lcr(0.0, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite_input(self, bad):
        for i, name in enumerate(("level", "omega", "sigma2")):
            args = [1.0, 1.0, 1.0]
            args[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                rayleigh_lcr(*args)

    def test_reference_value(self):
        got = rayleigh_lcr(1.0, 1.0, math.pi**2)
        assert got == pytest.approx(math.sqrt(2.0 * math.pi) * math.exp(-1.0), rel=1e-14)
        assert got == pytest.approx(0.92214, abs=5e-6)

    @pytest.mark.parametrize(
        "args, rate",
        [
            # level/omega overflows where exp(-level^2/omega) is 0 (nan before)
            ((1.0, 1e-310, 1.0), 0.0),
            # exp(-level^2/omega) subnormal, lifted by level/omega: 50-digit
            # mpmath, the last one a domain_grid edge row that underflowed to 0
            ((29.2, 1.2, 5.0), 1.1400418495809196e-307),
            ((3.0, 0.0124, 5.0), 2.6386863347607838e-313),
            ((21.876627267486572, 0.6405445472454009, 1030.534456230465), 2.8582080674878833e-322),
        ],
    )
    def test_subnormal_exponential(self, args, rate):
        # within one unit in the last place of the float nearest the rate
        ulp = math.ulp(rate)
        assert abs(rayleigh_lcr(*args) - rate) <= max(ulp, 1e-12 * rate)

    def test_subnormal_squared_level(self):
        # level^2 = 1e-320 is subnormal; forming it put the rate 1.1e-5 off.
        # 50-digit mpmath
        assert rayleigh_lcr(1e-160, 1e-320, 1.0) == pytest.approx(2.9352532632928982e159, rel=1e-12, abs=0.0)

    def test_quadrupled_derivative_variance_doubles_rate(self):
        for level in (0.2, 0.9, 2.1):
            assert rayleigh_lcr(level, 1.3, 4.0 * 0.8) == pytest.approx(
                2.0 * rayleigh_lcr(level, 1.3, 0.8), rel=1e-14
            )

    def test_maximum_at_sqrt_half_omega(self):
        omega = 2.3
        levels = np.linspace(1e-3, 4.0, 4001)
        rates = [rayleigh_lcr(float(v), omega, 1.0) for v in levels]
        peak = levels[int(np.argmax(rates))]
        assert peak == pytest.approx(math.sqrt(omega / 2.0), abs=2e-3)
