"""Scenario derivation, Rayleigh statistics, and threshold scaling."""

import copy
import dataclasses
import inspect
import math
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from coopoutage import AsymMetrics, OutageMetrics, Protocol, asym, channel, metrics
from coopoutage.channel import (
    LinkDerived,
    LinkGains,
    NodeDopplers,
    Scenario,
    Thresholds,
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


    @pytest.fixture
    def derive_calls(self, monkeypatch):
        calls = []
        original = channel.derive

        def counting(scenario):
            calls.append(scenario)
            return original(scenario)

        monkeypatch.setattr(channel, "derive", counting)
        return calls

    def test_derive_runs_once_per_instance(self, derive_calls):
        sc, twin = make_scenario(), make_scenario()
        values = [(sc.derived, twin.derived) for _ in range(3)]
        assert len(derive_calls) == 2 and derive_calls[0] is sc and derive_calls[1] is twin
        assert all(a is sc.derived and b is twin.derived for a, b in values)

    def test_kept_in_the_instance_dict_beside_the_fields(self):
        sc = make_scenario()
        fields = {f.name for f in dataclasses.fields(sc)}
        assert sc.__dict__.keys() == fields
        value = sc.derived
        assert sc.__dict__.keys() == fields | {"derived"} and sc.__dict__["derived"] is value
        assert "derived" not in fields
        assert "derived" not in dataclasses.replace(sc).__dict__

    def test_replace_derives_afresh_once(self, derive_calls):
        sc = make_scenario()
        kept = sc.derived
        twin = dataclasses.replace(sc)
        assert twin.derived == kept and twin.derived is not kept
        assert len(derive_calls) == 2 and derive_calls[1] is twin

    def test_racing_first_reads_keep_equal_values(self, monkeypatch):
        # no lock: each thread derives, and waits inside derive for the
        # other to get there too; derive is pure, so both values are equal
        barrier = threading.Barrier(2, timeout=10.0)
        original = channel.derive

        def waiting(scenario):
            barrier.wait()
            return original(scenario)

        monkeypatch.setattr(channel, "derive", waiting)
        sc = make_scenario(omegas=(0.7, 1.3, 2.4), dopplers=(1.5, 0.4, 2.2), y0=0.3)
        values = [None, None]

        def read(i):
            values[i] = sc.derived

        threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert values[0] == values[1] == original(sc)
        assert any(sc.derived is v for v in values)

    def test_first_reads_from_two_threads_do_not_crash(self):
        # CPython 3.11 builds an instance __dict__ on first access.  The script
        # primes the collector so that each first read of a fresh scenario
        # starts a collection, whose finaliser can hand the GIL to the other
        # thread mid-build; with the dict built there, not at construction,
        # it segfaults in the collector in most runs on 3.11.
        script = textwrap.dedent(
            """
            import gc, sys, threading
            sys.path.insert(0, %r)
            from coopoutage.channel import LinkGains, Scenario

            class Garbage:
                def __del__(self):
                    for _ in range(20):
                        pass

            box = [None]

            def read(barrier):
                for _ in range(3000):
                    barrier.wait()
                    a, b = Garbage(), Garbage()
                    a.other, b.other = b, a
                    del a, b
                    hold = [{} for _ in range(100)]  # empties the dict free list
                    gc.set_threshold(gc.get_count()[0])  # the next allocation collects
                    box[0].derived
                    del hold
                    barrier.wait()

            gc.set_threshold(3)
            sys.setswitchinterval(1e-6)
            barrier = threading.Barrier(3)
            threads = [threading.Thread(target=read, args=(barrier,)) for _ in range(2)]
            for t in threads:
                t.start()
            for k in range(3000):
                box[0] = Scenario(gamma0=100.0 + k, r0=0.5, gains=LinkGains(1.0, 2.0, 3.0))
                if k %% 100 == 0:
                    gc.collect()
                barrier.wait()
                barrier.wait()
            for t in threads:
                t.join()
            """
            % str(Path(channel.__file__).parents[1])
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]


# (record, positional values, field names, repr)
RECORDS = [
    (
        LinkDerived,
        (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        ("f_x", "f_y", "f_z", "sigma2_x", "sigma2_y", "sigma2_z"),
        "LinkDerived(f_x=1.0, f_y=2.0, f_z=3.0, sigma2_x=4.0, sigma2_y=5.0, sigma2_z=6.0)",
    ),
    (
        Thresholds,
        (0.5, 0.25, 0.01, 0.75),
        ("g0", "x0", "c1", "y0"),
        "Thresholds(g0=0.5, x0=0.25, c1=0.01, y0=0.75)",
    ),
    (
        OutageMetrics,
        (0.1, 2.0, None),
        ("p_out", "aor", "aod"),
        "OutageMetrics(p_out=0.1, aor=2.0, aod=None)",
    ),
    (
        AsymMetrics,
        (0.1, 2.0, 0.05, -2.0, -1.5, -0.5),
        ("p_out", "aor", "aod", "slope_op", "slope_aor", "slope_aod"),
        "AsymMetrics(p_out=0.1, aor=2.0, aod=0.05, slope_op=-2.0, slope_aor=-1.5, slope_aod=-0.5)",
    ),
]


@pytest.mark.parametrize("cls, values, names, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestResultRecords:
    """The frozen-dataclass contract of the four result records."""

    def test_fields_in_order(self, cls, values, names, text):
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert tuple(inspect.signature(cls).parameters) == names

    def test_positional_and_keyword_construction(self, cls, values, names, text):
        rec = cls(*values)
        assert rec == cls(**dict(zip(names, values)))
        assert tuple(getattr(rec, n) for n in names) == values
        assert vars(rec) == dict(zip(names, values))
        with pytest.raises(TypeError):
            cls(*values[:-1])

    def test_frozen(self, cls, values, names, text):
        rec = cls(*values)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.extra = 0.0
        assert tuple(getattr(rec, n) for n in names) == values

    def test_equality_and_hash(self, cls, values, names, text):
        rec, twin = cls(*values), cls(*values)
        assert rec == twin and rec is not twin and hash(rec) == hash(twin)
        other = cls(7.0, *values[1:])
        assert rec != other and len({rec, twin, other}) == 2

    def test_repr(self, cls, values, names, text):
        assert repr(cls(*values)) == text

    def test_replace(self, cls, values, names, text):
        rec = cls(*values)
        new = dataclasses.replace(rec, **{names[0]: 7.0})
        assert type(new) is cls and new == cls(7.0, *values[1:])
        assert dataclasses.replace(rec) == rec

    def test_copy_and_pickle(self, cls, values, names, text):
        rec = cls(*values)
        assert copy.copy(rec) == rec and vars(copy.copy(rec)) == vars(rec)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(rec, protocol))
            assert type(back) is cls and back == rec and vars(back) == vars(rec)


def test_thresholds_replace_as_validate_uses_it():
    _, th = derive(make_scenario(gamma0=100.0))
    th_mc = dataclasses.replace(th, c1=0.0)
    assert th_mc == Thresholds(th.g0, th.x0, 0.0, th.y0) and th.c1 == 0.01


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

    @pytest.mark.parametrize(
        "args, p",
        [
            # x^2 is subnormal; forming it put these 1.1e-5 and 9.8e-2 off.
            # 50-digit mpmath
            ((1e-160, 1e-300), 1e-20),
            ((3e-162, 1e-310), 8.9999999999996224e-14),
        ],
    )
    def test_subnormal_squared_argument(self, args, p):
        assert rayleigh_cdf(*args) == pytest.approx(p, rel=1e-14, abs=0.0)

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
            # a static link where exp(-level^2/omega) underflows
            ((30.0, 1.0, 0.0), 0.0),
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

    @pytest.mark.parametrize(
        "args, rate",
        [
            # level/omega is subnormal and a large sigma2 lifts the rate into
            # the normal range; the linear product put these 1.1e-5, 3.4e-4
            # and 1.2e-2 off.  50-digit mpmath
            ((1e-170, 1e150, 1e200), 7.9788456080286535e-221),
            ((3e-171, 1e150, 1e300), 2.3936536824085961e-171),
            ((1e-160, 1e163, 1e250), 7.9788456080286536e-199),
        ],
    )
    def test_subnormal_level_over_omega(self, args, rate):
        assert rayleigh_lcr(*args) == pytest.approx(rate, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "sigma2, rate",
        [
            # 2 sigma2 / pi rounded to a subnormal put these 1.9e-4 and
            # 4.3e-10 off.  50-digit mpmath
            (1e-320, 2.9352369246101428e-161),
            (3e-315, 1.6077044244991523e-158),
        ],
    )
    def test_subnormal_derivative_variance(self, sigma2, rate):
        assert rayleigh_lcr(1.0, 1.0, sigma2) == pytest.approx(rate, rel=1e-14, abs=0.0)
        assert rayleigh_lcr(0.0, 1.0, sigma2) == 0.0

    @pytest.mark.parametrize(
        "sigma2, rate",
        [
            # level/omega overflows the normal range, so the rate is taken in
            # logs; log(2 sigma2 / pi) of the subnormal product put these
            # 9.7e-9, 4.3e-10 and 0.25 off.  50-digit mpmath
            (2e-316, 2.894984180802671e-306),
            (3e-315, 1.1212225473619537e-305),
            (5e-324, 4.5501270542158e-310),
        ],
    )
    def test_subnormal_derivative_variance_in_the_log_form(self, sigma2, rate):
        assert rayleigh_lcr(8.405437963324591e-161, 1e-323, sigma2) == pytest.approx(rate, rel=1e-13, abs=0.0)

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
