"""Trace generation statistics, empirical estimators, and the validation loop."""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopoutage.channel import LinkGains, NodeDopplers, Scenario, derive, rayleigh_lcr
from coopoutage.exact_metrics import Protocol, lcr_u, op_af
from coopoutage import mc_sim
from coopoutage.mc_sim import (
    CrossingCounts,
    EmpiricalMetrics,
    FadingTrace,
    StaticLinkError,
    TraceConfig,
    classify_sr_crossings,
    count_down_crossings,
    equivalent_gain,
    estimate,
    gen_complex_gain,
    gen_link_traces,
    gen_m2m_rayleigh,
    read_trace,
    validate,
    write_trace,
)
from coopoutage.numerics import gauss_legendre


def bessel_j0_oracle(x: np.ndarray) -> np.ndarray:
    """J0 via its cosine integral, on an independent quadrature."""
    rule = gauss_legendre(96, 0.0, math.pi)
    return np.cos(np.outer(x, np.sin(rule.nodes))) @ rule.weights / math.pi


def per_ray_gain(omega, f_tx, f_rx, n_samples, dt, rng, n_sinusoids, antipodal=False):
    """Reference sum of sinusoids: the generator's draws, one cos/sin pass per ray.

    antipodal sets ray k + N/2 of an even count N to exactly -w_k, the
    frequency the generator gives it when it folds the pair.
    """
    u_alpha, u_beta = rng.uniform(0.0, 1.0, 2)
    idx = np.arange(n_sinusoids)
    r = mc_sim._coprime_stride(n_sinusoids)
    alpha = 2.0 * np.pi * (idx + u_alpha) / n_sinusoids
    beta = 2.0 * np.pi * ((r * idx) % n_sinusoids + u_beta) / n_sinusoids
    phi = rng.uniform(0.0, 2.0 * np.pi, n_sinusoids)
    omega_ray = 2.0 * np.pi * (f_tx * np.cos(alpha) + f_rx * np.cos(beta))
    if antipodal:
        half = n_sinusoids // 2
        omega_ray[half:] = -omega_ray[:half]
    t = np.arange(n_samples, dtype=np.float64) * dt
    re = np.zeros(n_samples)
    im = np.zeros(n_samples)
    for k in range(n_sinusoids):
        theta = omega_ray[k] * t + phi[k]
        re += np.cos(theta)
        im += np.sin(theta)
    return np.sqrt(omega / n_sinusoids) * (re + 1j * im)


# 1000 samples past one full product of block rows, so the trace spans two products
N_CROSSING_CHUNK = mc_sim._BLOCK * mc_sim._BLOCK_ROWS + 1000


def make_scenario(gamma0=10.0, omegas=(1.0, 1.0, 1.0)):
    return Scenario(gamma0=gamma0, r0=0.5, gains=LinkGains(*omegas), dopplers=NodeDopplers(1, 1, 1))


class TestTraceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(n_samples=1)
        with pytest.raises(ValueError):
            TraceConfig(n_samples=100, oversampling=8)
        with pytest.raises(ValueError):
            TraceConfig(n_samples=100, n_sinusoids=8)
        with pytest.raises(ValueError):
            TraceConfig(n_samples=100, n_realizations=0)
        with pytest.raises(ValueError):
            TraceConfig(n_samples=100, seed=-1)
        TraceConfig(n_samples=100, seed=2**64 - 1)  # full unsigned range is fine


class TestGeneration:
    def test_deterministic_for_fixed_seed(self):
        cfg = TraceConfig(n_samples=40_000, seed=5)
        a = gen_m2m_rayleigh(1.0, 1.0, 1.0, cfg, realization=3, link=1)
        b = gen_m2m_rayleigh(1.0, 1.0, 1.0, cfg, realization=3, link=1)
        assert np.array_equal(a.samples, b.samples)

    def test_streams_differ_by_realization_and_link(self):
        cfg = TraceConfig(n_samples=10_000, seed=5)
        base = gen_m2m_rayleigh(1.0, 1.0, 1.0, cfg).samples
        assert not np.array_equal(base, gen_m2m_rayleigh(1.0, 1.0, 1.0, cfg, link=1).samples)
        assert not np.array_equal(base, gen_m2m_rayleigh(1.0, 1.0, 1.0, cfg, realization=1).samples)

    def test_mean_square_envelope(self):
        cfg = TraceConfig(n_samples=1_000_000, seed=9)
        for omega in (0.5, 2.0):
            tr = gen_m2m_rayleigh(omega, 1.0, 1.0, cfg)
            assert float(np.mean(tr.samples**2)) == pytest.approx(omega, rel=0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite_input(self, bad):
        cfg = TraceConfig(n_samples=1000, seed=1)
        for i, name in enumerate(("omega", "f_tx", "f_rx")):
            args = [1.0, 1.0, 1.0]
            args[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                gen_m2m_rayleigh(*args, cfg)

    def test_static_link_errors_and_fallback(self):
        cfg = TraceConfig(n_samples=1000, seed=1)
        with pytest.raises(StaticLinkError):
            gen_m2m_rayleigh(1.0, 0.0, 0.0, cfg)
        tr = gen_m2m_rayleigh(1.0, 0.0, 0.0, cfg, static_fallback=True)
        assert np.all(tr.samples == tr.samples[0])
        assert tr.dt == 1.0
        # an explicit dt = 0.0 is refused, as on a moving link, not replaced by 1
        for f_rx in (0.0, 1.0):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                gen_m2m_rayleigh(1.0, 0.0, f_rx, cfg, dt=0.0, static_fallback=True)
        # no link of an all-static scenario has a common time base
        static = Scenario(gamma0=10.0, r0=0.5, dopplers=NodeDopplers(0.0, 0.0, 0.0))
        with pytest.raises(StaticLinkError, match="^all node Dopplers are zero$"):
            gen_link_traces(static, cfg)

    @pytest.mark.parametrize("n_sinusoids", [16, 17, 32, 64])
    @pytest.mark.parametrize("n_samples", [100, 1000, 65_537, N_CROSSING_CHUNK])
    def test_blocked_gain_matches_per_ray_sum(self, n_samples, n_sinusoids):
        # below one block, not a multiple of the block, across a row chunk
        args = (1.3, 1.0, 0.7, n_samples, 1.0 / (64 * 1.7))
        key = [11, 100 * n_samples + n_sinusoids]
        h = gen_complex_gain(*args, np.random.Generator(np.random.Philox(key=key)), n_sinusoids)
        ref = per_ray_gain(*args, np.random.Generator(np.random.Philox(key=key)), n_sinusoids)
        assert h.shape == (n_samples,) and h.dtype == np.complex128
        assert float(np.max(np.abs(h - ref))) <= 1e-10

    @pytest.mark.parametrize("n_sinusoids", [16, 32, 64])
    @pytest.mark.parametrize("n_samples, bound", [(65_537, 5e-12), (N_CROSSING_CHUNK, 5e-11)])
    def test_folded_gain_matches_antipodal_per_ray_sum(self, n_samples, bound, n_sinusoids):
        # the reference runs ray k + N/2 at exactly -w_k, as the fold does,
        # so what is left is the rounding of the fold's phase arguments
        args = (1.3, 1.0, 0.7, n_samples, 1.0 / (64 * 1.7))
        key = [11, 100 * n_samples + n_sinusoids]
        h = gen_complex_gain(*args, np.random.Generator(np.random.Philox(key=key)), n_sinusoids)
        ref = per_ray_gain(*args, np.random.Generator(np.random.Philox(key=key)), n_sinusoids, antipodal=True)
        assert float(np.max(np.abs(h - ref))) <= bound

    @pytest.mark.parametrize("n_sinusoids", [16, 18, 32, 64, 100])
    def test_even_ray_set_is_antipodal(self, n_sinusoids):
        # an odd stride turns both angles of ray k + N/2 by pi
        r = mc_sim._coprime_stride(n_sinusoids)
        assert r % 2 == 1
        idx = np.arange(n_sinusoids)
        half = n_sinusoids // 2
        for u in (0.0, 0.37, 0.999):
            alpha = 2.0 * np.pi * (idx + u) / n_sinusoids
            beta = 2.0 * np.pi * ((r * idx) % n_sinusoids + u) / n_sinusoids
            for angle in (alpha, beta):
                np.testing.assert_allclose(np.cos(angle[half:]), -np.cos(angle[:half]), rtol=0, atol=1e-14)

    def test_gain_prefix_does_not_depend_on_length(self):
        def gain(n):
            rng = np.random.Generator(np.random.Philox(key=[12, 0]))
            return gen_complex_gain(1.0, 1.0, 1.0, n, 1.0 / 128, rng, 32)

        full = gain(N_CROSSING_CHUNK)
        for m in (100, 1000, 65_537):
            assert float(np.max(np.abs(full[:m] - gain(m)))) <= 1e-13

    def test_crossing_rate_matches_rice_formula(self):
        # averaged over realizations, >= 1e7 samples total
        cfg = TraceConfig(n_samples=5_000_000, seed=21)
        omega = 1.0
        level = math.sqrt(omega)
        sigma2 = math.pi**2 * omega * (1.0**2 + 1.0**2)
        expected = rayleigh_lcr(level, omega, sigma2)
        total = CrossingCounts()
        for r in range(3):
            tr = gen_m2m_rayleigh(omega, 1.0, 1.0, cfg, realization=r)
            total = total.merge(CrossingCounts.from_trace(tr, level))
        got = EmpiricalMetrics.from_counts(total).aor
        assert got == pytest.approx(expected, rel=0.03)

    def test_single_mobile_autocorrelation_is_j0(self):
        # with the receive side static the gain autocorrelation collapses to
        # omega * J0(2 pi f_tx tau); check lags up to 2 / f_tx at 2% RMS
        omega, f_tx = 2.0, 1.0
        cfg = TraceConfig(n_samples=600_000, seed=3)
        dt = 1.0 / (cfg.oversampling * f_tx)
        acc = None
        n_real = 6
        for r in range(n_real):
            rng = np.random.Generator(np.random.Philox(key=[3, r]))
            h = gen_complex_gain(omega, f_tx, 0.0, cfg.n_samples, dt, rng, cfg.n_sinusoids)
            lags = np.arange(0, 129, 4)
            cur = np.array(
                [np.real(np.mean(h[: len(h) - k] * np.conj(h[k:]))) for k in lags]
            )
            acc = cur if acc is None else acc + cur
        emp = acc / n_real
        tau = np.arange(0, 129, 4) * dt
        ref = omega * bessel_j0_oracle(2.0 * math.pi * f_tx * tau).ravel()
        rms = math.sqrt(float(np.mean((emp - ref) ** 2)))
        assert rms < 0.02 * omega

    def test_envelope_distribution_kolmogorov_smirnov(self):
        # decimate to quasi-independent samples, then KS at the 1% level
        omega = 1.3
        cfg = TraceConfig(n_samples=1_000_000, seed=17)
        tr = gen_m2m_rayleigh(omega, 1.0, 1.0, cfg)
        sub = np.sort(tr.samples[::128])
        n = len(sub)
        cdf = 1.0 - np.exp(-(sub**2) / omega)
        grid = np.arange(1, n + 1) / n
        d_stat = float(np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / n)))))
        assert d_stat < 1.628 / math.sqrt(n)


class TestEquivalentGain:
    def test_af_branches(self):
        _, th = derive(make_scenario(gamma0=100.0))
        th0 = th.__class__(g0=th.g0, x0=th.x0, c1=0.0, y0=th.y0)
        assert equivalent_gain(Protocol.AF, 1.3, 0.7, 0.0, th) == pytest.approx(1.3, rel=1e-14)
        assert equivalent_gain(Protocol.AF, 0.0, 1.0, 1.0, th0) == pytest.approx(
            math.sqrt(0.5), rel=1e-14
        )
        th1 = th.__class__(g0=th.g0, x0=th.x0, c1=1.0, y0=th.y0)
        assert equivalent_gain(Protocol.AF, 0.0, 1.0, 1.0, th1) == pytest.approx(
            math.sqrt(1.0 / 3.0), rel=1e-14
        )

    def test_sr_switching(self):
        _, th = derive(make_scenario())
        th = th.__class__(g0=th.g0, x0=th.x0, c1=th.c1, y0=0.2)
        assert equivalent_gain(Protocol.SR, 1.0, 0.1, 5.0, th) == pytest.approx(math.sqrt(2.0))
        assert equivalent_gain(Protocol.SR, 1.0, 0.3, 1.0, th) == pytest.approx(math.sqrt(2.0))

    def test_df_is_min_of_decode_and_combine(self):
        _, th = derive(make_scenario())
        assert equivalent_gain(Protocol.DF, 3.0, 0.5, 4.0, th) == 0.5
        assert equivalent_gain(Protocol.DF, 0.3, 9.0, 0.4, th) == pytest.approx(0.5)

    def test_af_in_place_matches_one_line_expression(self):
        sc = make_scenario(gamma0=10.0)
        _, th = derive(sc)
        x, y, z = (tr.samples for tr in gen_link_traces(sc, TraceConfig(n_samples=65_536, seed=3)))
        y2, z2 = y * y, z * z
        expected = np.sqrt(x * x + y2 * z2 / (y2 + z2 + th.c1))
        assert np.array_equal(equivalent_gain(Protocol.AF, x, y, z, th), expected)

    def test_direct_passthrough_and_vectorisation(self):
        _, th = derive(make_scenario())
        x = np.array([0.1, 0.5])
        out = equivalent_gain(Protocol.DIRECT, x, x, x, th)
        assert np.array_equal(out, x)


class TestEstimator:
    def test_constant_trace_below_threshold(self):
        tr = FadingTrace(dt=0.5, samples=np.full(100, 0.2))
        m = estimate(tr, 1.0)
        assert m.p_out == 1.0
        assert m.n_down_crossings == 0
        assert m.aor == 0.0
        assert m.aod is None

    def test_deterministic_sinusoid_crossings(self):
        # offset sinusoid crossing the level once per period, m periods
        m_periods, per = 25, 1000
        t = np.arange(m_periods * per)
        samples = 2.0 + np.sin(2.0 * np.pi * t / per)
        tr = FadingTrace(dt=0.01, samples=samples)
        est = estimate(tr, 2.0)
        # one downward crossing per period; the final period's crossing is
        # inside the trace, so all m are counted
        assert est.n_down_crossings == m_periods
        assert est.aor == pytest.approx(m_periods / (len(samples) * 0.01), rel=1e-12)

    def test_duration_identity_exact(self):
        cfg = TraceConfig(n_samples=200_000, seed=2)
        tr = gen_m2m_rayleigh(1.0, 1.0, 1.0, cfg)
        m = estimate(tr, 0.7)
        assert m.aod * m.aor == pytest.approx(m.p_out, rel=1e-14)

    def test_single_link_trace_matches_direct_formulas(self):
        sc = make_scenario(gamma0=10.0)
        _, th = derive(sc)
        cfg = TraceConfig(n_samples=4_000_000, seed=13)
        tr = gen_m2m_rayleigh(1.0, 1.0, 1.0, cfg)
        m = estimate(tr, th.x0)
        p_exact = 1.0 - math.exp(-th.x0**2)
        n_exact = rayleigh_lcr(th.x0, 1.0, math.pi**2 * 2.0)
        assert m.p_out == pytest.approx(p_exact, rel=0.05)
        assert m.aor == pytest.approx(n_exact, rel=0.10)

    def test_estimate_input_validation(self):
        with pytest.raises(ValueError):
            estimate(FadingTrace(dt=1.0, samples=np.array([])), 1.0)
        with pytest.raises(ValueError):
            estimate(FadingTrace(dt=1.0, samples=np.array([1.0])), -1.0)

    @pytest.mark.parametrize("g0", [math.nan, math.inf, -math.inf])
    def test_estimate_refuses_non_finite_threshold(self, g0):
        with pytest.raises(ValueError):
            estimate(FadingTrace(dt=1.0, samples=np.array([1.0, 0.5])), g0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_trace_refuses_bad_interval(self, dt):
        with pytest.raises(ValueError):
            FadingTrace(dt=dt, samples=np.array([1.0, 0.5]))

    def test_count_down_crossings_edges(self):
        s = np.array([1.0, 0.5, 1.0, 0.5, 0.5, 1.5])
        assert count_down_crossings(s, 0.9) == 2
        assert count_down_crossings(s, 2.0) == 0

    def test_nan_sample_is_not_below_for_every_count(self):
        # the step from NaN to 0.5 enters the outage that n_below counts
        s = np.array([1.0, math.nan, 0.5, 1.0])
        c = CrossingCounts.from_trace(FadingTrace(dt=1.0, samples=s), 0.9)
        assert (c.n_below, c.n_crossings) == (1, 1)
        assert count_down_crossings(s, 0.9) == 1
        assert classify_sr_crossings(s, np.zeros(4), 0.9, 0.5) == (1, 0)

    def test_from_counts_gives_plain_floats(self):
        for crossings in (0, 7):
            m = EmpiricalMetrics.from_counts(CrossingCounts(100, 30, crossings, 2.5))
            for name in ("p_out", "aor", "se_p_out", "se_aor", "se_aod"):
                assert type(getattr(m, name)) is float, name
        assert "np.float64" not in repr(m)


class TestSelectionCrossingTaxonomy:
    def test_counts_partition_total(self):
        sc = make_scenario(gamma0=10.0)
        _, th = derive(sc)
        cfg = TraceConfig(n_samples=2_000_000, seed=8)
        x, y, z = gen_link_traces(sc, cfg)
        g = equivalent_gain(Protocol.SR, x.samples, y.samples, z.samples, th)
        total = count_down_crossings(g, th.g0)
        env, sw = classify_sr_crossings(g, y.samples, th.g0, th.y0)
        assert env + sw == total
        assert env > 0 and sw > 0

    def test_relay_off_path_is_scaled_direct_gain(self):
        sc = make_scenario(gamma0=10.0)
        _, th = derive(sc)
        cfg = TraceConfig(n_samples=100_000, seed=8)
        x, y, z = gen_link_traces(sc, cfg)
        g = equivalent_gain(Protocol.SR, x.samples, y.samples, z.samples, th)
        off = y.samples <= th.y0
        assert np.allclose(g[off], math.sqrt(2.0) * x.samples[off])
        assert np.allclose(g[~off], np.hypot(x.samples[~off], z.samples[~off]))


class TestValidate:
    def test_df_at_10db_passes_default_tolerances(self):
        rep = validate(make_scenario(gamma0=10.0), Protocol.DF, TraceConfig(n_samples=2_000_000, seed=4))
        assert rep.passed, "\n".join(rep.lines())

    @pytest.mark.parametrize(
        "protocol, y0, zero_c1",
        [pytest.param(p, None, False, id=str(p)) for p in Protocol]
        + [
            pytest.param(Protocol.SR, 0.8, False, id="Protocol.SR-y0=0.8"),
            pytest.param(Protocol.SR, 0.1, False, id="Protocol.SR-y0=0.1"),
            pytest.param(Protocol.AF, None, True, id="Protocol.AF-zero_c1"),
        ],
    )
    def test_rebuilt_from_public_parts_is_identical(self, protocol, y0, zero_c1):
        sc = Scenario(
            gamma0=10.0, r0=0.5, gains=LinkGains(1.0, 2.0, 0.5), dopplers=NodeDopplers(1.0, 0.3, 0.7), y0=y0
        )
        cfg = TraceConfig(n_samples=65_536, seed=5, n_realizations=2)
        _, th = derive(sc)
        assert y0 is None or th.y0 == y0 != th.g0
        th_mc = dataclasses.replace(th, c1=0.0) if zero_c1 else th
        counts = CrossingCounts()
        for r in range(cfg.n_realizations):
            x, y, z = gen_link_traces(sc, cfg, realization=r)
            g = FadingTrace(x.dt, equivalent_gain(protocol, x.samples, y.samples, z.samples, th_mc))
            counts = counts.merge(CrossingCounts.from_trace(g, protocol.level(th)))
        assert validate(sc, protocol, cfg, zero_c1=zero_c1).empirical == EmpiricalMetrics.from_counts(counts)

    def test_protocol_without_mask_shortcut_is_composed_by_equivalent_gain(self):
        # direct, DF and SR have mask shortcuts; any other protocol goes
        # through equivalent_gain, which refuses one it does not know
        # instead of counting it as SR
        sc = make_scenario(gamma0=10.0)
        cfg = TraceConfig(n_samples=4096, seed=5)
        _, th = derive(sc)
        unknown = types.SimpleNamespace(token="new", level=Protocol.SR.level)
        store = mc_sim._trace_store(sc, cfg, mc_sim.scenario_dt(sc, cfg), 3)
        with pytest.raises(ValueError, match="unknown protocol"):
            mc_sim._outage_mask(unknown, store, 0, th)

    @pytest.mark.parametrize("y0", [None, 0.8])
    def test_sr_mask_is_the_selected_gain_below_g0(self, y0):
        # crafted envelopes in the trace store: y on y0 and one ulp either
        # side, x one ulp either side of g0/sqrt(2), U on g0, NaN in each link
        sc = Scenario(
            gamma0=10.0, r0=0.5, gains=LinkGains(1.0, 2.0, 0.5), dopplers=NodeDopplers(1.0, 0.3, 0.7), y0=y0
        )
        _, th = derive(sc)
        g0, edge = th.g0, th.g0 / math.sqrt(2.0)
        xs = [0.0, 0.5 * edge, np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf), 2.0 * edge, math.nan]
        ys = [0.0, np.nextafter(th.y0, 0.0), th.y0, np.nextafter(th.y0, math.inf), 3.0 * th.y0, math.nan]
        zs = [0.0, 0.5 * g0, np.nextafter(g0, 0.0), g0, math.nan]
        x, y, z = (a.ravel() for a in np.meshgrid(xs, ys, zs, indexing="ij"))
        store = mc_sim._TraceStore(TraceConfig(n_samples=len(x)), np.stack([x, y, z])[None], links=3)
        mask = mc_sim._outage_mask(Protocol.SR, store, 0, th)
        expected = equivalent_gain(Protocol.SR, x, y, z, th) < g0
        assert np.array_equal(mask, expected)
        assert 0 < np.count_nonzero(expected) < len(x)

    # n_down_crossings and p_out of one mobile scenario at 65,536 samples x 2
    # realizations: a change of the generator's rounding must not move them
    PINNED_COUNTS = {
        16: {
            Protocol.DIRECT: (713, 0.0381011962890625),
            Protocol.AF: (261, 0.01419830322265625),
            Protocol.DF: (884, 0.0608673095703125),
            Protocol.SR: (216, 0.011138916015625),
        },
        17: {
            Protocol.DIRECT: (749, 0.03987884521484375),
            Protocol.AF: (263, 0.01421356201171875),
            Protocol.DF: (820, 0.05809783935546875),
            Protocol.SR: (227, 0.0114593505859375),
        },
        32: {
            Protocol.DIRECT: (740, 0.0420684814453125),
            Protocol.AF: (260, 0.01434326171875),
            Protocol.DF: (823, 0.0560455322265625),
            Protocol.SR: (223, 0.01091766357421875),
        },
        64: {
            Protocol.DIRECT: (702, 0.03881072998046875),
            Protocol.AF: (252, 0.01458740234375),
            Protocol.DF: (783, 0.05686187744140625),
            Protocol.SR: (220, 0.0109405517578125),
        },
    }

    @pytest.mark.parametrize("n_sinusoids", [16, 17, 32, 64])
    def test_counts_are_pinned(self, n_sinusoids):
        sc = Scenario(gamma0=10.0, r0=0.5, gains=LinkGains(1.0, 2.0, 0.5), dopplers=NodeDopplers(1.0, 0.3, 0.7))
        cfg = TraceConfig(n_samples=65_536, seed=5, n_realizations=2, n_sinusoids=n_sinusoids)
        got = {}
        for protocol in Protocol:
            emp = validate(sc, protocol, cfg).empirical
            got[protocol] = (emp.n_down_crossings, emp.p_out)
        assert got == self.PINNED_COUNTS[n_sinusoids]

    def test_direct_needs_no_moving_relay(self):
        sc = Scenario(gamma0=10.0, r0=0.5, gains=LinkGains(1.0, 1.0, 1.0), dopplers=NodeDopplers(0.0, 0.0, 1.0))
        cfg = TraceConfig(n_samples=65_536, n_realizations=2)
        rep = validate(sc, Protocol.DIRECT, cfg)
        assert rep.passed, "\n".join(rep.lines())
        dt = mc_sim.scenario_dt(sc, cfg)
        _, th = derive(sc)
        counts = CrossingCounts()
        for r in range(cfg.n_realizations):
            x = gen_m2m_rayleigh(1.0, 0.0, 1.0, cfg, dt=dt, realization=r, link=0)
            counts = counts.merge(CrossingCounts.from_trace(x, th.x0))
        assert rep.empirical == EmpiricalMetrics.from_counts(counts)
        for protocol in (Protocol.AF, Protocol.DF, Protocol.SR):
            with pytest.raises(StaticLinkError):
                validate(sc, protocol, cfg)

    def test_report_lines_and_failure_detection(self):
        rep = validate(
            make_scenario(gamma0=10.0),
            Protocol.DIRECT,
            TraceConfig(n_samples=200_000, seed=4),
            tol_op=1e-12,
        )
        assert not rep.passed
        assert any("FAIL" in line for line in rep.lines())

    def test_zero_c1_mode_checks_idealised_composition(self):
        # trace side composed with c1 = 0; reference is the c1 = 0 outage
        # integral evaluated here independently
        from coopoutage.exact_metrics import _af_relayed_cdf

        sc = make_scenario(gamma0=10.0)
        _, th = derive(sc)
        g0sq = th.g0**2
        rule = gauss_legendre(512, 0.0, g0sq)
        exact_c1zero = float(
            np.sum(rule.weights * np.exp(-(g0sq - rule.nodes)) * _af_relayed_cdf(rule.nodes, 0.0, 1.0, 1.0))
        )
        rep = validate(sc, Protocol.AF, TraceConfig(n_samples=3_000_000, seed=4), zero_c1=True)
        assert rep.empirical.p_out == pytest.approx(exact_c1zero, rel=0.05)
        # removing the relay-gain floor can only help the relayed path
        assert rep.empirical.p_out < op_af(sc) * 1.02

    def test_u_process_crossing_rate_matches_theory(self):
        sc = make_scenario(gamma0=10.0)
        ld, th = derive(sc)
        cfg = TraceConfig(n_samples=4_000_000, seed=18)
        x, _, z = gen_link_traces(sc, cfg)
        u = FadingTrace(x.dt, np.hypot(x.samples, z.samples))
        expected = lcr_u(th.g0, 1.0, 1.0, ld.sigma2_x, ld.sigma2_z)
        assert estimate(u, th.g0).aor == pytest.approx(expected, rel=0.05)


class TestTraceReuse:
    """validate draws each (realization, link) envelope once per Scenario instance."""

    CFG = TraceConfig(n_samples=65_536, seed=5, n_realizations=2)

    @staticmethod
    def scenario(dopplers=(1.0, 0.3, 0.7)):
        return Scenario(gamma0=10.0, r0=0.5, gains=LinkGains(1.0, 2.0, 0.5), dopplers=NodeDopplers(*dopplers))

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        original = mc_sim.gen_complex_gain

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mc_sim, "gen_complex_gain", counting)
        return calls

    def test_all_protocols_draw_each_link_once(self, draws):
        sc = self.scenario()
        for protocol in Protocol:
            validate(sc, protocol, self.CFG)
        # 3 links x 2 realizations; drawing per call would take 2 + 3 * 6 = 20
        assert len(draws) == 6

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_shared_scenario_matches_fresh_copy(self, protocol):
        sc = self.scenario()
        for other in Protocol:  # fill the cache from every protocol first
            validate(sc, other, self.CFG)
        fresh = dataclasses.replace(sc)
        assert validate(sc, protocol, self.CFG).empirical == validate(fresh, protocol, self.CFG).empirical

    def test_cache_is_not_part_of_the_value(self):
        sc = self.scenario()
        before = (hash(sc), repr(sc))
        validate(sc, Protocol.AF, self.CFG)
        assert "_traces" in sc.__dict__
        assert sc == self.scenario() and (hash(sc), repr(sc)) == before
        assert "_traces" not in dataclasses.replace(sc).__dict__

    def test_second_config_replaces_the_cache(self):
        sc = self.scenario()
        validate(sc, Protocol.AF, self.CFG)
        other = dataclasses.replace(self.CFG, seed=6)
        validate(sc, Protocol.AF, other)
        store = sc.__dict__["_traces"]
        assert store.cfg == other and store.links == 3 and store.u_below is None
        assert np.array_equal(store.envelopes[1, 2], gen_link_traces(sc, other, realization=1)[2].samples)

    def test_cached_samples_are_read_only(self):
        sc = self.scenario()
        validate(sc, Protocol.AF, self.CFG)
        envelopes = sc.__dict__["_traces"].envelopes
        assert not envelopes.flags.writeable
        for r in range(self.CFG.n_realizations):
            for samples in envelopes[r]:
                assert not samples.flags.writeable
                with pytest.raises(ValueError):
                    samples[0] = 0.0

    def test_all_protocols_take_one_u_mask_per_realization(self, monkeypatch):
        masks, hypot_sizes = [], []
        helper, hypot = mc_sim._hypot_below, np.hypot

        def counting_helper(*args):
            masks.append(args)
            return helper(*args)

        def counting_hypot(x, z, *args, **kwargs):
            hypot_sizes.append(np.size(x))
            return hypot(x, z, *args, **kwargs)

        monkeypatch.setattr(mc_sim, "_hypot_below", counting_helper)
        monkeypatch.setattr(np, "hypot", counting_hypot)
        sc = self.scenario()
        for protocol in Protocol:
            validate(sc, protocol, self.CFG)
        # DF and SR read one stored U mask; composing each would take 2 per realization
        assert len(masks) == self.CFG.n_realizations
        # hypot decides only the samples inside the band, never a whole trace
        assert all(n < self.CFG.n_samples for n in hypot_sizes)

    def test_u_mask_is_stored_read_only_and_replaced_with_the_traces(self):
        sc = self.scenario()
        validate(sc, Protocol.SR, self.CFG)
        _, th = derive(sc)
        store = sc.__dict__["_traces"]
        assert len(store.u_below) == self.CFG.n_realizations
        for r, mask in enumerate(store.u_below):
            x, _, z = gen_link_traces(sc, self.CFG, realization=r)
            assert mask.dtype == bool and np.array_equal(mask, np.hypot(x.samples, z.samples) < th.g0)
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0] = True
        other = dataclasses.replace(self.CFG, seed=6)
        validate(sc, Protocol.AF, other)
        store = sc.__dict__["_traces"]
        assert store.cfg == other and store.u_below is None

    def test_links_are_views_of_one_array_per_store(self):
        sc = self.scenario()
        for protocol in Protocol:
            validate(sc, protocol, self.CFG)
        store = sc.__dict__["_traces"]
        envelopes = store.envelopes
        shape = (self.CFG.n_realizations, 3, self.CFG.n_samples)
        assert envelopes.shape == shape and envelopes.dtype == np.float64
        assert envelopes.flags.owndata and not envelopes.flags.writeable
        assert store.links == 3
        for r in range(self.CFG.n_realizations):
            for link, trace in enumerate(gen_link_traces(sc, self.CFG, realization=r)):
                assert np.array_equal(envelopes[r, link], trace.samples)
        other = dataclasses.replace(self.CFG, seed=6)
        validate(sc, Protocol.AF, other)
        store = sc.__dict__["_traces"]
        assert store.envelopes.shape == shape and not np.shares_memory(store.envelopes, envelopes)
        assert store.envelopes.flags.owndata and not store.envelopes.flags.writeable

    def test_static_relay_draws_only_link_0(self):
        sc = self.scenario(dopplers=(0.0, 0.0, 1.0))
        validate(sc, Protocol.DIRECT, self.CFG)
        with pytest.raises(StaticLinkError):
            validate(sc, Protocol.AF, self.CFG)
        store = sc.__dict__["_traces"]
        assert store.links == 1 and store.u_below is None
        assert not store.envelopes.flags.writeable
        dt = mc_sim.scenario_dt(sc, self.CFG)
        for r in range(self.CFG.n_realizations):
            x = gen_m2m_rayleigh(1.0, 0.0, 1.0, self.CFG, dt=dt, realization=r, link=0)
            assert np.array_equal(store.envelopes[r, 0], x.samples)

    def test_static_relay_keeps_the_direct_traces(self, draws):
        # --doppler 0,0,1: AF fails on the static S-R link after direct filled link 0
        sc = self.scenario(dopplers=(0.0, 0.0, 1.0))
        first = validate(sc, Protocol.DIRECT, self.CFG)
        with pytest.raises(StaticLinkError):
            validate(sc, Protocol.AF, self.CFG)
        assert validate(sc, Protocol.DIRECT, self.CFG) == first
        assert len(draws) == self.CFG.n_realizations


class TestHypotBelow:
    """_hypot_below(x, z, level) is np.hypot(x, z) < level, bit for bit."""

    # 1e-160 squares to a subnormal and 1e160 to inf: both take the hypot fallback
    LEVELS = [1e-160, 1e-150, 2.0**-500, 1e-100, 1e-8, 0.37, 1.0, 80.9, 1e8, 1e100, 2.0**500, 1e150, 1e160]

    @staticmethod
    def assert_exact(x, z, level):
        x, z = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
        with np.errstate(over="ignore"):  # hypot of two huge samples overflows to inf
            got, expected = mc_sim._hypot_below(x, z, level), np.hypot(x, z) < level
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("level", LEVELS)
    def test_on_the_level_and_one_ulp_either_side(self, level):
        theta = np.random.default_rng(7).uniform(0.0, math.pi / 2.0, 20_000)
        x, z = level * np.cos(theta), level * np.sin(theta)
        for dx in (-math.inf, 0.0, math.inf):
            for dz in (-math.inf, 0.0, math.inf):
                xs = x if dx == 0.0 else np.nextafter(x, dx)
                zs = z if dz == 0.0 else np.nextafter(z, dz)
                self.assert_exact(xs, zs, level)

    @pytest.mark.parametrize("level", LEVELS)
    def test_special_and_one_sided_samples(self, level):
        tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
        special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, tiny, 1e-300, 1e300, huge, level, -level])
        x, z = np.meshgrid(special, special)
        self.assert_exact(x.ravel(), z.ravel(), level)

    @pytest.mark.parametrize("level", [0.0, -1.0, math.nan, math.inf])
    def test_levels_outside_the_range(self, level):
        self.assert_exact([0.0, 0.5, 1.0, math.nan, math.inf], [0.5, 0.0, 1.0, 1.0, math.nan], level)

    def test_squares_decide_off_the_band(self, monkeypatch):
        sizes = []
        hypot = np.hypot
        monkeypatch.setattr(np, "hypot", lambda x, z: sizes.append(np.size(x)) or hypot(x, z))
        rng = np.random.default_rng(3)
        x, z = rng.rayleigh(0.7, 65_536), rng.rayleigh(0.7, 65_536)
        assert np.array_equal(mc_sim._hypot_below(x, z, 1.1), hypot(x, z) < 1.1)
        assert sizes == []

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True)), min_size=1, max_size=40),
        level=st.floats(min_value=1e-160, max_value=1e160),
        on_level=st.booleans(),
    )
    def test_random_samples(self, pairs, level, on_level):
        x, z = np.array(pairs).T
        if on_level:  # rescaled onto the level, where the band sends them to hypot
            with np.errstate(all="ignore"):
                norm = np.hypot(x, z)
                x, z = x / norm * level, z / norm * level
        self.assert_exact(x, z, level)


class TestTraceFile:
    def test_round_trip_and_header(self, tmp_path):
        tr = FadingTrace(dt=0.125, samples=np.linspace(0.0, 1.0, 7))
        path = tmp_path / "g.trace"
        write_trace(path, tr)
        raw = path.read_bytes()
        assert raw[:4] == b"FTRC"
        assert len(raw) == 16 + 7 * 8
        back = read_trace(path)
        assert back.dt == tr.dt
        assert np.array_equal(back.samples, tr.samples)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError):
            read_trace(path)
        # a header promising more samples than the file holds
        write_trace(path, FadingTrace(dt=0.125, samples=np.linspace(0.0, 1.0, 7)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="^trace file truncated$"):
            read_trace(path)
