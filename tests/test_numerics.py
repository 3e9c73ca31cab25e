"""Quadrature engines and special functions against independent oracles."""

import math
import signal

import numpy as np
import pytest
from scipy.special import roots_laguerre

from coopoutage.channel import Scenario
from coopoutage.exact_metrics import _AF_RATE_ORDERS, op_af
from coopoutage.numerics import (
    ConvergenceError,
    LaguerreDisagreement,
    QuadratureRule,
    UnderflowWarning,
    _legendre_base,
    bessel_k0,
    bessel_k1,
    erfc,
    gauss_laguerre,
    gauss_legendre,
    integrate_gauss,
    integrate_semi_infinite,
    mapped_legendre,
    refine,
    refine_blocks,
    upper_inc_gamma_3_2,
)

# frozen oracle values, computed from the integral representation
# int_0^inf exp(-z cosh t) (cosh t)^nu dt with a 4000-point Legendre rule
K0_AT_1 = 0.42102443824070823
K0_AT_2 = 0.11389387274953343
K1_AT_1 = 0.60190723019723457
K1_AT_5 = 0.0040446134454521655

# frozen from the truncated power-series oracle (see series_gamma_3_2 below)
G32_AT_1 = 0.5072822338117733


def k_integral_oracle(z: float, nu: int, order: int = 2000) -> float:
    """Independent oracle: int_0^inf exp(-z cosh t) cosh(t)^nu dt."""
    tmax = float(np.arccosh(1.0 + 745.0 / z))
    rule = gauss_legendre(order, 0.0, tmax)
    ch = np.cosh(rule.nodes)
    return float(np.sum(rule.weights * np.exp(-z * ch) * (ch if nu else 1.0)))


def series_gamma_3_2(x: float, kmax: int = 80) -> float:
    """Independent oracle: power series of the upper incomplete gamma (order 3/2)."""
    total = 0.5 * math.sqrt(math.pi) - (2.0 / 3.0) * x**1.5
    fact = 1.0
    for k in range(1, kmax):
        fact *= k
        total -= (-1.0) ** k * x ** (k + 1.5) / ((k + 1.5) * fact)
    return total


class TestQuadratureRule:
    def test_invariants_hold_for_all_kinds(self):
        for rule in (gauss_legendre(17, -2.0, 5.0), gauss_laguerre(23), mapped_legendre(9, 0.7)):
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            QuadratureRule("finite-legendre", 2, np.array([1.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            QuadratureRule("finite-legendre", 2, np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    def test_arrays_are_immutable(self):
        rule = gauss_legendre(4)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


class TestGaussLegendre:
    def test_order_two_matches_moment_conditions(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_cubic_on_unit_interval_is_exact(self):
        rule = gauss_legendre(2, 0.0, 1.0)
        assert integrate_gauss(lambda x: x**3, rule) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 40])
    def test_polynomial_exactness_to_degree_2n_minus_1(self, order):
        rule = gauss_legendre(order, 0.5, 2.0)
        rng = np.random.default_rng(order)
        coeffs = rng.uniform(-1.0, 1.0, 2 * order)
        exact = sum(c / (k + 1) * (2.0 ** (k + 1) - 0.5 ** (k + 1)) for k, c in enumerate(coeffs))
        got = integrate_gauss(lambda x: sum(c * x**k for k, c in enumerate(coeffs)), rule)
        assert got == pytest.approx(exact, rel=1e-13)

    def test_exponential_with_order_32(self):
        rule = gauss_legendre(32, 0.0, 1.0)
        assert integrate_gauss(lambda x: np.exp(-x), rule) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-13
        )

    @pytest.mark.parametrize("order", [1, 2, 7, 64, 256, 1024])
    def test_nodes_and_weights_match_eigenvalue_oracle(self, order):
        rule = gauss_legendre(order)
        x_ref, w_ref = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(rule.nodes - x_ref)) < 1e-13
        assert np.max(np.abs(rule.weights - w_ref)) < 1e-13

    def test_base_rules_are_symmetric_bit_for_bit(self):
        # aor_af evaluates only the nonnegative half of each inner rule
        orders = sorted({*range(1, 65), *(n for pair in _AF_RATE_ORDERS for n in pair)})
        asymmetric = []
        for order in orders:
            x, w = _legendre_base(order)
            if not (np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])):
                asymmetric.append(order)
        assert asymmetric == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 2.0, 1.0)


class TestGaussLaguerre:
    @pytest.mark.parametrize("order", [1, 2, 6, 16, 64, 128])
    def test_weights_sum_to_one(self, order):
        assert gauss_laguerre(order).weights.sum() == pytest.approx(1.0, abs=2e-14)

    def test_factorial_moments(self):
        rule = gauss_laguerre(20)
        for k in range(0, 12):
            assert integrate_gauss(lambda t: t**k, rule) == pytest.approx(
                math.factorial(k), rel=1e-12
            )

    @pytest.mark.parametrize("order", [2, 16, 64, 128])
    def test_nodes_match_eigenvalue_oracle(self, order):
        # scipy's rule is an independent Golub-Welsch build with Newton polishing
        rule = gauss_laguerre(order)
        x_ref, w_ref = roots_laguerre(order)
        assert np.max(np.abs(rule.nodes - x_ref) / x_ref) < 1e-12
        big = w_ref > 1e-280
        assert np.max(np.abs(rule.weights[big] - w_ref[big]) / w_ref[big]) < 1e-10

    def test_order_cap(self):
        with pytest.raises(ValueError):
            gauss_laguerre(256)


class TestSemiInfiniteIntegration:
    def test_unit_exponential(self):
        assert integrate_semi_infinite(lambda t: np.exp(-t), 1e-12) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_inverse_sqrt_exponential_gives_gamma_half(self):
        got = integrate_semi_infinite(
            lambda t: np.exp(-t) / np.sqrt(t), 1e-12, laguerre_check=False
        )
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_bessel_kernel_identity(self):
        # int_0^inf u^-1 exp(-(u + 1/u)) du equals 2 K0(2)
        got = integrate_semi_infinite(lambda u: np.exp(-(u + 1.0 / u)) / u, 1e-10,
                                      laguerre_check=False)
        assert got == pytest.approx(2.0 * bessel_k0(2.0), rel=1e-10)
        assert got == pytest.approx(2.0 * K0_AT_2, rel=1e-9)

    def test_laguerre_check_quiet_for_native_weight(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", LaguerreDisagreement)
            integrate_semi_infinite(lambda t: np.exp(-t), 1e-10)

    def test_laguerre_check_warns_on_essential_singularity(self):
        with pytest.warns(LaguerreDisagreement):
            integrate_semi_infinite(lambda u: np.exp(-(u + 1.0 / u)) / u, 1e-10)

    def test_convergence_error_carries_estimates(self):
        with pytest.raises(ConvergenceError) as info:
            integrate_semi_infinite(
                lambda t: np.exp(-t) / np.sqrt(t), 1e-14, order0=8, max_order=16,
                laguerre_check=False,
            )
        assert len(info.value.estimates) == 2
        # op_af runs refine_blocks over aor_af's panels: at an unattainable
        # tol it reports its last two totals, which may agree to the last bit
        with pytest.raises(ConvergenceError, match="AF outage probability") as info:
            op_af(Scenario(10.0, 0.5), tol=1e-20)
        prev, cur = info.value.estimates
        assert math.isfinite(prev) and math.isfinite(cur)

    def test_doubling_converged_results_are_stable(self):
        # doubling the order past convergence moves the corpus integrals < 1e-8
        cases = [
            (lambda t: np.exp(-t), 1.0),
            (lambda t: np.exp(-t) / np.sqrt(t), math.sqrt(math.pi)),
            (lambda u: np.exp(-(u + 1.0 / u)) / u, 2.0 * K0_AT_2),
            (lambda u: np.exp(-(u / 2.0 + 0.5 / u)), None),
        ]
        for f, reference in cases:
            a = integrate_gauss(f, mapped_legendre(256))
            b = integrate_gauss(f, mapped_legendre(512))
            assert abs(b - a) < 1e-8 * abs(b)
            if reference is not None:
                assert b == pytest.approx(reference, rel=1e-9)


class TestRefine:
    def test_stops_at_first_agreeing_order(self):
        values = {4: 1.0, 8: 2.0, 16: 2.0 + 1e-12, 32: 5.0}
        seen = []

        def estimate(m):
            seen.append(m)
            return values[m]

        assert refine(estimate, (4, 8, 16, 32), 1e-9, "test integral") == 2.0 + 1e-12
        assert seen == [4, 8, 16]

    def test_non_finite_estimate_raises_at_once(self):
        seen = []

        def estimate(m):
            seen.append(m)
            return math.inf

        with pytest.raises(ConvergenceError, match="test integral"):
            refine(estimate, (4, 8, 16), 1e-9, "test integral")
        assert seen == [4, 8]

    def test_raises_with_last_two_estimates(self):
        with pytest.raises(ConvergenceError, match="test integral") as info:
            refine(lambda m: 1.0 / m, (4, 8, 16), 1e-9, "test integral")
        assert info.value.estimates == (1.0 / 8, 1.0 / 16)


class TestRefineBlocks:
    # int_0^1 int_0^2 sqrt(x) e^-y dy dx on 4 x 5 blocks; the sqrt(x)
    # endpoint slows down only the blocks of the first x panel
    X_EDGES = np.linspace(0.0, 1.0, 5)
    Y_EDGES = np.linspace(0.0, 2.0, 6)
    EXACT = 2.0 / 3.0 * -math.expm1(-2.0)
    ORDERS = (4, 8, 16, 32, 64, 128, 256, 512, 1024)

    def block_values(self, calls):
        bx, by = np.divmod(np.arange(20), 5)

        def value(m, i, j):
            rx = gauss_legendre(m, self.X_EDGES[i], self.X_EDGES[i + 1])
            ry = gauss_legendre(m, self.Y_EDGES[j], self.Y_EDGES[j + 1])
            return integrate_gauss(np.sqrt, rx) * integrate_gauss(lambda y: np.exp(-y), ry)

        def values(orders, idx):
            calls.append((orders, idx))
            return [np.array([value(m, i, j) for i, j in zip(bx[idx], by[idx])]) for m in orders]

        return values

    def test_separable_integral(self):
        calls = []
        got = refine_blocks(self.block_values(calls), 20, self.ORDERS, 1e-8, "test integral")
        assert got == pytest.approx(self.EXACT, rel=1e-8, abs=0.0)
        # past the first two orders only blocks of the first x panel move on
        assert all(ms[0] > 8 for ms, _ in calls[1:])
        assert all(np.all(idx < 5) for _, idx in calls[1:])
        # aor_af relies on increasing block indices (its top panel comes last)
        assert all(np.all(np.diff(idx) > 0) for _, idx in calls)

    def test_opening_round_is_one_call(self):
        # both opening orders of every block come from one values call, every
        # later call asks for one order, and the total is the one per-order
        # evaluation gives
        calls = []
        values = self.block_values(calls)
        got = refine_blocks(values, 20, self.ORDERS, 1e-8, "test integral")
        (orders, idx), *later = calls
        assert orders == (4, 8)
        assert np.array_equal(idx, np.arange(20))
        assert all(len(ms) == 1 for ms, _ in later)

        def per_order(orders, idx):
            return [values((m,), idx)[0] for m in orders]

        assert got == refine_blocks(per_order, 20, self.ORDERS, 1e-8, "test integral")

    def test_non_finite_block_value_raises(self):
        # a NaN block fits no error budget and moves no block; the loop must
        # raise instead of spinning, with or without calling values again
        calls = []

        def values(orders, idx):
            calls.append(orders)
            assert len(calls) < 50, "refine_blocks keeps asking for the same orders"
            return [np.where(idx == 2, math.nan, 1.0 / m) for m in orders]

        def spinning(signum, frame):
            raise AssertionError("refine_blocks spins on a NaN block value")

        handler = signal.signal(signal.SIGALRM, spinning)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(ConvergenceError, match="test integral") as info:
                refine_blocks(values, 4, self.ORDERS, 1e-8, "test integral")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, handler)
        assert len(calls) == 1
        assert all(math.isnan(total) for total in info.value.estimates)

    def test_raises_with_last_two_totals(self):
        calls = []
        with pytest.raises(ConvergenceError, match="test integral") as info:
            refine_blocks(self.block_values(calls), 20, (2, 4, 8), 1e-12, "test integral")
        prev, cur = info.value.estimates
        assert prev != cur
        assert cur == pytest.approx(self.EXACT, rel=1e-3)


class TestBesselK:
    def test_frozen_oracle_values(self):
        assert bessel_k0(1.0) == pytest.approx(K0_AT_1, rel=1e-10)
        assert bessel_k0(2.0) == pytest.approx(K0_AT_2, rel=1e-10)
        assert bessel_k1(1.0) == pytest.approx(K1_AT_1, rel=1e-10)
        assert bessel_k1(5.0) == pytest.approx(K1_AT_5, rel=1e-10)
        assert bessel_k1(5.0) < bessel_k1(1.0)

    def test_small_argument_log_behaviour(self):
        # K0(z) = -ln(z) + (ln 2 - euler_gamma) + O(z^2 ln z); the ratio to
        # -ln(z) approaches 1 with a known residual (ln 2 - gamma)/|ln z|
        z = 1e-8
        residual = (math.log(2.0) - 0.5772156649015329) / (-math.log(z))
        assert bessel_k0(z) / (-math.log(z)) == pytest.approx(1.0 + residual, abs=1e-6)
        assert bessel_k0(1e-300) / (-math.log(1e-300)) == pytest.approx(1.0, abs=1e-3)
        assert z * bessel_k1(z) == pytest.approx(1.0, abs=1e-6)

    def test_integral_representation_grid(self):
        for z in np.logspace(-6, math.log10(50.0), 21):
            ref0 = k_integral_oracle(float(z), 0)
            ref1 = k_integral_oracle(float(z), 1)
            assert abs(bessel_k0(float(z)) - ref0) <= 1e-10 * ref0
            assert abs(bessel_k1(float(z)) - ref1) <= 1e-10 * ref1

    def test_domain_and_underflow(self):
        with pytest.raises(ValueError):
            bessel_k0(0.0)
        with pytest.raises(ValueError):
            bessel_k1(-1.0)
        with pytest.warns(UnderflowWarning):
            assert bessel_k0(800.0) == 0.0
        with pytest.warns(UnderflowWarning):
            assert bessel_k1(1e4) == 0.0

    def test_vectorised_application(self):
        z = np.array([0.5, 1.0, 3.0])
        assert bessel_k0(z).shape == (3,)
        assert bessel_k0(z)[1] == pytest.approx(K0_AT_1, rel=1e-10)


class TestKernelIdentities:
    """Closed forms of the exponential-product kernels used by the rate integrals."""

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0), (5.0, 0.05)])
    def test_k1_kernel(self, p, q):
        got = integrate_semi_infinite(
            lambda u: np.exp(-(u / p + q / u)), 1e-11, laguerre_check=False
        )
        assert got == pytest.approx(2.0 * math.sqrt(p * q) * bessel_k1(2.0 * math.sqrt(q / p)), rel=1e-9)

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)])
    def test_k0_kernel(self, p, q):
        got = integrate_semi_infinite(
            lambda u: np.exp(-(u / p + q / u)) / u, 1e-11, laguerre_check=False
        )
        assert got == pytest.approx(2.0 * bessel_k0(2.0 * math.sqrt(q / p)), rel=1e-9)

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)])
    def test_inverse_square_kernel(self, p, q):
        got = integrate_semi_infinite(
            lambda u: np.exp(-(u / p + q / u)) / u**2, 1e-11, laguerre_check=False
        )
        ref = 2.0 / q * math.sqrt(q / p) * bessel_k1(2.0 * math.sqrt(q / p))
        assert got == pytest.approx(ref, rel=1e-9)


class TestUpperIncompleteGamma:
    def test_at_zero_is_complete_gamma(self):
        assert upper_inc_gamma_3_2(0.0) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)

    def test_monotone_decreasing_to_zero(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = upper_inc_gamma_3_2(xs)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-15

    def test_frozen_series_value(self):
        assert upper_inc_gamma_3_2(1.0) == pytest.approx(G32_AT_1, rel=1e-12)

    @pytest.mark.parametrize("x", [0.01, 0.1, 0.35, 0.7, 0.99])
    def test_against_series_oracle_below_one(self, x):
        assert upper_inc_gamma_3_2(x) == pytest.approx(series_gamma_3_2(x), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            upper_inc_gamma_3_2(-0.1)

    def test_erfc_basics(self):
        assert erfc(0.0) == pytest.approx(1.0)
        assert erfc(np.array([0.0, 1.0]))[1] == pytest.approx(math.erfc(1.0), rel=1e-15)
