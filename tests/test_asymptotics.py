"""Asymptotic-law evaluators: rates, constants, moments, tails."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from shc_lab import (
    FROZEN_SUP_MEAN,
    IntervalDomain,
    Regime,
    StableExponent,
    SumOfStablesExponent,
    TemperedStableExponent,
    UnresolvedTailError,
    ValidationError,
    bm_interval_eigensystem,
    classify_regime,
    expected_functional,
    expected_laplace,
    expected_supremum,
    expected_xlog,
    fit_loglog,
    frac_perimeter_interval,
    frac_perimeter_numeric,
    large_time_asymptote,
    large_time_constant,
    monotonized_xlog,
    moment_asymptote,
    small_time_asymptote,
    small_time_constant,
    small_time_rate,
    subordinate_log_rate,
    tail_decay_probe,
    weighted_series,
    xlog_asymptote,
)

E1 = math.exp(-1.0)
# closed form Per_{1/2}((0,1)) = 8 c(1, 1/2) with
# c(1,1/2) = 0.5 * 2^{-1/2} / sqrt(pi) (the Gamma factors cancel)
PER_HALF_UNIT = 1.595769121605731
# (pi^3/12)/Gamma(1/2), the large-time constant on (0, pi) at beta=1/2
LARGE_TIME_C_HALF = 1.4577848606354051


class TestRegimesAndRates:
    def test_classify(self):
        assert classify_regime(1.5) is Regime.SUPERCRITICAL
        assert classify_regime(1.0) is Regime.CRITICAL
        assert classify_regime(0.5) is Regime.SUBCRITICAL
        with pytest.raises(ValidationError):
            classify_regime(2.0)

    def test_rate_examples(self):
        assert small_time_rate(1.0, E1) == pytest.approx(E1, abs=1e-15)
        assert small_time_rate(1.5, 8.0) == pytest.approx(4.0, abs=1e-12)
        assert small_time_rate(0.5, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_critical_rate_domain(self):
        with pytest.raises(ValidationError):
            small_time_rate(1.0, 1.0)


class TestFractionalPerimeter:
    def test_homogeneity(self):
        for alpha in (0.25, 0.5, 0.75):
            r = frac_perimeter_interval(alpha, 2.0) / frac_perimeter_interval(alpha, 1.0)
            assert r == pytest.approx(2.0 ** (1.0 - alpha), rel=1e-12)

    def test_closed_form_frozen(self):
        assert frac_perimeter_interval(0.5, 1.0) == pytest.approx(PER_HALF_UNIT, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("length", [1.0, math.pi])
    def test_numeric_cross_check(self, alpha, length):
        dom = IntervalDomain(0.0, length)
        num = frac_perimeter_numeric(dom, alpha)
        ref = frac_perimeter_interval(alpha, length)
        assert num == pytest.approx(ref, rel=1e-6)

    def test_divergence_toward_alpha_one(self):
        assert frac_perimeter_interval(0.999, 1.0) > 100.0

    def test_domain_checks(self):
        with pytest.raises(ValidationError):
            frac_perimeter_interval(1.0, 1.0)


class TestSmallTimeConstant:
    def test_critical_interval(self):
        g = IntervalDomain(0.0, math.pi)
        assert small_time_constant(1.0, g) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_supercritical_uses_sup_mean(self):
        # |boundary| E[sup]: the frozen value at 1.5, Spitzer's closed form elsewhere
        g = IntervalDomain(0.0, 1.0)
        assert small_time_constant(1.5, g) == pytest.approx(2.0 * FROZEN_SUP_MEAN[1.5], rel=1e-12)
        sup = 1.2 * math.gamma(1.0 - 1.0 / 1.2) / math.pi
        assert small_time_constant(1.2, g) == pytest.approx(2.0 * sup, rel=1e-12)

    def test_subcritical_interval(self):
        g = IntervalDomain(0.0, 1.0)
        assert small_time_constant(0.5, g) == pytest.approx(PER_HALF_UNIT, rel=1e-12)


class TestLargeTimeLaw:
    @staticmethod
    def _series(eig, beta):
        """sum m^2 / (lambda Gamma(1 - beta)) with its tail certificate."""
        g = math.gamma(1.0 - beta)
        return weighted_series(eig, lambda lam: 1.0 / (lam * g))

    def test_constant_closed_form(self):
        d = IntervalDomain(0.0, math.pi)
        eig = bm_interval_eigensystem(d, 100_001)
        c = large_time_constant(2.0, d, 0.5)
        assert c == pytest.approx(LARGE_TIME_C_HALF, rel=1e-5)
        # the certificate is for exact arithmetic: summing 50,001 terms in
        # floating point may leave the value below the exact sum by up to
        # n u * value (it is 1.5e-13 here against a tail bound of 7e-16)
        sv = self._series(eig, 0.5)
        slack = sv.n_terms * np.finfo(float).eps * sv.value
        assert sv.value - slack <= c <= sv.value + sv.tail_bound + slack

    def test_constant_brute_force_oracle(self):
        # sum_odd (8/pi) n^-4 / Gamma(1/2) over 10^6 terms
        n = np.arange(1, 2_000_001, 2, dtype=float)
        brute = float(np.sum(8.0 / (math.pi * n ** 4))) / math.gamma(0.5)
        assert brute == pytest.approx(LARGE_TIME_C_HALF, rel=1e-12)

    def test_beta_zero_gamma_one(self):
        d = IntervalDomain(0.0, math.pi)
        eig = bm_interval_eigensystem(d, 1001)
        sv = self._series(eig, 0.0)
        direct = float(np.sum(eig.masses_sq / eig.lambdas))
        assert sv.value == pytest.approx(direct, rel=1e-14)
        assert sv.value <= large_time_constant(2.0, d, 0.0) <= sv.value + sv.tail_bound

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_closed_form_in_series_bracket(self, beta):
        # the closed form exceeds the 4,001-mode sum by its tail, 2.6e-12
        d = IntervalDomain(0.0, math.pi)
        sv = self._series(bm_interval_eigensystem(d, 4001), beta)
        c = large_time_constant(2.0, d, beta)
        assert sv.value <= c <= sv.value + sv.tail_bound
        assert c / sv.value - 1.0 == pytest.approx(2.56e-12, rel=0.01)

    def test_asymptote_and_index_guard(self):
        d = IntervalDomain(0.0, math.pi)
        v = large_time_asymptote(2.0, d, StableExponent(0.5), 1e4)
        assert v == pytest.approx(1e-2 * large_time_constant(2.0, d, 0.5), rel=1e-9)
        with pytest.raises(ValidationError):
            large_time_asymptote(2.0, d, TemperedStableExponent(0.5, 1.0), 1e4)
        for alpha in (0.0, 2.5, math.nan):
            with pytest.raises(ValidationError):
                large_time_constant(alpha, d, 0.5)


class TestSmallTimeAsymptote:
    def test_supercritical_composition(self):
        g = IntervalDomain(0.0, 1.0)
        spec = StableExponent(0.5)
        t = 1e-3
        v = small_time_asymptote(1.5, spec, g, t)
        ref = (
            2.0 * FROZEN_SUP_MEAN[1.5] * math.gamma(5.0 / 3.0) / math.gamma(4.0 / 3.0)
            * t ** (1.0 / 3.0)
        )
        assert v == pytest.approx(ref, rel=1e-12)
        v = small_time_asymptote(1.2, spec, g, t)
        ref = (
            2.0 * expected_supremum(1.2) * math.gamma(1.0 + 1.0 / 1.2)
            / math.gamma(1.0 + 0.5 / 1.2) * t ** (0.5 / 1.2)
        )
        assert v == pytest.approx(ref, rel=1e-12)

    def test_critical_direct_arithmetic(self):
        g = IntervalDomain(0.0, 1.0)
        t = 1e-6
        v = small_time_asymptote(1.0, StableExponent(0.5), g, t)
        ref = (2.0 / (math.pi * math.gamma(1.5))) * t ** 0.5 * math.log(t ** -0.5)
        assert v == pytest.approx(ref, rel=1e-12)

    def test_subcritical_composition(self):
        g = IntervalDomain(0.0, 1.0)
        t = 1e-4
        v = small_time_asymptote(0.5, StableExponent(0.5), g, t)
        assert v == pytest.approx(PER_HALF_UNIT / math.gamma(1.5) * t ** 0.5, rel=1e-12)

    def test_critical_needs_log_factor(self):
        g = IntervalDomain(0.0, 1.0)
        with pytest.raises(ValidationError):
            small_time_asymptote(1.0, StableExponent(0.5), g, 2.0)

    def test_positive_and_decaying(self):
        g = IntervalDomain(0.0, 1.0)
        for alpha in (1.5, 1.2, 1.0, 0.5):
            vals = [
                small_time_asymptote(alpha, StableExponent(0.5), g, t)
                for t in np.logspace(-8, -2, 13)
            ]
            assert all(v > 0.0 for v in vals)
            assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestSubordinateLogRate:
    def test_examples(self):
        from shc_lab import DriftExponent

        assert subordinate_log_rate(DriftExponent(), 1.0) == -1.0
        assert subordinate_log_rate(StableExponent(0.5), 1.0) == -1.0
        v = subordinate_log_rate(TemperedStableExponent(0.5, 2.0), 1.0)
        assert v == pytest.approx(-(math.sqrt(3.0) - math.sqrt(2.0)), rel=1e-12)


class TestMonotonizedXlog:
    def test_branch_values(self):
        assert monotonized_xlog(E1) == pytest.approx(E1, abs=1e-15)
        assert monotonized_xlog(math.exp(-2.0)) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
        assert monotonized_xlog(5.0) == E1

    def test_global_monotone_continuous(self):
        xs = np.linspace(1e-6, 2.0, 4001)
        vals = [monotonized_xlog(float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for x in xs[xs <= E1]:
            assert monotonized_xlog(float(x)) == pytest.approx(
                float(x) * math.log(1.0 / x), rel=1e-12
            )


class TestExpectedXlog:
    def test_half_normal_closed_form(self):
        # at beta = 1/2 the inverse process is half-normal:
        # E[x ln(1/x)] = sqrt(t/pi) (ln(1/t) - 2 ln 2 + gamma_E) + plateau terms
        t = 1e-6
        gamma_e = 0.5772156649015329
        exact = math.sqrt(t / math.pi) * (math.log(1.0 / t) - 2.0 * math.log(2.0) + gamma_e)
        assert expected_xlog(0.5, t) == pytest.approx(exact, rel=1e-10)

    def test_ratio_converges_to_asymptote(self):
        # |ratio - 1| = (2 ln 2 - gamma_E)/ln(1/t) for beta = 1/2: the
        # 5% band is reached near t ~ 9e-8 and tightens from there
        r6 = expected_xlog(0.5, 1e-6) / xlog_asymptote(0.5, 1e-6)
        r9 = expected_xlog(0.5, 1e-9) / xlog_asymptote(0.5, 1e-9)
        assert abs(r9 - 1.0) < abs(r6 - 1.0)
        assert abs(r9 - 1.0) <= 0.05


class TestRegularityConditions:
    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.5])
    def test_truncation_insensitivity(self, alpha):
        # E[f_alpha(E_t); E_t <= d1] / E[f_alpha(E_t); E_t <= d2] -> 1
        def f(x):
            if alpha == 1.0:
                return np.where((0 < x) & (x < 1), x * np.log(1.0 / x), 0.0)
            return x ** (1.0 / alpha) if alpha > 1 else x

        ratios = []
        for t in (1e-2, 1e-4, 1e-6):
            a = expected_functional(0.5, t, f, upper=0.1).value
            b = expected_functional(0.5, t, f, upper=1.0).value
            ratios.append(a / b)
        assert abs(ratios[-1] - 1.0) < 1e-6
        assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)

    def test_tail_negligible_vs_truncated_rate(self):
        # P(E_t > d) = o(E[f_alpha(E_t); E_t <= d])
        d, alpha = 0.5, 1.5
        vals = []
        for t in (1e-1, 1e-2, 1e-3):
            p = expected_functional(0.5, t, lambda x: 1.0, lower=d).value
            m = expected_functional(0.5, t, lambda x: x ** (1.0 / alpha), upper=d).value
            vals.append(p / m)
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < 1e-12


class TestMomentLaw:
    def test_first_moment_shape(self):
        spec = StableExponent(0.3)
        t = 0.7
        assert moment_asymptote(1.0, spec, t) == pytest.approx(
            t ** 0.3 / math.gamma(1.3), rel=1e-12
        )

    def test_exactness_vs_quadrature(self):
        spec = StableExponent(0.5)
        est = expected_functional(0.5, 1.0, lambda x: x * x)
        assert est.value == pytest.approx(moment_asymptote(2.0, spec, 1.0), rel=1e-6)

    def test_finite_difference_validation(self):
        # moments from one-sided finite differences of a -> E[e^{-a E_t}]
        beta, t = 0.5, 1.0
        spec = StableExponent(beta)
        F = lambda a: expected_laplace(spec, a, t) if a > 0 else 1.0
        h = 1e-4
        m1 = -(-3.0 * F(0.0) + 4.0 * F(h) - F(2.0 * h)) / (2.0 * h)
        assert m1 == pytest.approx(moment_asymptote(1.0, spec, t), rel=1e-5)
        h = 1e-3
        m2 = (2.0 * F(0.0) - 5.0 * F(h) + 4.0 * F(2.0 * h) - F(3.0 * h)) / h ** 2
        assert m2 == pytest.approx(moment_asymptote(2.0, spec, t), rel=1e-4)

    def test_sum_exponent_uses_index_at_infinity(self):
        spec = SumOfStablesExponent(0.3, 0.9)
        t = 1e-6
        v = moment_asymptote(1.0, spec, t)
        phi = (1.0 / t) ** 0.3 + (1.0 / t) ** 0.9
        assert v == pytest.approx(1.0 / (phi * math.gamma(1.9)), rel=1e-12)


class TestTailProbe:
    def test_unresolved_tail_raises(self):
        with pytest.raises(UnresolvedTailError):
            tail_decay_probe(0.5, 50.0, [1e-4, 1e-3, 1e-2], 1000, seed=1)

    def test_unresolved_names_smallest_t(self):
        # the events nest, so the smallest t runs out of hits first
        with pytest.raises(UnresolvedTailError, match=r"t=0\.0001;"):
            tail_decay_probe(0.5, 50.0, [1e-2, 1e-3, 1e-4], 1000, seed=1)

    def test_saturated_tail_raises(self):
        # every sample exceeds a tiny delta: p = 1 has no ln(-ln p)
        with pytest.raises(UnresolvedTailError, match=r"every sample .* t=40\.0;"):
            tail_decay_probe(0.5, 1e-6, [10.0, 20.0, 40.0], 1000, seed=1)

    @pytest.mark.parametrize("t", [0.0, -1e-2, math.inf])
    def test_bad_t_rejected(self, t):
        with pytest.raises(ValidationError, match="t must be"):
            tail_decay_probe(0.5, 1.0, [1e-2, 2e-2, t], 1000, seed=1)

    def test_flat_grid_rejected_before_drawing(self, monkeypatch):
        # every t equal leaves the log-log slope undefined (it read NaN)
        def no_draw(*args):
            raise AssertionError("drew E_1")

        monkeypatch.setattr(StableExponent, "inverse_exceedances", no_draw)
        with pytest.raises(ValidationError, match="degenerate abscissa"):
            tail_decay_probe(0.5, 1.0, [0.05, 0.05, 0.05], 10_000, 1)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf])
    def test_nonpositive_or_infinite_delta_rejected(self, delta):
        with pytest.raises(ValidationError, match="delta"):
            tail_decay_probe(0.5, delta, [1e-2, 2e-2, 4e-2], 1000, seed=1)

    @pytest.mark.parametrize("n_samples", [1000.5, 1000.0, True, 99, np.float64(1000.0)])
    def test_non_integral_sample_count_rejected(self, n_samples):
        # 1000.5 used to raise TypeError from the sampler
        with pytest.raises(ValidationError, match="n_samples"):
            tail_decay_probe(0.5, 1.0, [1e-2, 2e-2, 4e-2], n_samples, seed=1)

    def test_quick_slope_sanity(self):
        res = tail_decay_probe(
            0.5, 1.0, np.logspace(math.log10(0.023), math.log10(0.0434), 5), 200_000, seed=2
        )
        assert res.expected_slope == -1.0
        assert abs(res.slope - res.expected_slope) < 0.3
        # tails shrink as t shrinks
        nl = res.neg_log_tails
        assert all(a >= b for a, b in zip(nl, nl[1:]))

    def test_ci_calibrated_over_seeds(self):
        # every t counts the same sample of E_1, so the counts are
        # correlated and the slope CI must carry their covariance; over
        # 300 seeds the slopes' spread matches the reported half-width /
        # 1.96 (dropping the covariance reads about 15% narrow and fails),
        # and the CI covers the exact slope over the same window, from
        # P(E_t > 1) = erfc(1 / (2 sqrt t)) at beta = 1/2
        ts = np.logspace(math.log10(0.04), math.log10(0.1), 7)
        window = fit_loglog(list(zip(ts, -np.log(erfc(0.5 / np.sqrt(ts)))))).slope
        slopes, halves = [], []
        for seed in range(300):
            res = tail_decay_probe(0.5, 1.0, ts, 200_000, seed=seed)
            nl = res.neg_log_tails
            # nested events: -ln p_hat never rises as t rises, for any seed
            assert all(a >= b for a, b in zip(nl, nl[1:]))
            slopes.append(res.slope)
            halves.append(res.ci_halfwidth)
        slopes, halves = np.array(slopes), np.array(halves)
        spread = float(np.std(slopes, ddof=1))
        assert abs(spread / (np.median(halves) / 1.96) - 1.0) <= 0.15
        assert np.mean(np.abs(slopes - window) <= halves) >= 0.90
