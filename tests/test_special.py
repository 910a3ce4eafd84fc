"""Mittag-Leffler evaluation and fixed-Talbot inversion."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erfcx

from shc_lab import (
    InversionError,
    StableExponent,
    TemperedStableExponent,
    ValidationError,
    expected_laplace,
    fixed_talbot,
    inverse_time_transform,
    laplace_invert,
    mittag_leffler,
)


def kahan_series_oracle(beta, x, stop=1e-16):
    """Independent power-series summation (used only where cancellation
    is benign); the package implementation is not consulted."""
    total, comp = 1.0, 0.0
    k = 0
    while True:
        k += 1
        term = x ** k / math.gamma(beta * k + 1.0)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < stop:
            return total


class TestMittagLeffler:
    def test_unit_at_zero(self):
        assert mittag_leffler(0.5, 0.0) == 1.0

    def test_beta_one_is_exp(self):
        assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_series_oracle_vs_erfc_identity(self):
        # E_{1/2}(-x) = e^{x^2} erfc(x): both oracles agree with the package
        oracle = kahan_series_oracle(0.5, -1.0)
        assert oracle == pytest.approx(float(erfcx(1.0)), abs=1e-15)
        assert mittag_leffler(0.5, -1.0) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("a", np.logspace(-3, 8, 23).tolist())
    def test_erfc_identity_all_branches(self, a):
        # a from 1e-3 to 1e8: the step of the integral's weight at
        # t0 = -log(a) moves across the kernel's peak at t = 0; abs = 0 keeps
        # the check relative where erfcx(a) is far below 1
        assert mittag_leffler(0.5, -a) == pytest.approx(float(erfcx(a)), rel=1e-9, abs=0)

    def test_erfc_identity_dense_grid(self):
        # absolute accuracy as the integral's knots move with a
        zs = np.logspace(-3, 3, 2001)
        err = max(abs(mittag_leffler(0.5, -float(z)) - float(erfcx(z))) for z in zs)
        assert err <= 1e-11

    def test_cm_integral_small_beta(self):
        # for small beta the factor exp(-(a u)^(1/beta)) is nearly a step at
        # u = 1/a; there the power series (a < 1) is benign and exact
        from shc_lab.special import _cm_integral

        def series(beta, a):
            terms, k = [], 0
            while not terms or abs(terms[-1]) >= 1e-18:
                terms.append((-a) ** k / math.gamma(beta * k + 1.0))
                k += 1
            return math.fsum(terms)

        err = max(
            abs(_cm_integral(beta, float(a)) - series(beta, float(a)))
            for beta in (0.005, 0.01, 0.02, 0.05)
            for a in np.logspace(-4, math.log10(0.9), 25)
        )
        assert err <= 1e-12

    @pytest.mark.parametrize("beta", [0.999, 0.99999, 1.0 - 2.0 ** -45])
    def test_near_one_matches_inversion(self, beta):
        # as beta -> 1 the integral's kernel tends to a point mass at u = 1;
        # Talbot inversion of s^(beta-1) / (s^beta + a) is the independent
        # reference
        a = np.logspace(-2, 3, 60)
        ref = expected_laplace(StableExponent(beta), a, 1.0)
        vals = np.array([mittag_leffler(beta, -float(x)) for x in a])
        assert np.max(np.abs(vals - ref)) <= 1e-11

    @pytest.mark.parametrize("beta", [0.3, 0.7, 0.999, 1.0 - 2.0 ** -52])
    def test_tiny_argument(self, beta):
        # the weight's step lies far out in the kernel's tail, which a
        # piece spanning decades of u would miss; the series' first terms
        # are exact here
        for a in (1e-8, 1e-12, 1e-16, 1e-20, 1e-100, 1e-300, 5e-324):
            expected = 1.0 - a / math.gamma(1.0 + beta) + a * a / math.gamma(1.0 + 2.0 * beta)
            assert abs(mittag_leffler(beta, -a) - expected) <= 1e-15

    @pytest.mark.parametrize(
        "beta,a,rel",
        [
            (1e-10, 1e300, 1e-12),
            (1e-14, 1e-300, 1e-12),
            (1e-14, 1e300, 1e-12),
            (1e-16, 1e300, 1e-12),
        ],
    )
    def test_tiny_beta_extreme_argument(self, beta, a, rel):
        # at t0 = -log a ~ +-690 the spacing of floats in t = log u is
        # 1e-13, which 1/beta magnifies past the weight's step (width beta
        # in t); the step's share of the value is about beta, so the rule
        # stays accurate and its h/2h gap raises no RuntimeWarning.
        # The reference is the expansion in beta, from
        # d/dbeta 1/Gamma(1 + beta k) = gamma k at beta = 0, with an error
        # of O(beta^2).  At |x| = 1e300 and beta = 1e-14 or 1e-16, tan h
        # (1 + w) in the closed-form mass below the step is subnormal, so
        # the mass must be divided by beta pi before it is formed.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = mittag_leffler(beta, -a)
        assert 0.0 <= value <= 1.0
        expected = (1.0 - np.euler_gamma * beta * a / (1.0 + a)) / (1.0 + a)
        assert value == pytest.approx(expected, rel=rel, abs=0.0)

    @pytest.mark.parametrize("beta", [0.3, 0.7, 0.9, 0.999])
    def test_huge_argument(self, beta):
        # relative accuracy where the value is about 1 / (a Gamma(1 - beta)):
        # the asymptotic series sum_k -(-a)^-k / Gamma(1 - beta k), whose
        # third term is below 1e-30 of the first here
        for a in (1e10, 1e100, 1e300):
            expected = (1.0 / math.gamma(1.0 - beta) - 1.0 / (a * math.gamma(1.0 - 2.0 * beta))) / a
            assert mittag_leffler(beta, -a) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.8, 0.95])
    def test_bounds_and_monotonicity(self, beta):
        xs = -np.logspace(-3, 6, 60)
        vals = [mittag_leffler(beta, float(x)) for x in xs]
        assert all(0.0 < v <= 1.0 for v in vals)
        # x1 <= x2 <= 0 implies E(x1) <= E(x2): vals above are for |x| increasing
        assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("beta,a", [(0.3, 1.0), (0.6, 2.0), (0.9, 0.5)])
    def test_complete_monotonicity_spot_check(self, beta, a):
        # complete monotonicity of t -> E_beta(-a t^beta): nonincreasing
        # and convex, i.e. second *divided* differences >= 0 on the
        # (unequally spaced) log grid
        ts = np.logspace(-2, 2, 40)
        vals = np.array([mittag_leffler(beta, -a * t ** beta) for t in ts])
        d1 = np.diff(vals) / np.diff(ts)
        assert np.all(d1 <= 1e-15)
        d2 = np.diff(d1) / (ts[2:] - ts[:-2])
        assert np.all(d2 >= -1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            mittag_leffler(0.0, -1.0)
        with pytest.raises(ValidationError):
            mittag_leffler(1.2, -1.0)
        with pytest.raises(ValidationError):
            mittag_leffler(0.5, 0.1)

    @pytest.mark.parametrize("beta", [0.3, 0.9])
    @pytest.mark.parametrize("x", [-math.inf, math.inf, math.nan])
    def test_non_finite_argument(self, beta, x):
        with pytest.raises(ValidationError, match="x must be finite and <= 0"):
            mittag_leffler(beta, x)

    def test_gap_signal(self, monkeypatch):
        # at beta = 0.999, |x| = 1e-5 a knot interval is about 46 units of y
        # wide around the kernel's bump of unit width: one panel for it is
        # off by about 3e-6, and its h/2h gap must say so
        import shc_lab.special as special

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mittag_leffler(0.999, -1e-5)
        monkeypatch.setattr(special, "_PANEL", 1e300)
        with pytest.warns(RuntimeWarning, match="h/2h gap"):
            mittag_leffler(0.999, -1e-5)

    def test_forty_digit_reference(self):
        # the absolute error against a 40-digit evaluation: the power series
        # for |x| <= 1/2, Talbot inversion of s^(beta-1) / (s^beta + |x|) at
        # t = 1 above (part 6 of scripts/mittag_leffler_stress.py)
        mpmath = pytest.importorskip("mpmath")

        def reference(beta, a):
            b, x = mpmath.mpf(beta), mpmath.mpf(a)
            if x > 0.5:
                return mpmath.invertlaplace(lambda s: s ** (b - 1) / (s ** b + x), 1, method="talbot")
            total, term, k = mpmath.mpf(1), mpmath.mpf(1), 0
            while abs(term) > mpmath.mpf(10) ** -45:
                k += 1
                term = (-x) ** k * mpmath.rgamma(b * k + 1)
                total += term
            return total

        betas = [1e-3, 0.01, 0.1, 0.25 + 1e-9, 0.3, 0.5, 0.5 + 1e-12, 0.7, 0.9, 0.999,
                 1.0 - 2.0 ** -45, 1.0 - 2.0 ** -52]
        xs = [1e-300, 1e-40, 1e-12, 1e-5, 0.03, 0.5, 3.0, 1e3]
        with mpmath.workdps(40):
            worst = max(
                float(abs(mittag_leffler(beta, -x) - reference(beta, x)))
                for beta in betas
                for x in xs
            )
        assert worst <= 1e-15


class TestLaplaceInvert:
    def test_constant_function(self):
        # transform of 1 is 1/s
        assert laplace_invert(lambda s: 1 / s, 3.0) == pytest.approx(1.0, abs=1e-9)

    def test_exponential(self):
        assert laplace_invert(lambda s: 1 / (s + 1), 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-9
        )

    def test_mittag_leffler_oracle(self):
        # F(s) = s^{-1/2}/(s^{1/2}+1) inverts to E_{1/2}(-sqrt(t))
        def F(s):
            r = s ** 0.5
            return r / (s * (r + 1))

        assert laplace_invert(F, 1.0) == pytest.approx(
            mittag_leffler(0.5, -1.0), abs=1e-6
        )

    def test_fixed_order_consistency(self):
        # both node counts resolve e^{-2t} far below the default tol, and
        # laplace_invert returns the 24-node value
        F = lambda s: 1 / (s + 2)
        v16 = fixed_talbot(F, 0.5, 16)
        v24 = fixed_talbot(F, 0.5, 24)
        exact = math.exp(-1.0)
        assert v16 == pytest.approx(exact, abs=1e-11)
        assert v24 == pytest.approx(exact, abs=1e-12)
        assert laplace_invert(F, 0.5) == v24

    def test_array_transform_inverts_elementwise(self):
        # nodes on the last axis, one row per function: e^{-a t} for each a
        a = np.array([0.5, 1.0, 5.0])
        v = laplace_invert(lambda s: 1 / np.add.outer(a, s), 1.0)
        assert v.shape == (3,)
        assert np.allclose(v, np.exp(-a), rtol=0, atol=1e-11)

    def test_ill_conditioning_signal(self):
        # transform of a unit step at t=1; the discontinuity defeats the
        # contour, so the two node counts disagree
        with pytest.raises(InversionError):
            laplace_invert(lambda s: np.exp(-s) / s, 1.0)

    def test_order_validation(self):
        F = lambda s: 1 / s
        for nodes in (1, 0, 16.0, True):
            with pytest.raises(ValidationError):
                fixed_talbot(F, 1.0, nodes)
        for t in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                fixed_talbot(F, t, 16)
            with pytest.raises(ValidationError):
                laplace_invert(F, t)


class TestTransformFunction:
    """The double Laplace transform phi(s) / (s (phi(s) + a)) of the
    inverse time change, and the bound on what its inversion may return."""

    spec = TemperedStableExponent(0.5, 2.0)

    def test_domain_enforced(self):
        with pytest.raises(ValidationError):
            inverse_time_transform(self.spec, np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            inverse_time_transform(self.spec, -1.0)

    def test_sup_bound_enforced(self, monkeypatch):
        # the exact E[exp(-a E_t)] is at most 1: an inverted value above
        # 1 + tol is an inversion failure, not a weight
        import shc_lab.subordinators as sub

        tol = 1e-9
        a = np.array([1.0, 2.0])
        monkeypatch.setattr(sub, "laplace_invert", lambda *x, **k: np.array([1.0 + 0.5 * tol, 0.5]))
        assert np.array_equal(expected_laplace(self.spec, a, 1.0, tol=tol), [1.0 + 0.5 * tol, 0.5])
        monkeypatch.setattr(sub, "laplace_invert", lambda *x, **k: np.array([1.0 + 2.0 * tol, 0.5]))
        with pytest.raises(InversionError):
            expected_laplace(self.spec, a, 1.0, tol=tol)

    def test_passthrough(self):
        # an array of a broadcasts over the nodes: row i is the scalar transform of a[i]
        s = np.array([0.5 + 0.0j, 1.0 + 2.0j, -3.0 + 1.0j])
        a = np.array([0.5, 1.0, 5.0])
        rows = inverse_time_transform(self.spec, a)(s)
        assert rows.shape == (3, 3)
        for i, ai in enumerate(a):
            ph = self.spec(s)
            assert np.allclose(rows[i], ph / (s * (ph + ai)), rtol=1e-15, atol=0)
            assert np.array_equal(rows[i], inverse_time_transform(self.spec, ai)(s))
        assert inverse_time_transform(self.spec, 1.0)(1.0) == pytest.approx(
            self.spec(1.0) / (self.spec(1.0) + 1.0)
        )
