"""Heat-content evaluators: series, transform, and Monte Carlo."""

import math

import numpy as np
import pytest

from shc_lab import (
    DriftExponent,
    InverseTime,
    IntervalDomain,
    StableExponent,
    SubordinatorTime,
    SumOfStablesExponent,
    TemperedStableExponent,
    TruncationBudgetError,
    ValidationError,
    bm_interval_eigensystem,
    heat_content,
    heat_content_inverse,
    heat_content_subordinate,
    monte_carlo_heat_content,
    monte_carlo_heat_content_grid,
    sample_increments,
)
from shc_lab.seeding import derive_rng

# direct summation oracles on (0, pi), generator convention e^{-t |xi|^2}
Q_SERIES_T1 = 0.9368322222222483          # sum_odd e^{-n^2} 8/(pi n^2)
Q_SUBORDINATE_HALF_T10 = 0.00011560997183006581  # weights e^{-10 n}
Q_INVERSE_HALF_T1 = 1.1098110182414838    # weights erfcx(n^2)

DOMAIN_PI = IntervalDomain(0.0, math.pi)


@pytest.fixture(scope="module")
def eig():
    return bm_interval_eigensystem(DOMAIN_PI, 2001)


class TestSeriesEvaluators:
    def test_frozen_value_t1(self, eig):
        hv = heat_content(eig, 1.0, tol=1e-12)
        assert hv.value == pytest.approx(Q_SERIES_T1, abs=1e-12)

    def test_short_time_recovers_mass(self, eig):
        hv = heat_content(eig, 1e-4, tol=1e-10)
        assert hv.value <= math.pi
        # deficit = (4/sqrt(pi)) sqrt(t) + O(t) ~ 0.0226 at t = 1e-4
        assert math.pi - hv.value == pytest.approx(4.0 / math.sqrt(math.pi) * 1e-2, rel=0.02)

    def test_small_t_refused_when_uncertifiable(self):
        small = bm_interval_eigensystem(DOMAIN_PI, 11)
        with pytest.raises(TruncationBudgetError):
            heat_content(small, 1e-6, tol=1e-10)

    def test_monotone_in_t(self, eig):
        ts = np.logspace(-3, 1, 12)
        vals = [heat_content(eig, float(t)).value for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_drift_subordinate_equals_plain(self, eig):
        for t in (0.1, 1.0, 3.0):
            a = heat_content(eig, t, tol=1e-12).value
            b = heat_content_subordinate(eig, DriftExponent(), t, tol=1e-12).value
            assert b == pytest.approx(a, abs=1e-14)

    def test_subordinate_frozen_value(self, eig):
        hv = heat_content_subordinate(eig, StableExponent(0.5), 10.0, tol=1e-14)
        assert hv.value == pytest.approx(Q_SUBORDINATE_HALF_T10, rel=1e-10)

    def test_subordinate_log_rate_converges(self, eig):
        # -(ln Q(t2) - ln Q(t1))/(t2 - t1) -> phi(lambda_1), here with
        # lambda_1 = 1 and a tempered exponent
        spec = TemperedStableExponent(0.5, 2.0)
        q49 = heat_content_subordinate(eig, spec, 49.0, tol=1e-30).value
        q50 = heat_content_subordinate(eig, spec, 50.0, tol=1e-30).value
        rate = -(math.log(q50) - math.log(q49))
        assert rate == pytest.approx(float(spec(1.0)), rel=1e-9)

    def test_inverse_frozen_value(self, eig):
        hv = heat_content_inverse(eig, StableExponent(0.5), 1.0, tol=1e-9)
        assert hv.value == pytest.approx(Q_INVERSE_HALF_T1, abs=1e-8)

    def test_inverse_short_time_mass(self, eig):
        hv = heat_content_inverse(eig, StableExponent(0.5), 1e-3, tol=1e-8)
        # independent erfcx-series oracle: Q = 2.74921080...
        assert hv.value == pytest.approx(2.7492108021550323, abs=1e-7)
        assert hv.value <= math.pi

    @pytest.mark.parametrize("t", [1e2, 1e6])
    def test_inverse_tempered_underflowing_weights(self, eig, t):
        # every weight is below 1e-79 here; the inversion returns round-off
        # of either sign near 1e-14 (a small negative one reads as 0), which
        # must not raise: the value lies in [0, inversion tol]
        hv = heat_content_inverse(eig, TemperedStableExponent(0.5, 2.0), t, tol=1e-8)
        assert 0.0 <= hv.value <= 1e-9
        assert 0.0 <= hv.error <= 1e-8

    def test_inverse_drift_equals_plain(self, eig):
        for t in (0.5, 2.0):
            a = heat_content(eig, t, tol=1e-12).value
            b = heat_content_inverse(eig, DriftExponent(), t, tol=1e-12).value
            assert b == pytest.approx(a, abs=1e-12)

    def test_inverse_mittag_leffler_oracle(self, eig):
        # independent oracle: E_{1/2}(-n^2) = erfcx(n^2), summed directly
        from scipy.special import erfcx

        n = np.arange(1, 4001, 2, dtype=float)
        direct = float(np.sum(erfcx(n ** 2) * 8.0 / (math.pi * n ** 2)))
        hv = heat_content_inverse(eig, StableExponent(0.5), 1.0, tol=1e-9)
        assert hv.value == pytest.approx(direct, abs=3e-9)

    def test_crossing_of_plain_and_inverse(self, eig):
        # the inverse time change loses heat faster near 0 and slower at
        # large t: exactly one sign change on the grid
        spec = StableExponent(0.5)
        signs = []
        for t in (0.01, 0.1, 1.0, 10.0, 100.0):
            qi = heat_content_inverse(eig, spec, t, tol=1e-8).value
            qp = heat_content(eig, t, tol=1e-8).value
            signs.append(qi - qp > 0)
        assert signs[0] is np.False_ or signs[0] is False
        assert signs[-1] is np.True_ or signs[-1] is True
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

    def test_values_within_mass_bound(self, eig):
        for t in (0.01, 1.0):
            hv = heat_content_inverse(eig, StableExponent(0.3), t, tol=1e-9)
            assert 0.0 <= hv.value <= math.pi + hv.error


class TestMonteCarlo:
    def test_t_zero_returns_mass_exactly(self):
        hv = monte_carlo_heat_content(
            1.5, DOMAIN_PI, None, 0.0, n_paths=5000, dt=None, n_steps=16, seed=1
        )
        assert hv.value == pytest.approx(math.pi, abs=1e-15)
        assert hv.error == 0.0

    def test_t_zero_fixed_dt_returns_mass_exactly(self):
        # a zero step budget survives without a single draw
        vals = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, InverseTime(StableExponent(0.5)), [0.0, 0.0],
            n_paths=5000, dt=0.01, seed=1,
        )
        assert [v.value for v in vals] == [math.pi, math.pi]

    def test_matches_series_alpha2(self, eig):
        t = 0.2
        hv = monte_carlo_heat_content(
            2.0, DOMAIN_PI, None, t, n_paths=200_000, dt=t / 256, seed=2
        )
        hv_fine = monte_carlo_heat_content(
            2.0, DOMAIN_PI, None, t, n_paths=200_000, dt=t / 1024, seed=3
        )
        ref = heat_content(eig, t, tol=1e-12).value
        band = 2.5 * abs(hv.value - hv_fine.value)
        assert abs(hv.value - ref) <= 1.5 * hv.error + band

    def test_inverse_stable_matches_transform(self, eig):
        # alpha=2 with the inverse 0.5-stable change: MC vs transform series
        t = 1.0
        spec = StableExponent(0.5)
        hv = monte_carlo_heat_content(
            2.0, DOMAIN_PI, InverseTime(spec), t, n_paths=200_000, dt=1e-3, seed=4
        )
        ref = heat_content_inverse(eig, spec, t, tol=1e-10).value
        # dt bias band calibrated by a quarter-step rerun
        hv_fine = monte_carlo_heat_content(
            2.0, DOMAIN_PI, InverseTime(spec), t, n_paths=100_000, dt=2.5e-4, seed=5
        )
        band = 2.5 * abs(hv.value - hv_fine.value)
        assert abs(hv.value - ref) <= 1.5 * hv.error + band

    @pytest.mark.parametrize(
        "spec", [TemperedStableExponent(0.5, 2.0), SumOfStablesExponent(0.3, 0.9)]
    )
    def test_inverse_grid_fallback_adaptive_matches_transform(self, eig, spec):
        # alpha=2, adaptive dt: E_t by first passage on the grid delta_u = 1e-3
        # (its overshoot moves Q by about 2e-3, far inside the band)
        t = 0.1
        tc = InverseTime(spec, delta_u=1e-3)
        hv = monte_carlo_heat_content(
            2.0, DOMAIN_PI, tc, t, n_paths=20_000, dt=None, n_steps=64, seed=10
        )
        ref = heat_content_inverse(eig, spec, t, tol=1e-8).value
        # step bias band calibrated by a rerun at a sixteenth of the step
        hv_fine = monte_carlo_heat_content(
            2.0, DOMAIN_PI, tc, t, n_paths=10_000, dt=None, n_steps=1024, seed=11
        )
        band = 2.5 * abs(hv.value - hv_fine.value)
        assert abs(hv.value - ref) <= 1.5 * hv.error + band

    def test_subordinator_direct_sampling(self, eig):
        # alpha=2 with D_t at t=0.5 under the drift double equals plain
        t = 0.5
        hv = monte_carlo_heat_content(
            2.0, DOMAIN_PI, SubordinatorTime(DriftExponent()), t,
            n_paths=100_000, dt=t / 512, seed=6,
        )
        hv_plain = monte_carlo_heat_content(
            2.0, DOMAIN_PI, None, t, n_paths=100_000, dt=t / 512, seed=6
        )
        assert hv.value == hv_plain.value  # identical draws, identical budget

    def test_worker_count_invariance(self):
        kw = dict(t=0.3, n_paths=20_000, dt=0.3 / 64, seed=7)
        a = monte_carlo_heat_content(1.5, DOMAIN_PI, None, workers=1, **kw)
        b = monte_carlo_heat_content(1.5, DOMAIN_PI, None, workers=2, **kw)
        assert a.value == b.value

    @pytest.mark.parametrize(
        "tc",
        [
            None,
            InverseTime(StableExponent(0.5)),
            SubordinatorTime(StableExponent(0.5)),
            SubordinatorTime(TemperedStableExponent(0.5, 1.0)),
            InverseTime(DriftExponent()),
        ],
    )
    def test_grid_monotone_common_numbers(self, tc):
        ts = [0.05, 0.1, 0.2, 0.4, 0.8]
        vals = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, tc, ts, n_paths=20_000, dt=0.01, seed=8
        )
        seq = [v.value for v in vals]
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        assert all(0.0 <= v <= math.pi for v in seq)

    def test_grid_first_passage_time_change(self):
        # tempered inverse change: exact step budgets grown on the grid dt
        # (delta_u, the adaptive-mode first-passage grid, does not apply)
        tc = InverseTime(TemperedStableExponent(0.5, 1.0), delta_u=5e-3)
        vals = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, tc, [0.1, 0.4], n_paths=500, dt=0.01, seed=9
        )
        assert vals[0].value >= vals[1].value
        assert all(0.0 <= v.value <= math.pi for v in vals)

    def test_validation(self):
        with pytest.raises(ValidationError):
            monte_carlo_heat_content(1.5, DOMAIN_PI, None, 1.0, n_paths=0, dt=0.1)
        with pytest.raises(ValidationError):
            monte_carlo_heat_content(1.5, DOMAIN_PI, None, 1.0, n_paths=10, dt=-0.1)
        with pytest.raises(ValidationError):
            monte_carlo_heat_content_grid(
                1.5, DOMAIN_PI, None, [0.2, 0.1], n_paths=10, dt=0.01, seed=0
            )
        with pytest.raises(ValidationError):
            monte_carlo_heat_content(1.5, DOMAIN_PI, "bogus", 0.1, n_paths=10, dt=0.01)

    @pytest.mark.parametrize(
        "t, dt",
        [(math.nan, 0.01), (math.inf, 0.01), (0.1, math.inf), (0.1, math.nan)],
        ids=["t-nan", "t-inf", "dt-inf", "dt-nan"],
    )
    @pytest.mark.parametrize("grid", [False, True], ids=["single", "grid"])
    def test_non_finite_t_or_dt_rejected(self, grid, t, dt):
        # dt = inf used to return pi +- 0, the others to fail deep in the walk
        with pytest.raises(ValidationError, match="finite"):
            if grid:
                monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, [t], n_paths=10, dt=dt)
            else:
                monte_carlo_heat_content(1.5, DOMAIN_PI, None, t, n_paths=10, dt=dt)

    @pytest.mark.parametrize("t", [math.nan, math.inf], ids=["t-nan", "t-inf"])
    def test_non_finite_t_rejected_adaptive(self, t):
        # both used to return 0 +- 0
        with pytest.raises(ValidationError, match="finite"):
            monte_carlo_heat_content(1.5, DOMAIN_PI, None, t, n_paths=10, dt=None, n_steps=8)

    @pytest.mark.parametrize(
        "delta", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"]
    )
    def test_bad_increment_step_rejected(self, delta):
        # a nan or inf delta_u used to give 0 +- 0 for the sum exponent (and a
        # raw ValueError or OverflowError for the tempered one)
        spec = SumOfStablesExponent(0.3, 0.9)
        with pytest.raises(ValidationError, match="finite"):
            sample_increments(spec, delta, 10, derive_rng(0))
        with pytest.raises(ValidationError, match="finite"):
            InverseTime(spec, delta_u=delta)

    @pytest.mark.parametrize("seed", [2.9, 2.0, -1, True, "2", None])
    def test_bad_seed_rejected(self, seed):
        # a float seed used to be truncated silently (2.9 ran as 2)
        with pytest.raises(ValidationError):
            monte_carlo_heat_content(
                1.5, DOMAIN_PI, None, 0.1, n_paths=10, dt=0.01, seed=seed
            )

    def test_numpy_integer_seed_accepted(self):
        kw = dict(t=0.1, n_paths=100, dt=0.01)
        a = monte_carlo_heat_content(1.5, DOMAIN_PI, None, seed=np.int64(2), **kw)
        b = monte_carlo_heat_content(1.5, DOMAIN_PI, None, seed=2, **kw)
        assert a.value == b.value
