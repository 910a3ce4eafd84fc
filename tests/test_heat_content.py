"""Heat-content evaluators: series, transform, and Monte Carlo."""

import importlib
import math
import warnings
from pathlib import Path

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
    monte_carlo_heat_content_grid,
    sample_increments,
    stable_interval_eigensystem,
    weighted_series,
)
from shc_lab.experiments import parse_config_file, run_experiment
from shc_lab.seeding import derive_rng
from shc_lab.stable_motion import _unit_extremes

# direct summation oracles on (0, pi), generator convention e^{-t |xi|^2}
Q_SERIES_T1 = 0.9368322222222483          # sum_odd e^{-n^2} 8/(pi n^2)
Q_SUBORDINATE_HALF_T10 = 0.00011560997183006581  # weights e^{-10 n}
Q_INVERSE_HALF_T1 = 1.1098110182414838    # weights erfcx(n^2)

DOMAIN_PI = IntervalDomain(0.0, math.pi)

# the module, which the package's attribute of the same name (a function) hides
HEAT_CONTENT = importlib.import_module("shc_lab.heat_content")

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ALL_EXPONENTS = [
    StableExponent(0.5),
    TemperedStableExponent(0.5, 1.0),
    SumOfStablesExponent(0.3, 0.9),
    DriftExponent(),
]


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

    def test_inverse_exact_deficits_alpha15(self):
        # |D| - Q(t) at alpha = 1.5, inverse 0.5-stable, (0, 1), on the
        # Galerkin eigen series; the deficits are quoted to 6 decimals, so
        # each lies within 5e-7 of the certified bracket [1 - value - error, 1 - value]
        eig = stable_interval_eigensystem(IntervalDomain(0.0, 1.0), 1.5, 300)
        quoted = (0.110555, 0.140886, 0.179009, 0.226531, 0.285006, 0.355469, 0.437558)
        for t, deficit in zip(np.logspace(-4, -2, 7), quoted):
            hv = heat_content_inverse(eig, StableExponent(0.5), float(t), tol=1e-5)
            assert hv.error <= 1e-5
            assert 1.0 - hv.value - hv.error - 5e-7 <= deficit <= 1.0 - hv.value + 5e-7

    def test_values_within_mass_bound(self, eig):
        for t in (0.01, 1.0):
            hv = heat_content_inverse(eig, StableExponent(0.3), t, tol=1e-9)
            assert 0.0 <= hv.value <= math.pi + hv.error


class TestOneEvaluator:
    """``heat_content`` takes its weights and method label from the time change."""

    @pytest.mark.parametrize("spec", ALL_EXPONENTS, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("t", [1e-2, 1.0, 1e2])
    def test_kept_names_are_the_evaluator(self, eig, spec, t):
        for kept, change in (
            (heat_content_subordinate, SubordinatorTime(spec)),
            (heat_content_inverse, InverseTime(spec)),
        ):
            # bit for bit, value and error alike
            assert kept(eig, spec, t, tol=1e-8) == heat_content(eig, t, change, tol=1e-8)
        assert heat_content(eig, t, SubordinatorTime(spec), tol=1e-8).method == "series"
        assert heat_content(eig, t, InverseTime(spec), tol=1e-8).method == "transform"

    @pytest.mark.parametrize("t", [1e-2, 1.0, 1e2])
    def test_plain_motion_is_the_drift_series(self, eig, t):
        hv = heat_content(eig, t, tol=1e-10)
        sv = weighted_series(eig, lambda lams: np.exp(-t * lams), tol=1e-10)
        assert (hv.value, hv.error, hv.method) == (sv.value, sv.tail_bound, "series")

    def test_unsupported_time_change_rejected(self, eig):
        # the series and Monte Carlo routes share one check
        with pytest.raises(ValidationError, match="unsupported time change"):
            heat_content(eig, 1.0, "bogus")
        with pytest.raises(ValidationError, match="unsupported time change"):
            monte_carlo_heat_content_grid(2.0, DOMAIN_PI, "bogus", [1.0], n_paths=10, n_steps=4)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_rejected(self, eig, t):
        spec = StableExponent(0.5)
        for call in (
            lambda: heat_content(eig, t),
            lambda: heat_content_subordinate(eig, spec, t),
            lambda: heat_content_inverse(eig, spec, t),
        ):
            with pytest.raises(ValidationError, match="t must be finite and > 0"):
                call()


class TestMonteCarlo:
    def test_t_zero_returns_mass_exactly(self):
        (hv,) = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, None, [0.0], n_paths=5000, dt=None, n_steps=16, seed=1
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

    @pytest.mark.parametrize("mode", [dict(dt=1e-2), dict(n_steps=16)], ids=["fixed-dt", "adaptive"])
    @pytest.mark.parametrize(
        "tc",
        [
            None,
            InverseTime(StableExponent(0.5)),
            InverseTime(TemperedStableExponent(0.5, 2.0)),
            InverseTime(SumOfStablesExponent(0.3, 0.9)),
            SubordinatorTime(TemperedStableExponent(0.5, 2.0)),
        ],
        ids=["plain", "inverse-stable", "inverse-tempered", "inverse-sum", "subordinate-tempered"],
    )
    def test_empty_grid_returns_no_values(self, tc, mode):
        # every clock and mode answers an empty t grid with no values
        assert monte_carlo_heat_content_grid(1.5, DOMAIN_PI, tc, [], n_paths=100, seed=1, **mode) == []

    @pytest.mark.parametrize(
        "tc, t, mode",
        [
            (None, 50.0, dict(dt=0.01)),
            (None, 1e4, dict(n_steps=8)),
            (InverseTime(TemperedStableExponent(0.5, 1.0)), 1e6, dict(n_steps=8)),
        ],
        ids=["fixed-dt", "adaptive-range", "adaptive-indicator"],
    )
    def test_all_lost_row_is_exact(self, tc, t, mode):
        # deficits are summed as fractions of |Omega|, so a row where every
        # path is lost reads 0 +- 0 exactly, and t = 0 still |Omega| +- 0
        (hv,) = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, tc, [t], n_paths=2000, seed=3, **mode)
        assert (hv.value, hv.error) == (0.0, 0.0)
        zero, lost = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, tc, [0.0, t], n_paths=2000, seed=3, **mode
        )
        assert (zero.value, zero.error, lost.value, lost.error) == (math.pi, 0.0, 0.0, 0.0)

    def test_matches_series_alpha2(self, eig):
        t = 0.2
        (hv,) = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, None, [t], n_paths=200_000, dt=t / 256, seed=2
        )
        (hv_fine,) = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, None, [t], n_paths=200_000, dt=t / 1024, seed=3
        )
        ref = heat_content(eig, t, tol=1e-12).value
        band = 2.5 * abs(hv.value - hv_fine.value)
        assert abs(hv.value - ref) <= 1.5 * hv.error + band

    def test_inverse_stable_matches_transform(self, eig):
        # alpha=2 with the inverse 0.5-stable change: MC vs transform series
        t = 1.0
        spec = StableExponent(0.5)
        (hv,) = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, InverseTime(spec), [t], n_paths=200_000, dt=1e-3, seed=4
        )
        ref = heat_content_inverse(eig, spec, t, tol=1e-10).value
        # dt bias band calibrated by a quarter-step rerun
        (hv_fine,) = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, InverseTime(spec), [t], n_paths=100_000, dt=2.5e-4, seed=5
        )
        band = 2.5 * abs(hv.value - hv_fine.value)
        assert abs(hv.value - ref) <= 1.5 * hv.error + band

    @pytest.mark.parametrize(
        "spec", [TemperedStableExponent(0.5, 2.0), SumOfStablesExponent(0.3, 0.9)]
    )
    def test_inverse_grid_fallback_adaptive_matches_transform(self, eig, spec):
        # alpha=2, adaptive dt: E_t < u* is asked exactly, as D_{u*} > t, so
        # the walk's step bias is the only bias left
        t = 0.1
        tc = InverseTime(spec)
        (hv,) = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, tc, [t], n_paths=20_000, dt=None, n_steps=64, seed=10
        )
        ref = heat_content_inverse(eig, spec, t, tol=1e-8).value
        # step bias band calibrated by a rerun at a sixteenth of the step
        (hv_fine,) = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, tc, [t], n_paths=10_000, dt=None, n_steps=1024, seed=11
        )
        band = 2.5 * abs(hv.value - hv_fine.value)
        assert abs(hv.value - ref) <= 1.5 * hv.error + band

    @pytest.mark.parametrize(
        "tc",
        [SubordinatorTime(DriftExponent()), InverseTime(DriftExponent())],
        ids=["subordinate", "inverse"],
    )
    @pytest.mark.parametrize(
        "mode", [dict(dt=0.5 / 512), dict(dt=None, n_steps=64)], ids=["fixed-dt", "adaptive"]
    )
    def test_subordinator_direct_sampling(self, tc, mode):
        # alpha=2 with D_t or E_t at t=0.5 under the drift, the identity
        # time change, equals plain
        t = 0.5
        (hv,) = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, tc, [t], n_paths=100_000, seed=6, **mode
        )
        (hv_plain,) = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, None, [t], n_paths=100_000, seed=6, **mode
        )
        assert hv.value == hv_plain.value  # identical draws, identical budget

    @pytest.mark.parametrize("seed", [3, 1])
    def test_tiny_index_raises_no_warning(self, seed):
        # at beta = 0.01 S = D_1 and 1 / S leave the float range on some
        # paths; a RuntimeWarning inside the package is a test error
        vals = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, InverseTime(StableExponent(0.01)), [0.01, 1.0],
            n_paths=100_000, dt=None, n_steps=1, seed=seed,
        )
        assert all(0.0 < v.value < math.pi for v in vals)

    def test_worker_count_invariance(self):
        kw = dict(ts=[0.3], n_paths=20_000, dt=0.3 / 64, seed=7)
        (a,) = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, workers=1, **kw)
        (b,) = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, workers=2, **kw)
        assert a.value == b.value

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5])
    def test_workers_validated(self, workers):
        # a bad count raises before any path walks, rather than running serially
        with pytest.raises(ValidationError, match="workers"):
            monte_carlo_heat_content_grid(
                1.5, DOMAIN_PI, None, [0.3], n_paths=10, dt=0.1, workers=workers
            )

    def test_workers_capped_at_replica_count(self, monkeypatch):
        # a fork pool starts every worker at once, so the pool is never
        # larger than the replica count; the fake maps serially and starts
        # no process
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(HEAT_CONTENT, "ProcessPoolExecutor", SerialPool)
        kw = dict(ts=[0.3], n_paths=3 * HEAT_CONTENT.REPLICA_PATHS, dt=0.3 / 16, seed=7)
        (a,) = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, workers=1000, **kw)
        (b,) = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, workers=1, **kw)
        assert started == [3]
        assert (a.value, a.error) == (b.value, b.error)

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

    @pytest.mark.parametrize(
        "tc",
        [
            None,
            InverseTime(StableExponent(0.5)),
            SubordinatorTime(StableExponent(0.5)),
            InverseTime(TemperedStableExponent(0.5, 1.0)),
        ],
        ids=["none", "inverse-stable", "subordinate-stable", "inverse-tempered"],
    )
    def test_adaptive_grid_monotone_common_paths(self, tc):
        # one unit walk per path serves every t: each path's scale grows
        # with its budget, so survival can only be lost along the grid
        ts = [1e-4, 1e-3, 0.01, 0.05, 0.2]
        vals = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, tc, ts, n_paths=10_000, dt=None, n_steps=32, seed=12
        )
        seq = [v.value for v in vals]
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        assert 0.0 < seq[-1] < seq[0] <= math.pi

    @pytest.mark.parametrize("spec", ALL_EXPONENTS, ids=lambda spec: type(spec).__name__)
    def test_adaptive_origin_is_exact(self, spec):
        # E_0 = 0 < u* for every path, so Q(0) = |Omega| with no error; the
        # tempered and sum exponents used to sample E_t by a grid first
        # passage, which gave Q(0) = 3.1136 +- 0.0058 here
        vals = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, InverseTime(spec), [0.0, 0.01], n_paths=10_000,
            dt=None, n_steps=32, seed=12,
        )
        assert (vals[0].value, vals[0].error) == (math.pi, 0.0)
        assert vals[1].value < math.pi

    def test_adaptive_inverse_draws_bounded_pieces(self, monkeypatch):
        # one step at alpha = 2 puts u* = (Y / R)^2 up to 1.5e10 over these
        # 100k paths; D_{u*} is drawn in pieces no longer than the tempered
        # exponent's cheap piece, and only until it passes max(ts), so the
        # whole grid costs a few pieces per path
        spec = TemperedStableExponent(0.5, 2.0)
        deltas, sizes = [], []

        def recorded(spec, delta, size, rng):
            deltas.append(np.max(delta))
            sizes.append(size)
            return sample_increments(spec, delta, size, rng)

        monkeypatch.setattr(HEAT_CONTENT, "sample_increments", recorded)
        vals = monte_carlo_heat_content_grid(
            2.0, DOMAIN_PI, InverseTime(spec), [0.01, 0.1, 1.0], n_paths=100_000,
            dt=None, n_steps=1, seed=15,
        )
        assert spec.piece_length == 0.7 / 2.0 ** 0.5
        assert deltas and max(deltas) <= spec.piece_length
        assert sum(sizes) <= 10 * 100_000
        seq = [v.value for v in vals]
        assert math.pi > seq[0] >= seq[1] >= seq[2] > 0.0

    def test_inverse_budgets_below_match_step_budgets(self):
        # E_t < u exactly when D_u > t, which is a step budget of 0 at dt = u;
        # u = 2 takes five tempered pieces.  Two-sample binomial band per t
        spec, u, n = TemperedStableExponent(0.5, 2.0), 2.0, 20_000
        ts = np.array([0.3, 0.6, 1.0, 1.5])
        below = InverseTime(spec).budgets_below(ts, np.full(n, u), derive_rng(16))
        zero_budget = spec.inverse_steps(ts, u, n, derive_rng(17)) == 0
        p, q = below.mean(axis=1), zero_budget.mean(axis=1)
        pooled = (p + q) / 2.0
        assert np.all((0.05 < pooled) & (pooled < 0.95))
        assert np.all(np.abs(p - q) <= 3.5 * np.sqrt(pooled * (1.0 - pooled) * 2.0 / n))

    def test_inverse_budgets_below_without_draws(self, monkeypatch):
        # u* = inf passes every t and u* = 0 passes none, neither with a draw
        monkeypatch.setattr(HEAT_CONTENT, "sample_increments", None)
        below = InverseTime(TemperedStableExponent(0.5, 2.0)).budgets_below(
            np.array([0.0, 1e6]), np.array([0.0, math.inf]), derive_rng(18)
        )
        assert below.tolist() == [[False, True], [False, True]]

    def test_inverse_budgets_below_past_float_range(self):
        # D_u = u^50 S at beta = 0.02 passes the float range for u = 1e20;
        # it reads as inf, which passes every t, and raises nothing
        below = InverseTime(StableExponent(0.02)).budgets_below(
            np.array([0.0, 1e300]), np.array([1e20]), derive_rng(19)
        )
        assert below.tolist() == [[True], [True]]

    def test_adaptive_grid_worker_count_invariance(self):
        tc = InverseTime(StableExponent(0.5))
        kw = dict(n_paths=20_000, dt=None, n_steps=16, seed=14)
        a = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, tc, [1e-3, 0.01], workers=1, **kw)
        b = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, tc, [1e-3, 0.01], workers=2, **kw)
        assert a == b

    def test_grid_first_passage_time_change(self):
        # tempered inverse change: exact step budgets grown on the grid dt
        tc = InverseTime(TemperedStableExponent(0.5, 1.0))
        vals = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, tc, [0.1, 0.4], n_paths=500, dt=0.01, seed=9
        )
        assert vals[0].value >= vals[1].value
        assert all(0.0 <= v.value <= math.pi for v in vals)

    def test_validation(self):
        with pytest.raises(ValidationError):
            monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, [1.0], n_paths=0, dt=0.1)
        with pytest.raises(ValidationError):
            monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, [1.0], n_paths=10, dt=-0.1)
        with pytest.raises(ValidationError):
            monte_carlo_heat_content_grid(
                1.5, DOMAIN_PI, None, [0.2, 0.1], n_paths=10, dt=0.01, seed=0
            )
        with pytest.raises(ValidationError):
            monte_carlo_heat_content_grid(1.5, DOMAIN_PI, "bogus", [0.1], n_paths=10, dt=0.01)

    def test_dt_and_n_steps_together_rejected(self):
        # n_steps has no meaning beside a fixed dt, so both are an error
        with pytest.raises(ValidationError, match="not both"):
            monte_carlo_heat_content_grid(
                1.5, DOMAIN_PI, None, [0.1], n_paths=10, dt=0.01, n_steps=8
            )

    @pytest.mark.parametrize(
        "count",
        [dict(n_paths=2.5), dict(n_paths=10.0), dict(n_paths=True), dict(n_steps=2.5),
         dict(n_steps=True), dict(n_steps=np.float64(8.0)), dict(n_steps=None), dict(n_steps=0)],
        ids=["paths-2.5", "paths-10.0", "paths-True", "steps-2.5", "steps-True",
             "steps-float64", "steps-None", "steps-0"],
    )
    def test_non_integral_counts_rejected(self, count):
        # 2.5 used to raise TypeError deep in the replicas, and n_steps=True
        # ran as one step
        kw = dict(n_paths=10, dt=None, n_steps=8) | count
        with pytest.raises(ValidationError, match="n_paths|n_steps"):
            monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, [0.1], **kw)

    def test_numpy_integer_counts_accepted(self):
        kw = dict(ts=[0.1], dt=None, seed=2)
        (a,) = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, None, n_paths=np.int64(100), n_steps=np.int32(8), **kw
        )
        (b,) = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, n_paths=100, n_steps=8, **kw)
        assert a.value == b.value

    @pytest.mark.parametrize(
        "t, dt",
        [(math.nan, 0.01), (math.inf, 0.01), (0.1, math.inf), (0.1, math.nan)],
        ids=["t-nan", "t-inf", "dt-inf", "dt-nan"],
    )
    @pytest.mark.parametrize("as_grid", [np.array, list], ids=["single", "grid"])
    def test_non_finite_t_or_dt_rejected(self, as_grid, t, dt):
        # dt = inf used to return pi +- 0, the others to fail deep in the walk;
        # the one-point grid as an array (as experiments pass it) and a list
        with pytest.raises(ValidationError, match="finite"):
            monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, as_grid([t]), n_paths=10, dt=dt)

    @pytest.mark.parametrize("t", [math.nan, math.inf], ids=["t-nan", "t-inf"])
    def test_non_finite_t_rejected_adaptive(self, t):
        # both used to return 0 +- 0
        with pytest.raises(ValidationError, match="finite"):
            monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, [t], n_paths=10, dt=None, n_steps=8)

    @pytest.mark.parametrize(
        "delta", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"]
    )
    def test_bad_increment_step_rejected(self, delta):
        # a nan or inf step used to give 0 +- 0 for the sum exponent (and a
        # raw ValueError or OverflowError for the tempered one)
        spec = SumOfStablesExponent(0.3, 0.9)
        with pytest.raises(ValidationError, match="finite"):
            sample_increments(spec, delta, 10, derive_rng(0))
        # one step per path: a single bad entry fails the whole draw
        deltas = np.full(10, 0.5)
        deltas[7] = delta
        for spec in ALL_EXPONENTS:
            with pytest.raises(ValidationError, match="finite"):
                sample_increments(spec, deltas, 10, derive_rng(0))

    @pytest.mark.parametrize("seed", [2.9, 2.0, -1, True, "2", None])
    def test_bad_seed_rejected(self, seed):
        # a float seed used to be truncated silently (2.9 ran as 2)
        with pytest.raises(ValidationError):
            monte_carlo_heat_content_grid(
                1.5, DOMAIN_PI, None, [0.1], n_paths=10, dt=0.01, seed=seed
            )

    def test_numpy_integer_seed_accepted(self):
        kw = dict(ts=[0.1], n_paths=100, dt=0.01)
        (a,) = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, seed=np.int64(2), **kw)
        (b,) = monte_carlo_heat_content_grid(1.5, DOMAIN_PI, None, seed=2, **kw)
        assert a.value == b.value


class FixedHorizons:
    """A time change whose budgets h(t) are given, one row per t."""

    draws_horizons = True

    def __init__(self, h):
        self.h = np.asarray(h, dtype=float)

    def horizons(self, ts, size, rng):
        return self.h


class StableWithoutInverseTimes(StableExponent):
    """The stable clock without its exact E_t sampler: adaptive Monte Carlo
    takes the indicator route on it, as on the tempered and sum clocks."""

    inverse_times = None


def _comparison_estimate(alpha, spec, ts, n_paths, n_steps, seed):
    """Q(t) and its binomial 95% CI on (0, 1) from drawn start points: path i
    survives t exactly when E_t < u*_i = n_steps c*_i^alpha, asked as D_{u*} > t,
    with c*_i the scale below which its unit walk stays inside from x0_i."""
    rng = derive_rng(seed)
    x0 = rng.uniform(0.0, 1.0, n_paths)
    (top,), (bottom,) = _unit_extremes(alpha, np.full((1, n_paths), n_steps), math.inf, rng)
    # an extreme of the wrong sign never binds
    c_star = np.minimum(
        np.divide(1.0 - x0, top, out=np.full(n_paths, np.inf), where=top > 0.0),
        np.divide(x0, -bottom, out=np.full(n_paths, np.inf), where=bottom < 0.0),
    )
    u_star = n_steps * c_star ** alpha
    p = InverseTime(spec).budgets_below(np.asarray(ts), u_star, rng).mean(axis=1)
    return p, 1.96 * np.sqrt(p * (1.0 - p) / n_paths)


class TestRangeRoute:
    """Monte Carlo with the start point integrated out: each path contributes
    the fraction min(1, c R / L) of L, R its unit walk's range at scale c."""

    UNIT = IntervalDomain(0.0, 1.0)

    @pytest.mark.parametrize(
        "tc, method",
        [
            (None, "monte_carlo_range"),
            (InverseTime(StableExponent(0.5)), "monte_carlo_range"),
            (InverseTime(DriftExponent()), "monte_carlo_range"),
            (SubordinatorTime(StableExponent(0.5)), "monte_carlo_range"),
            (SubordinatorTime(TemperedStableExponent(0.5, 1.0)), "monte_carlo_range"),
            (InverseTime(TemperedStableExponent(0.5, 1.0)), "monte_carlo"),
            (InverseTime(SumOfStablesExponent(0.3, 0.9)), "monte_carlo"),
        ],
        ids=["none", "inverse-stable", "inverse-drift", "subordinate-stable",
             "subordinate-tempered", "inverse-tempered", "inverse-sum"],
    )
    def test_route_label_and_origin(self, tc, method):
        # the clock picks the route; t = 0 is |Omega| with error 0 on each
        vals = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, tc, [0.0, 0.0, 0.01], n_paths=4000, dt=None, n_steps=16, seed=20
        )
        assert {v.method for v in vals} == {method}
        assert [(v.value, v.error) for v in vals[:2]] == [(math.pi, 0.0)] * 2
        assert 0.0 < vals[2].value < math.pi and vals[2].error > 0.0

    def test_fixed_dt_takes_the_range(self):
        vals = monte_carlo_heat_content_grid(
            1.5, DOMAIN_PI, InverseTime(StableExponent(0.5)), [0.0, 0.01],
            n_paths=2000, dt=1e-3, seed=21,
        )
        assert [v.method for v in vals] == ["monte_carlo_range"] * 2
        assert (vals[0].value, vals[0].error) == (math.pi, 0.0)

    def _deficits(self, monkeypatch, h, top, bottom, length=1.0):
        # the kernel's extremes at equal budgets: one row of paths
        top, bottom = np.asarray(top, float)[None, :], np.asarray(bottom, float)[None, :]
        monkeypatch.setattr(HEAT_CONTENT, "_unit_extremes", lambda *args: (top, bottom))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return HEAT_CONTENT._range_deficits(
                1.5, length, FixedHorizons(h), np.zeros(len(h)), top.size, None, 8, derive_rng(0)
            )

    def test_zero_budget_against_infinite_range(self, monkeypatch):
        # 0 * inf would be NaN: a zero budget moves no path, so deficit 0
        d = self._deficits(monkeypatch, [[0.0, 0.0, 0.0]], [math.inf, 1.0, 2.0],
                           [-1.0, -math.inf, -3.0])
        assert d.tolist() == [[0.0, 0.0, 0.0]]

    def test_infinite_budget_or_range_gives_length(self, monkeypatch):
        d = self._deficits(
            monkeypatch,
            [[math.inf, 1.0, 1.0, 1e300], [math.inf, math.inf, 8.0, 1e300]],
            [1.0, math.inf, 1e-3, 1e300],
            [-1.0, -1.0, 0.0, -1e300],
            length=2.5,
        )
        # (1 / 8)^(2/3) * 1e-3 = 2.5e-4 and (8 / 8)^(2/3) * 1e-3 = 1e-3 stay
        # below L; (1e300 / 8)^(2/3) * 2e300 passes the float range and caps
        # at L; the deficits are fractions of L
        assert (d[0] * 2.5).tolist() == [2.5, 2.5, pytest.approx(2.5e-4), 2.5]
        assert (d[1] * 2.5).tolist() == [2.5, 2.5, pytest.approx(1e-3), 2.5]

    def test_indicator_budget_at_zero_or_infinite_range(self, monkeypatch):
        # a walk of range 0 never leaves (u* = inf), one of range inf leaves
        # at every scale (u* = 0); neither divides with a warning
        top, bottom = np.array([[0.0, math.inf, 1.0]]), np.array([[0.0, -1.0, -1.0]])
        monkeypatch.setattr(HEAT_CONTENT, "_unit_extremes", lambda *args: (top, bottom))
        asked = []

        class Recorded:
            def budgets_below(self, ts, u_star, rng):
                asked.append(u_star)
                return np.array([[True, False, True]])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = HEAT_CONTENT._indicator_deficits(
                1.5, 2.5, Recorded(), np.zeros(1), 3, 8, derive_rng(0)
            )
        (u_star,) = asked
        assert u_star[0] == math.inf and u_star[1] == 0.0 and 0.0 < u_star[2] < math.inf
        # the indicator as a fraction of L
        assert d.tolist() == [[0.0, 1.0, 0.0]]

    @pytest.mark.parametrize(
        "tc",
        [None, SubordinatorTime(TemperedStableExponent(0.5, 1.0)), InverseTime(StableExponent(0.3))],
        ids=["none", "subordinate-tempered", "inverse-stable"],
    )
    def test_worker_count_invariance_and_monotone_deficits(self, tc):
        ts = [1e-4, 1e-3, 1e-3, 0.01, 0.1, 1.0]
        kw = dict(n_paths=20_000, dt=None, n_steps=16, seed=22)
        a = monte_carlo_heat_content_grid(1.5, self.UNIT, tc, ts, workers=1, **kw)
        b = monte_carlo_heat_content_grid(1.5, self.UNIT, tc, ts, workers=2, **kw)
        assert a == b
        deficits = [1.0 - v.value for v in a]
        assert all(x <= y for x, y in zip(deficits, deficits[1:]))
        assert 0.0 < deficits[0] and deficits[-1] <= 1.0

    @pytest.mark.parametrize("alpha", [1.5, 1.0])
    def test_agrees_with_comparison_estimate(self, alpha):
        # the same law, the same walk bias at n_steps: the two estimates of
        # one Q(t) differ by their noise alone, within 2.5 times the combined
        # 95% half-width (about 4.9 standard deviations)
        spec, ts, n_paths, n_steps = StableExponent(0.5), [1e-4, 1e-3, 1e-2, 0.1], 20_000, 32
        vals = monte_carlo_heat_content_grid(
            alpha, self.UNIT, InverseTime(spec), ts, n_paths=n_paths, dt=None,
            n_steps=n_steps, seed=23,
        )
        p, ci = _comparison_estimate(alpha, spec, ts, n_paths, n_steps, seed=24)
        for v, q, w in zip(vals, p, ci):
            assert 0.02 < q < 0.98
            assert abs(v.value - q) <= 2.5 * math.hypot(v.error, w)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.7])
    def test_indicator_route_agrees_with_range_route(self, alpha):
        # one clock, the same law of the walk's critical scale: Y / R for the
        # indicator, the integrated start point for the range route; within
        # 2.5 times the combined 95% half-width
        ts, kw = [1e-4, 1e-3, 1e-2, 0.1], dict(n_paths=40_000, dt=None, n_steps=32)
        by_range = monte_carlo_heat_content_grid(
            alpha, self.UNIT, InverseTime(StableExponent(0.5)), ts, seed=26, **kw
        )
        by_indicator = monte_carlo_heat_content_grid(
            alpha, self.UNIT, InverseTime(StableWithoutInverseTimes(0.5)), ts, seed=27, **kw
        )
        assert [v.method for v in by_indicator] == ["monte_carlo"] * len(ts)
        for r, i in zip(by_range, by_indicator):
            assert 0.0 < i.value < 1.0
            assert abs(r.value - i.value) <= 2.5 * math.hypot(r.error, i.error)

    FIXED_DT_TS = [0.0, 0.01, 0.05, 0.2, 0.5, 50.0]

    def _fixed_dt_pair(self, n=2000, seed=3):
        """The fixed-dt range estimate and, from the same walks (one replica
        of the same seed), the survivor fraction of drawn start points with
        its binomial 95% CI."""
        ts, dt, alpha = self.FIXED_DT_TS, 0.01, 1.5
        vals = monte_carlo_heat_content_grid(
            alpha, DOMAIN_PI, None, ts, n_paths=n, dt=dt, seed=seed
        )
        rng = derive_rng(seed, 0)
        budgets = HEAT_CONTENT._step_budgets(InverseTime(DriftExponent()), np.array(ts), dt, n, rng)
        top, bottom = _unit_extremes(alpha, budgets, math.inf, rng)
        x0 = derive_rng(seed, 1).uniform(0.0, math.pi, n)
        scale = dt ** (1.0 / alpha)
        p = np.mean((x0 + scale * top < math.pi) & (x0 + scale * bottom > 0.0), axis=1)
        return vals, math.pi * p, 1.96 * math.pi * np.sqrt(p * (1.0 - p) / n)

    def test_fixed_dt_agrees_with_drawn_start_points(self):
        # the same law: within 2.5 times the combined 95% half-width
        vals, q, ci = self._fixed_dt_pair()
        assert [v.method for v in vals] == ["monte_carlo_range"] * len(vals)
        assert q[0] == math.pi and 0.0 < q[-2] < q[1] < math.pi and q[-1] == 0.0
        for v, want, w in zip(vals, q, ci):
            assert abs(v.value - want) <= 2.5 * math.hypot(v.error, w)

    def test_fixed_dt_narrower_than_binomial(self):
        # integrating x0 out narrows every row's CI; rows where no path or
        # every path is lost have none on either side
        vals, _, ci = self._fixed_dt_pair()
        assert all(v.error <= w for v, w in zip(vals, ci))
        assert (vals[0].error, vals[-1].error) == (0.0, 0.0)
        assert all(v.error < w for v, w in zip(vals[1:-1], ci[1:-1]))

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.7])
    def test_narrower_than_binomial(self, alpha):
        # at equal paths and seed every row's CI is no wider than the
        # survivor indicator's binomial CI
        spec, ts, n_paths, n_steps = StableExponent(0.5), [1e-4, 1e-3, 1e-2, 0.1], 20_000, 32
        vals = monte_carlo_heat_content_grid(
            alpha, self.UNIT, InverseTime(spec), ts, n_paths=n_paths, dt=None,
            n_steps=n_steps, seed=25,
        )
        _, ci = _comparison_estimate(alpha, spec, ts, n_paths, n_steps, seed=25)
        assert all(v.error <= w for v, w in zip(vals, ci))

    def test_shipped_config_ci_no_wider_than_before(self):
        # the shipped small_time_mc rows at 40,000 paths against the row CIs
        # of the survivor indicator at 100,000 paths (the config's former size)
        former = (0.00192, 0.00214, 0.00236, 0.00258, 0.00278, 0.00295, 0.00307)
        res = run_experiment(parse_config_file(CONFIGS / "small_time_mc.cfg"))
        assert res.config["n_paths"] == 40_000
        assert [r.method for r in res.rows] == ["monte_carlo_range"] * 7
        assert all(r.error_bound <= bound for r, bound in zip(res.rows, former))
