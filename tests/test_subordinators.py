"""Laplace exponents, subordinator samplers, and inverse-time functionals."""

import math

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import kstest

from shc_lab import (
    DriftExponent,
    RejectionBudgetError,
    StableExponent,
    SumOfStablesExponent,
    TemperedStableExponent,
    ValidationError,
    expected_functional,
    expected_laplace,
    inverse_time_transform,
    mittag_leffler,
    sample_increments,
    sample_positive_stable,
)
from shc_lab.heat_content import InverseTime, _step_budgets
from shc_lab.seeding import derive_rng
from shc_lab.special import _VARIATE_BLOCK

# P(D_1 > 4) for the 1/2-stable subordinator (Levy distribution
# with LT e^{-sqrt(lam)}): 1 - erfc(1/(2 sqrt 4)) = erf(0.25)
LEVY_TAIL_AT_4 = 0.2763263901682369

ALL_SPECS = [
    StableExponent(0.5),
    TemperedStableExponent(0.5, 2.0),
    SumOfStablesExponent(0.3, 0.9),
    DriftExponent(),
]


class TestLaplaceExponents:
    def test_stable_value(self):
        assert StableExponent(0.5)(4.0) == pytest.approx(2.0, abs=1e-15)

    def test_tempered_vanishes_at_zero(self):
        assert TemperedStableExponent(0.5, 2.0)(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_sum_value(self):
        assert SumOfStablesExponent(0.3, 0.9)(1.0) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_strictly_increasing(self, spec):
        rng = derive_rng(101)
        for _ in range(50):
            l1, l2 = sorted(rng.uniform(1e-6, 1e6, 2))
            if l1 < l2:
                assert spec(l1) < spec(l2)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_concavity_chord_slopes(self, spec):
        lams = np.logspace(-4, 4, 25)
        vals = np.array([spec(l) for l in lams])
        slopes = np.diff(vals) / np.diff(lams)
        assert np.all(np.diff(slopes) <= 1e-12)

    @pytest.mark.parametrize(
        "spec,at_zero,at_inf",
        [
            (StableExponent(0.3), 0.3, 0.3),
            (TemperedStableExponent(0.5, 2.0), 1.0, 0.5),
            (SumOfStablesExponent(0.3, 0.9), 0.3, 0.9),
        ],
    )
    def test_regular_variation_indices(self, spec, at_zero, at_inf):
        assert spec.index_at_zero == at_zero
        assert spec.index_at_infinity == at_inf
        for a in (2.0, 10.0):
            lam = 1e-8
            assert spec(a * lam) / spec(lam) == pytest.approx(a ** at_zero, rel=0.01)
            lam = 1e8
            assert spec(a * lam) / spec(lam) == pytest.approx(a ** at_inf, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValidationError):
            StableExponent(1.0)
        for kappa in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                TemperedStableExponent(0.5, kappa)
        with pytest.raises(ValidationError):
            SumOfStablesExponent(0.0, 0.9)  # a = 0 breaks phi(0+) = 0
        with pytest.raises(ValidationError):
            SumOfStablesExponent(0.5, 0.4)


class TestPositiveStableSampler:
    def test_laplace_transform_at_one(self):
        rng = derive_rng(7)
        x = sample_positive_stable(rng, 0.5, 1_000_000)
        vals = np.exp(-x)
        se = vals.std(ddof=1) / math.sqrt(x.size)
        assert abs(vals.mean() - math.exp(-1.0)) <= 3 * se

    def test_laplace_transform_beta09_lam2(self):
        rng = derive_rng(8)
        x = sample_positive_stable(rng, 0.9, 1_000_000)
        vals = np.exp(-2.0 * x)
        se = vals.std(ddof=1) / math.sqrt(x.size)
        assert abs(vals.mean() - math.exp(-(2.0 ** 0.9))) <= 3 * se

    def test_levy_tail_oracle(self):
        rng = derive_rng(9)
        x = sample_positive_stable(rng, 0.5, 1_000_000)
        p = float(np.mean(x > 4.0))
        se = math.sqrt(LEVY_TAIL_AT_4 * (1 - LEVY_TAIL_AT_4) / x.size)
        assert abs(p - LEVY_TAIL_AT_4) <= 3 * se

    def test_scalar_deterministic(self):
        a = float(sample_positive_stable(derive_rng(42), 0.5, None))
        b = float(sample_positive_stable(derive_rng(42), 0.5, None))
        assert a == b and a > 0.0

    def test_tiny_index_in_logs(self):
        # sin(U)^(1/beta) underflows at beta = 0.01; with the power 1/beta
        # taken last, of Kanter's ratio, every variate is positive, and the
        # few past the float range are inf
        x = sample_positive_stable(derive_rng(18), 0.01, 100_000)
        assert np.all(x > 0.0)
        assert 0.0 < np.mean(np.isinf(x)) < 2e-3


class TestIncrementSamplers:
    def test_stable_defining_property(self):
        rng = derive_rng(11)
        spec = StableExponent(0.5)
        x = sample_increments(spec, 1.0, 400_000, rng)
        vals = np.exp(-x)
        se = vals.std(ddof=1) / math.sqrt(x.size)
        assert abs(vals.mean() - math.exp(-spec(1.0))) <= 3 * se

    @pytest.mark.parametrize("lam", [1.0, 3.0])
    def test_tempered_defining_property(self, lam):
        rng = derive_rng(12)
        spec = TemperedStableExponent(0.5, 1.0)
        x = sample_increments(spec, 1.0, 400_000, rng)
        vals = np.exp(-lam * x)
        se = vals.std(ddof=1) / math.sqrt(x.size)
        assert abs(vals.mean() - math.exp(-spec(lam))) <= 3 * se

    def test_tempered_chopped_mean(self):
        # delta kappa^beta = 40 forces the chunked tilting path;
        # E[D_delta] = delta beta kappa^(beta-1), Var = delta beta(1-beta) kappa^(beta-2)
        rng = derive_rng(13)
        spec = TemperedStableExponent(0.5, 1.0)
        delta = 40.0
        x = sample_increments(spec, delta, 20_000, rng)
        mean_ref = delta * 0.5
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - mean_ref) <= 3 * se

    def test_sum_defining_property(self):
        rng = derive_rng(14)
        spec = SumOfStablesExponent(0.3, 0.9)
        x = sample_increments(spec, 1.0, 400_000, rng)
        vals = np.exp(-x)
        se = vals.std(ddof=1) / math.sqrt(x.size)
        assert abs(vals.mean() - math.exp(-spec(1.0))) <= 3 * se

    def test_sum_with_unit_drift(self):
        rng = derive_rng(15)
        spec = SumOfStablesExponent(0.5, 1.0)
        x = sample_increments(spec, 2.0, 50_000, rng)
        assert np.all(x >= 2.0)  # drift floor

    @pytest.mark.parametrize("delta", [1e-3, 0.37, 7.3])
    @pytest.mark.parametrize("spec", ALL_SPECS + [SumOfStablesExponent(0.5, 1.0)])
    def test_equal_array_deltas_match_scalar(self, spec, delta):
        # one delta per path, all equal, draws bit for bit what the one
        # float draws (7.3 chops the tempered increment into 15 pieces)
        scalar = sample_increments(spec, delta, 2000, derive_rng(16))
        array = sample_increments(spec, np.full(2000, delta), 2000, derive_rng(16))
        assert np.array_equal(scalar, array)

    @pytest.mark.parametrize(
        "spec",
        [StableExponent(0.01), SumOfStablesExponent(0.01, 0.5), TemperedStableExponent(0.01, 1.0)],
    )
    def test_tiny_index_tiny_delta(self, spec):
        # delta^(1/beta) underflows to 0 where a variate overflows to inf; delta
        # enters Kanter's ratio before the power, so no increment is 0 * inf = NaN
        x = sample_increments(spec, 1e-4, 100_000, derive_rng(19))
        assert np.all(x >= 0.0)

    def test_tempered_piece_cap_raises_before_drawing(self):
        # 202,031 pieces at delta = 1e5 (about 8 s to draw); a path with too
        # many pieces fails the whole call at once, with no draw
        spec = TemperedStableExponent(0.5, 2.0)
        rng = derive_rng(20)
        state = rng.bit_generator.state
        with pytest.raises(RejectionBudgetError, match="202031 pieces"):
            sample_increments(spec, 1e5, 4, rng)
        with pytest.raises(RejectionBudgetError):
            sample_increments(spec, np.array([0.1, 1e5]), 2, rng)
        assert rng.bit_generator.state == state

    def test_tempered_rejection_cap_is_per_path(self, monkeypatch):
        # the cap bounds the rejections of one path on one piece, not the sum
        # over paths: 10,000 paths at acceptance about 0.65 reject about 5,000
        # candidates in all, but no path is rejected 100 times
        import shc_lab.subordinators as sub

        spec = TemperedStableExponent(0.5, 2.0)
        expected = sample_increments(spec, 0.3, 10_000, derive_rng(22))
        monkeypatch.setattr(sub, "_REJECTION_CAP", 100)
        assert np.array_equal(sample_increments(spec, 0.3, 10_000, derive_rng(22)), expected)

    def test_tempered_rejection_cap_raises(self, monkeypatch):
        # with no rejection allowed, the first rejected path fails the call
        import shc_lab.subordinators as sub

        monkeypatch.setattr(sub, "_REJECTION_CAP", 0)
        with pytest.raises(RejectionBudgetError, match="rejection cap exceeded"):
            sample_increments(TemperedStableExponent(0.5, 2.0), 0.3, 2_000, derive_rng(23))

    def test_array_deltas_chop_per_path(self):
        # the tempered pieces follow each path's own delta: E[D_delta] =
        # delta beta kappa^(beta-1) per path, with 1 to 58 pieces here
        spec = TemperedStableExponent(0.5, 1.0)
        delta = np.repeat([0.1, 1.0, 40.0], 20_000)
        x = sample_increments(spec, delta, delta.size, derive_rng(17)).reshape(3, -1)
        se = x.std(axis=1, ddof=1) / math.sqrt(x.shape[1])
        assert np.all(np.abs(x.mean(axis=1) - 0.5 * np.array([0.1, 1.0, 40.0])) <= 3 * se)

    @pytest.mark.parametrize(
        "delta", [1e-3, 0.3, 2.0, np.linspace(0.01, 3.0, 3000)], ids=["1e-3", "0.3", "2", "per-path"]
    )
    def test_tempered_matches_indexed_rounds(self, delta):
        # a chunk every path takes draws its first round for all paths
        # unindexed; a rejection loop that indexes every round consumes the
        # generator the same way and gives the same bits
        import shc_lab.subordinators as sub

        spec = TemperedStableExponent(0.5, 2.0)
        n = 3000
        rng = derive_rng(21)
        n_chunks = np.maximum(1, np.ceil(np.multiply(delta, 2.0 ** 0.5) / sub._TILT_BUDGET))
        piece = np.broadcast_to(delta / n_chunks, n)
        n_chunks = np.broadcast_to(n_chunks, n)
        expected = np.zeros(n)
        for k in range(int(n_chunks.max())):
            pending = np.flatnonzero(n_chunks > k)
            while pending.size:
                cand = sub._scaled_stable(rng, 0.5, piece[pending], pending.size)
                accept = rng.uniform(size=pending.size) <= np.exp(-2.0 * cand)
                expected[pending[accept]] += cand[accept]
                pending = pending[~accept]
        drawn = derive_rng(21)
        assert np.array_equal(sample_increments(spec, delta, n, drawn), expected)
        assert drawn.bit_generator.state == rng.bit_generator.state


def first_passage(spec, ts, size, seed, du):
    """E_t by first passage on the grid k * du: (k + 1) * du, with
    k = #{k >= 1 : D_{k du} <= t} the grid count of ``inverse_steps``
    (fixed-dt Monte Carlo floors the exact E_t of the stable and drift
    exponents instead)."""
    ts = np.asarray(ts, dtype=float)
    return (spec.inverse_steps(ts, du, size, derive_rng(seed)) + 1) * du


class TestPathsAndFirstPassage:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_path_invariants(self, spec):
        # the grid path starts at D_0 = 0 and grows past the horizon 1: first
        # passage is du at t = 0, a finite whole number of grid steps,
        # and nondecreasing in t
        e = first_passage(spec, [0.0, 0.5, 1.0], 50, 21, 0.01)
        steps = np.rint(e / 0.01)
        assert np.all(e[0] == 0.01)
        assert np.all(np.isfinite(e)) and np.allclose(e, steps * 0.01, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(e, axis=0) >= 0.0)

    def test_degenerate_drift_path(self):
        # D_u = u on the grid k * 0.1: E_0.7 is 0.7 up to one grid step
        e = first_passage(DriftExponent(), [0.7, 2.0], 1, 0, 0.1)[0, 0]
        assert abs(e - 0.7) <= 0.1 + 1e-12

    def test_inverse_starts_at_zero(self):
        e = first_passage(StableExponent(0.5), [1e-12, 1.0], 1, 5, 0.01)[0, 0]
        assert e <= 0.01 + 1e-15

    def test_inverse_monotone_coupling(self):
        ts = np.linspace(0.01, 1.9, 40)
        values = first_passage(StableExponent(0.5), ts, 1, 6, 0.001)[:, 0]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_first_passage_vs_exact_cdf(self):
        # E_1 for the inverse 1/2-stable has CDF erf(x/2)
        samples = first_passage(StableExponent(0.5), [1.0], 10_000, 30_000, 1e-3)[0]
        stat = kstest(samples, lambda x: erf(x / 2.0)).statistic
        assert stat < 0.02

    def test_exact_sampler_vs_cdf(self):
        rng = derive_rng(31)
        e = StableExponent(0.5).inverse_times([1.0], 10_000, rng)[0]
        stat = kstest(e, lambda x: erf(x / 2.0)).statistic
        assert stat < 0.02


class TestInverseSteps:
    """Fixed-dt step budgets #{k >= 1 : D_{k dt} <= t} = floor(E_t / dt):
    ``_step_budgets`` floors the exact E_t where the exponent draws it and
    counts D on the dt grid (``inverse_steps``) otherwise."""

    def test_grid_budgets_match_exact_law(self):
        # the base grower on the 1/2-stable exponent, whose E_1 has CDF
        # erf(x/2): P(k >= j) = P(E_1 >= j dt) = 1 - erf(j dt / 2) exactly,
        # with no grid bias.  DKW: P(sup |F_n - F| > 0.02) <= 2 e^-16 = 2.3e-7
        dt, n = 1e-2, 20_000
        k = StableExponent(0.5).inverse_steps([1.0], dt, n, derive_rng(40))[0]
        j = np.arange(1, k.max() + 2)
        at_least_j = 1.0 - np.searchsorted(np.sort(k), j, side="left") / n
        assert np.max(np.abs(at_least_j - (1.0 - erf(j * dt / 2.0)))) <= 0.02

    @pytest.mark.parametrize("dt", [1e-2, 1e-1])
    @pytest.mark.parametrize(
        "spec", [TemperedStableExponent(0.5, 2.0), SumOfStablesExponent(0.3, 0.9)]
    )
    def test_grid_budgets_laplace_bracket(self, spec, dt):
        # k dt lies in (E_t - dt, E_t], so E[exp(-k dt)] lies in [ref, ref e^dt];
        # at dt = 0.1 a budget one step off leaves the bracket
        vals = np.exp(-dt * spec.inverse_steps([1.0], dt, 20_000, derive_rng(41))[0])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        ref = expected_laplace(spec, 1.0, 1.0)
        assert ref - 3 * se <= vals.mean() <= ref * math.exp(dt) + 3 * se

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_budgets_monotone_and_zero_at_origin(self, spec):
        ts = [0.0, 0.05, 0.05, 0.3, 1.0]
        k = _step_budgets(InverseTime(spec), np.array(ts), 1e-2, 500, derive_rng(42))
        assert k.dtype == np.int64 and k.shape == (5, 500)
        assert np.all(k[0] == 0)
        assert np.all(np.diff(k, axis=0) >= 0)

    def test_blocks_are_capped(self, monkeypatch):
        import shc_lab.subordinators as sub

        sizes = []

        def counted(spec, delta, size, rng):
            sizes.append(size)
            return spec.increments(delta, size, rng)

        monkeypatch.setattr(sub, "sample_increments", counted)
        spec = TemperedStableExponent(0.5, 2.0)
        spec.inverse_steps([0.0], 1e-3, 512, derive_rng(43))
        assert sizes == []  # t = 0 draws nothing
        spec.inverse_steps([0.5, 1.0], 1e-3, 512, derive_rng(43))
        assert sizes and max(sizes) <= sub._STEP_BLOCK
        # the base first passage grows on the same capped blocks
        sizes.clear()
        du = 1e-3
        (spec.inverse_steps(np.array([0.5, 1.0]), du, 512, derive_rng(43)) + 1) * du
        assert sizes and max(sizes) <= sub._STEP_BLOCK


class TestInverseTimes:
    """Exact E_t per (t, path), where an exponent has it."""

    def test_only_stable_and_drift_draw_inverse_times(self):
        assert TemperedStableExponent(0.5, 2.0).inverse_times is None
        assert SumOfStablesExponent(0.3, 0.9).inverse_times is None
        assert callable(StableExponent(0.5).inverse_times)
        assert callable(DriftExponent().inverse_times)

    def test_stable_is_the_self_similar_closed_form(self):
        # one D_1 per path: E_t = (t / D_1)^beta with the sampler's own draws,
        # and the fixed-dt budgets floor exactly those values
        ts, beta = np.array([0.0, 1e-3, 0.2, 0.2, 1.0]), 0.3
        spec = StableExponent(beta)
        e = spec.inverse_times(ts, 1000, derive_rng(44))
        s = sample_positive_stable(derive_rng(44), beta, 1000)
        assert np.array_equal(e, (ts[:, None] / s[None, :]) ** beta)
        assert np.all(e[0] == 0.0) and np.all(np.diff(e, axis=0) >= 0.0)
        k = _step_budgets(InverseTime(spec), ts, 1e-3, 1000, derive_rng(44))
        assert np.array_equal(k, np.floor(e / 1e-3 + 1e-9).astype(np.int64))

    def test_drift_is_t_without_draws(self):
        rng = derive_rng(45)
        state = rng.bit_generator.state
        e = DriftExponent().inverse_times([0.0, 0.5, 2.0], 3, rng)
        assert e.tolist() == [[0.0] * 3, [0.5] * 3, [2.0] * 3]
        assert rng.bit_generator.state == state


class TestInverseExceedances:
    """#{E_1 > level} over the E_1 of ``inverse_times([1.0], ...)``, with
    Kanter's formula run only on the draws whose W can reach a level."""

    @staticmethod
    def level_sets(e):
        # every level set is compared with the E_1 of inverse_times itself
        top, low = float(e.max()), float(e.min())
        picks = e[np.linspace(0, e.size - 1, 7).astype(int)]
        return {
            "quantiles": np.quantile(e, [0.5, 0.9, 0.99, 0.999, 0.9999]),
            "ties": np.concatenate([picks, [top, np.nextafter(top, 0.0)]]),
            "none": np.array([top, 2.0 * top, 1e300, math.inf]),
            "all": np.array([0.0, -1.0, np.nextafter(low, 0.0)]),
            "tiny": np.array([1e-300, float(np.median(e)), top]),
            "nan": np.array([math.nan, float(np.median(e))]),
        }

    @pytest.mark.parametrize("seed", [1, 2, 20260810])
    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_counts_match_inverse_times(self, beta, seed):
        spec, n = StableExponent(beta), 200_000
        rng = derive_rng(seed)
        e = spec.inverse_times([1.0], n, rng)[0]
        for name, levels in self.level_sets(e).items():
            drawn = derive_rng(seed)
            counts = spec.inverse_exceedances(levels, n, drawn)
            assert counts.dtype == np.int64, name
            assert counts.tolist() == [np.count_nonzero(e > v) for v in levels], name
            assert drawn.bit_generator.state == rng.bit_generator.state, name

    @pytest.mark.parametrize("beta", [0.001, 0.003])
    def test_counts_match_where_one_over_s_overflows(self, beta):
        # at these beta S leaves the float range on many draws, and 1 / S
        # with it; E_1 = W^(1-beta) / K(U) stays finite and positive, with
        # no RuntimeWarning, and no draw reaches 1e3
        spec, n = StableExponent(beta), 200_000
        e = spec.inverse_times([1.0], n, derive_rng(3))[0]
        rng = derive_rng(3)
        u, w = rng.uniform(0.0, math.pi, n), rng.exponential(1.0, n)
        k = np.sin(beta * u) ** beta * np.sin((1.0 - beta) * u) ** (1.0 - beta) / np.sin(u)
        assert np.all(np.isfinite(e) & (e > 0.0))
        assert np.max(np.abs(e * k / w ** (1.0 - beta) - 1.0)) <= 1e-12
        for levels in ([1e3, 1e300], [1e3, float(np.median(e))]):
            counts = spec.inverse_exceedances(levels, n, derive_rng(3))
            assert counts.tolist() == [np.count_nonzero(e > v) for v in levels]

    def test_only_candidates_are_evaluated(self, monkeypatch):
        # at the shipped tail_probe levels about 0.3% of the draws reach
        # Kanter's formula; a tiny least level leaves every draw a candidate
        import shc_lab.subordinators as sub

        seen, kanter = [], sub._kanter

        def counted(u, w, beta, delta):
            seen.append(u.size)
            return kanter(u, w, beta, delta)

        spec, n = StableExponent(0.5), 200_000
        ts = np.logspace(math.log10(0.023), math.log10(0.0434), 7)
        monkeypatch.setattr(sub, "_kanter", counted)
        spec.inverse_exceedances(ts ** -0.5, n, derive_rng(4))
        assert 0 < sum(seen) < 0.01 * n
        seen.clear()
        spec.inverse_exceedances([1e-300], n, derive_rng(4))
        assert sum(seen) == n

    def test_candidates_evaluated_in_full_batches(self, monkeypatch):
        # the candidates of many blocks share one call, and no call takes
        # more than one block's worth, however many draws are candidates
        import shc_lab.subordinators as sub

        sizes, inverse = [], sub._inverse_stable

        def counted(u, w, beta, ts):
            sizes.append(u.size)
            return inverse(u, w, beta, ts)

        spec, n = StableExponent(0.5), 200_000
        ts = np.logspace(math.log10(0.023), math.log10(0.0434), 7)
        e = spec.inverse_times([1.0], n, derive_rng(4))[0]
        monkeypatch.setattr(sub, "_inverse_stable", counted)
        for levels in (ts ** -0.5, [1e-300], [math.nan]):
            sizes.clear()
            counts = spec.inverse_exceedances(levels, n, derive_rng(4))
            assert counts.tolist() == [np.count_nonzero(e > v) for v in levels]
            assert len(sizes) <= math.ceil(sum(sizes) / _VARIATE_BLOCK)
            assert max(sizes) <= _VARIATE_BLOCK
        assert sum(sizes) == n and len(sizes) == math.ceil(n / _VARIATE_BLOCK)

    def test_kanter_bound_holds_as_computed(self):
        # E_1 = W^(1-beta) / K(U) with K increasing from K(0+) = k0: the
        # evaluated E_1 keeps E_1 k0 <= W^(1-beta) to 1e-12, and small U
        # brings it to the bound, so no larger k0 would do
        import shc_lab.subordinators as sub

        for beta in np.linspace(0.01, 0.99, 50):
            rng = derive_rng(5)
            u = sub._angles(rng, 50_000)
            w = rng.standard_exponential(50_000)
            e1 = sub._inverse_stable(u, w, beta, [1.0])[0]
            k0 = beta ** beta * (1.0 - beta) ** (1.0 - beta)
            ratio = e1 * k0 / w ** (1.0 - beta)
            assert ratio.max() <= 1.0 + 1e-12, beta
            assert ratio.max() > 1.0 - 1e-6, beta


class TestExactInverseSampler:
    def test_mean_moment_identity(self):
        # E[E_1] = 1/Gamma(1.5) = 2/sqrt(pi)
        rng = derive_rng(41)
        e = StableExponent(0.5).inverse_times([1.0], 1_000_000, rng)[0]
        se = e.std(ddof=1) / math.sqrt(e.size)
        assert abs(e.mean() - 2.0 / math.sqrt(math.pi)) <= 3 * se

    def test_time_scaling_with_common_seed(self):
        t = 3.7
        e1 = StableExponent(0.5).inverse_times([1.0], 1000, derive_rng(42))[0]
        et = StableExponent(0.5).inverse_times([t], 1000, derive_rng(42))[0]
        assert np.allclose(et, t ** 0.5 * e1, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_sampler_transform_consistency(self, a, t):
        rng = derive_rng(43)
        e = StableExponent(0.5).inverse_times([t], 200_000, rng)[0]
        vals = np.exp(-a * e)
        se = vals.std(ddof=1) / math.sqrt(e.size)
        ref = expected_laplace(StableExponent(0.5), a, t)
        assert abs(vals.mean() - ref) <= 3.5 * se


class TestInverseTimeTransform:
    def test_drift_double(self):
        tf = inverse_time_transform(DriftExponent(), a=1.0)
        assert tf(2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_stable_direct_substitution(self):
        tf = inverse_time_transform(StableExponent(0.5), a=1.0)
        assert tf(1.0) == pytest.approx(0.5, abs=1e-15)
        tf = inverse_time_transform(StableExponent(0.5), a=3.0)
        r2 = math.sqrt(2.0)
        assert tf(2.0) == pytest.approx(r2 / (2.0 * (r2 + 3.0)), abs=1e-15)


class TestExpectedLaplace:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 0.95, 0.5 + 1e-12, 0.25 + 1e-9])
    def test_stable_matches_mittag_leffler(self, beta):
        # the Talbot inversion against the independent closed form
        # E_beta(-a t^beta), one array of a per t; just past beta = 1/2 and
        # 1/4, sin(pi beta k) nearly vanishes for even k, which misleads a
        # truncated large-argument series
        a = np.logspace(-2, 4, 25)
        for t in (1e-2, 1.0, 1e2, 1e6):
            v = expected_laplace(StableExponent(beta), a, t)
            ref = [mittag_leffler(beta, -x * t ** beta) for x in a]
            assert np.max(np.abs(v - ref)) <= 1e-11

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_short_time_limit(self, spec):
        # E_0 = 0 so E[e^{-a E_t}] -> 1; the leading deviation is
        # a / (phi(1/t) Gamma(1 + beta_inf)), second order O(phi(1/t)^-2)
        t = 1e-12
        v = expected_laplace(spec, 1.0, t)
        beta_inf = spec.index_at_infinity
        first_order = 1.0 / (float(spec(1.0 / t)) * math.gamma(1.0 + beta_inf))
        assert v <= 1.0 + 1e-12
        assert v == pytest.approx(1.0 - first_order, abs=1e-8)

    def test_large_time_tauberian_ratio(self):
        # E[e^{-a E_t}] ~ phi(1/t)/(a Gamma(1-beta)) as t -> infinity
        spec = StableExponent(0.5)
        t, a = 1e6, 1.0
        v = expected_laplace(spec, a, t)
        ref = spec(1.0 / t) / (a * math.gamma(0.5))
        assert v / ref == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0])
    def test_drift_inversion_consistency(self, a):
        # the drift double has the closed form e^{-a t}; the numerical
        # inversion of its transform must match to 1e-10 on t in [0.01, 10]
        # (the 16- and 24-node values agree to 2e-11 there)
        from shc_lab import laplace_invert

        tf = inverse_time_transform(DriftExponent(), a)
        for t in np.logspace(-2, 1, 9):
            v = laplace_invert(tf, float(t), tol=1e-10)
            assert v == pytest.approx(math.exp(-a * float(t)), abs=1e-10)

    @pytest.mark.parametrize(
        "spec", [TemperedStableExponent(0.5, 2.0), SumOfStablesExponent(0.3, 0.9)]
    )
    def test_inversion_against_first_passage_mc(self, spec):
        vals = np.exp(-first_passage(spec, [1.0], 4000, 90_000, 2e-3)[0])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        ref = expected_laplace(spec, 1.0, 1.0)
        # first-passage grid overshoots E_t by up to du
        bias = 2e-3
        assert abs(vals.mean() - ref) <= 3 * se + bias

    def test_inversion_round_off_below_zero(self, monkeypatch):
        # the exact functional is >= 0: inversion noise in [-tol, 0) reads
        # as 0, anything further below zero is passed on for callers to reject
        import shc_lab.subordinators as sub

        spec, tol = TemperedStableExponent(0.5, 2.0), 1e-9
        a = np.array([1.0, 2.0, 3.0, 4.0])
        inverted = np.array([0.5, -0.5 * tol, -tol, -2.0 * tol])
        monkeypatch.setattr(sub, "laplace_invert", lambda *x, **k: inverted.copy())
        v = expected_laplace(spec, a, 1.0, tol=tol)
        assert np.array_equal(v, [0.5, 0.0, 0.0, -2.0 * tol])
        monkeypatch.setattr(sub, "laplace_invert", lambda *x, **k: np.float64(-0.5 * tol))
        assert expected_laplace(spec, 1.0, 1.0, tol=tol) == 0.0


class TestExpectedFunctional:
    def test_normalization(self):
        assert expected_functional(0.5, 1.0, lambda x: 1.0).value == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("beta,t", [(0.5, 1.0), (0.3, 0.25)])
    def test_matches_expected_laplace(self, beta, t):
        est = expected_functional(beta, t, lambda x: np.exp(-x))
        ref = expected_laplace(StableExponent(beta), 1.0, t)
        assert est.value == pytest.approx(ref, abs=max(1e-10, 3 * est.error))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_moment_formula(self, p):
        # E[E_t^p] = Gamma(p+1) t^(p beta) / Gamma(p beta + 1), exact for
        # the stable exponent
        beta, t = 0.5, 1.0
        est = expected_functional(beta, t, lambda x: x ** p)
        ref = math.gamma(p + 1.0) * t ** (p * beta) / math.gamma(p * beta + 1.0)
        assert est.value / ref == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.9])
    def test_error_covers_closed_form_moments(self, beta):
        # the certificate bounds the actual error and stays small across
        # scales, including the algebraic singularity of x^-0.5 at E_t = 0
        for p in (-0.5, 2.0 / 3.0, 1.0, 2.0):
            for t in (1e-8, 1e-4, 1.0, 1e4):
                est = expected_functional(beta, t, lambda x: x ** p)
                exact = math.gamma(p + 1.0) * t ** (p * beta) / math.gamma(p * beta + 1.0)
                assert abs(est.value - exact) <= est.error, (p, t)
                assert est.error <= 1e-10 * max(1.0, est.value), (p, t)

    def test_truncated_tail_shows_in_error(self):
        # x^-0.9 decays too slowly at E_t = 0 for the rule's reach: the value
        # is off by about 3e-6, and the edge terms carry that into the error
        est = expected_functional(0.5, 1.0, lambda x: x ** -0.9)
        exact = math.gamma(0.1) / math.gamma(0.55)
        assert 1e-7 < abs(est.value - exact) <= est.error

    def test_error_covers_kink(self):
        # min(x, c) has a kink at c, where the rule converges slowly; its
        # exact value is the sum of the smooth pieces split at c
        beta, t, c = 0.5, 1.0, 0.8
        est = expected_functional(beta, t, lambda x: np.minimum(x, c))
        below = expected_functional(beta, t, lambda x: x, upper=c)
        above = expected_functional(beta, t, lambda x: c, lower=c)
        assert abs(est.value - (below.value + above.value)) <= est.error
        assert below.error + above.error < 1e-9 < est.error

    def test_nan_g_rejected(self):
        with pytest.raises(ValidationError, match="not integrable"):
            expected_functional(0.5, 1.0, lambda x: np.where(x > 1.0, np.nan, x))

    def test_region_restriction_splits_mass(self):
        beta, t = 0.5, 1.0
        for cut in (0.1, 0.8, 5.0):
            lo = expected_functional(beta, t, lambda x: 1.0, upper=cut).value
            hi = expected_functional(beta, t, lambda x: 1.0, lower=cut).value
            assert lo + hi == pytest.approx(1.0, abs=1e-10)
            # against the exact CDF erf(x/2) at t=1
            assert lo == pytest.approx(float(erf(cut / 2.0)), abs=1e-10)

    def test_invalid_region(self):
        with pytest.raises(ValidationError):
            expected_functional(0.5, 1.0, lambda x: 1.0, lower=2.0, upper=1.0)
