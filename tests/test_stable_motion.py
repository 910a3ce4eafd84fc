"""Symmetric stable increments, interval exits, supremum estimation."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from shc_lab import (
    ValidationError,
    estimate_sup_mean,
    sample_symmetric_stable,
)
from shc_lab.seeding import derive_rng
from shc_lab.stable_motion import walk_exit_steps

# P(|X| > 10) for the standard Cauchy (scale 1)
CAUCHY_TAIL_AT_10 = 0.06345103486110704
# exact alpha=2 survival P_{pi/2}(tau > 0.2) on (0, pi) from the
# Dirichlet sine series of the generator with convention e^{-t |xi|^2}
BM_SURVIVAL_MID_T02 = 0.9739910752260765


class TestIncrements:
    def test_alpha2_variance_convention(self):
        rng = derive_rng(50)
        x = sample_symmetric_stable(rng, 2.0, 1_000_000)
        # Var = 2 at t=1; sample variance has se ~ sqrt(2/n)*Var
        se = math.sqrt(2.0 / x.size) * 2.0
        assert abs(x.var() - 2.0) <= 3 * se

    def test_cauchy_median_and_tail(self):
        rng = derive_rng(51)
        x = sample_symmetric_stable(rng, 1.0, 1_000_000)
        assert abs(np.median(x)) < 0.005
        p = float(np.mean(np.abs(x) > 10.0))
        se = math.sqrt(CAUCHY_TAIL_AT_10 * (1 - CAUCHY_TAIL_AT_10) / x.size)
        assert abs(p - CAUCHY_TAIL_AT_10) <= 3 * se

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    def test_sign_symmetry(self, alpha):
        rng = derive_rng(52)
        x = sample_symmetric_stable(rng, alpha, 400_000)
        s = np.sign(x)
        se = 1.0 / math.sqrt(x.size)
        assert abs(s.mean()) <= 3 * se

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_dt_scaling_in_distribution(self, alpha):
        dt = 0.37
        a = dt ** (1.0 / alpha) * sample_symmetric_stable(derive_rng(53), alpha, 10_000)
        rng = derive_rng(54)
        u = rng.uniform(-math.pi / 2, math.pi / 2, 10_000)
        w = rng.exponential(1.0, 10_000)
        t1 = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
        t2 = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
        b = dt ** (1.0 / alpha) * t1 * t2
        assert ks_2samp(a, b).statistic < 0.02

    def test_scalar_increment_deterministic(self):
        a = 0.1 ** (1.0 / 1.5) * sample_symmetric_stable(derive_rng(1), 1.5, None)
        b = 0.1 ** (1.0 / 1.5) * sample_symmetric_stable(derive_rng(1), 1.5, None)
        assert a == b
        with pytest.raises(ValidationError):
            sample_symmetric_stable(derive_rng(1), 2.5, None)


class TestSimulateExit:
    @pytest.mark.parametrize("alpha,min_hits", [(2.0, 185), (1.5, 185)])
    def test_boundary_start_exits_fast(self, alpha, min_hits):
        # from distance 1e-12 inside, survival of an n-step walk decays
        # like 1/sqrt(pi n) (fluctuation theory), ~2.5% at 500 steps
        dt, n_steps = 1e-3, int(math.ceil(0.5 / 1e-3))
        hits = 0
        for seed in range(200):
            step = walk_exit_steps(
                alpha, 0.0, math.pi, np.array([math.pi - 1e-12]),
                np.float64(dt ** (1.0 / alpha)), n_steps, derive_rng(seed),
            )[0]
            hits += step <= n_steps
        assert hits >= min_hits

    def test_survival_oracle_alpha2(self):
        # MC vs the exact eigen-series survival, with a step-halving
        # calibrated bias band on top of 3 standard errors
        n, t = 400_000, 0.2
        x0 = np.full(n, math.pi / 2)

        def survival(dt, seed):
            steps = int(round(t / dt))
            es = walk_exit_steps(
                2.0, 0.0, math.pi, x0, np.float64(dt ** 0.5), steps, derive_rng(seed)
            )
            return float(np.mean(es > steps))

        p_coarse = survival(t / 256, 60)
        p_fine = survival(t / 1024, 61)
        band = 2.5 * abs(p_coarse - p_fine)
        se = math.sqrt(p_coarse * (1 - p_coarse) / n)
        assert abs(p_coarse - BM_SURVIVAL_MID_T02) <= 3 * se + band

    def test_step_shrink_self_consistency(self):
        # quartering dt moves the estimate by less than the first
        # difference plus noise (the bias is O(sqrt(dt)))
        n, t = 200_000, 0.2
        x0 = np.full(n, math.pi / 2)

        def survival(dt, seed):
            steps = int(round(t / dt))
            es = walk_exit_steps(
                2.0, 0.0, math.pi, x0, np.float64(dt ** 0.5), steps, derive_rng(seed)
            )
            return float(np.mean(es > steps))

        # bias(dt) = c sqrt(dt): one extra quartering halves the change
        p_a = survival(t / 32, 62)
        p_b = survival(t / 128, 63)
        p_c = survival(t / 512, 64)
        se = math.sqrt(p_a * (1 - p_a) / n)
        assert abs(p_b - p_c) <= 0.75 * abs(p_a - p_b) + 3 * se

    def test_survival_monotone_in_t_common_paths(self):
        n = 50_000
        rng = derive_rng(65)
        x0 = rng.uniform(0.0, math.pi, n)
        dt = 0.01
        es = walk_exit_steps(1.5, 0.0, math.pi, x0, np.float64(dt ** (1 / 1.5)), 100, derive_rng(66))
        survs = [float(np.mean(es * dt > t)) for t in (0.1, 0.3, 0.6, 0.9)]
        assert all(a >= b for a, b in zip(survs, survs[1:]))

    @pytest.mark.parametrize(
        "alpha,per_path",
        [
            pytest.param(1.5, False, id="1.5"),
            pytest.param(2.0, False, id="2.0"),
            pytest.param(1.5, True, id="1.5-per-path-budgets"),
        ],
    )
    def test_domain_monotonicity_common_numbers(self, alpha, per_path):
        n = 20_000
        x0 = derive_rng(67).uniform(0.2, 0.8, n)
        dt = 1e-3
        scale = np.float64(dt ** (1.0 / alpha))
        steps = derive_rng(69).integers(0, 201, n) if per_path else 200
        small = walk_exit_steps(alpha, 0.0, 1.0, x0, scale, steps, derive_rng(68))
        large = walk_exit_steps(alpha, -0.5, 1.5, x0, scale, steps, derive_rng(68))
        assert np.all(large >= small)


class TestWalkBudgets:
    """Per-path step budgets: paths sorted by decreasing budget, and step j
    draws only for the paths whose budget is at least j."""

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    def test_equal_budgets_match_scalar(self, alpha):
        x0 = derive_rng(90).uniform(0.0, 1.0, 3000)
        scales = derive_rng(91).uniform(1e-3, 3e-2, 3000)
        scalar = walk_exit_steps(alpha, 0.0, 1.0, x0, scales, 150, derive_rng(92))
        array = walk_exit_steps(
            alpha, 0.0, 1.0, x0, scales, np.full(3000, 150), derive_rng(92)
        )
        assert np.array_equal(scalar, array)

    def test_survivor_exit_is_budget_plus_one(self):
        budgets = derive_rng(93).integers(0, 60, 2000)
        budgets[:50] = 0
        x0 = derive_rng(94).uniform(0.0, 1.0, 2000)
        es = walk_exit_steps(1.5, 0.0, 1.0, x0, np.float64(0.05), budgets, derive_rng(95))
        exited = es <= budgets
        assert exited.any() and not exited.all()
        assert np.array_equal(es[~exited], budgets[~exited] + 1)
        assert np.all(es[:50] == 1)  # a zero budget never moves
        # far from the boundary nothing exits: every path survives its budget
        far = walk_exit_steps(1.5, -1e9, 1e9, x0, np.float64(0.05), budgets, derive_rng(95))
        assert np.array_equal(far, budgets + 1)

    def test_no_draws_past_a_budget(self, monkeypatch):
        import shc_lab.stable_motion as sm

        sizes = []
        original = sm.sample_symmetric_stable

        def counting(rng, alpha, size):
            sizes.append(size)
            return original(rng, alpha, size)

        monkeypatch.setattr(sm, "sample_symmetric_stable", counting)
        budgets = derive_rng(96).integers(0, 40, 500)
        x0 = derive_rng(97).uniform(0.0, 1.0, 500)
        walk_exit_steps(2.0, -1e9, 1e9, x0, np.float64(0.01), budgets, derive_rng(98))
        # nothing exits, so every step is walked: step j draws one variate
        # for each path whose budget is at least j, and no more
        assert sizes == [int(np.count_nonzero(budgets >= j)) for j in range(1, budgets.max() + 1)]
        sizes.clear()
        es = walk_exit_steps(2.0, 0.0, 1.0, x0, np.float64(0.05), budgets, derive_rng(98))
        assert len(sizes) <= budgets.max()
        for j, size in enumerate(sizes, start=1):
            assert size == np.count_nonzero(budgets >= j)
        assert sum(sizes) <= budgets.sum()
        assert np.all((es <= budgets) | (es == budgets + 1))

    def test_huge_budget_stops_at_exit(self):
        # heavy-tailed time changes give budgets far beyond any walk; the
        # walk still ends once every path in the prefix has left
        x0 = np.full(100, 0.5)
        budgets = np.array([10 ** 15, 3] * 50)
        es = walk_exit_steps(2.0, 0.0, 1.0, x0, np.float64(0.1), budgets, derive_rng(99))
        assert es.max() < 10 ** 4

    @pytest.mark.parametrize("budgets", [np.array([3, -1]), np.array([3.0, 2.5]), 2.5])
    def test_bad_budget_rejected(self, budgets):
        with pytest.raises(ValidationError):
            walk_exit_steps(2.0, 0.0, 1.0, np.array([0.5, 0.5]), 0.1, budgets, derive_rng(0))


class TestSupEstimate:
    def test_alpha2_reflection_oracle(self):
        # E[sup] = E|N(0,2)| = 2/sqrt(pi); the grid max is biased low by
        # ~0.5826 sqrt(2/n_steps) (discrete-maximum correction)
        est = estimate_sup_mean(2.0, 40_000, 4096, seed=70)
        bias = 0.5826 * math.sqrt(2.0 / 4096)
        target = 2.0 / math.sqrt(math.pi) - bias
        assert abs(est.value - target) <= 1.6 * est.ci_halfwidth + 0.35 * bias

    def test_bias_monotone_alpha2(self):
        coarse = estimate_sup_mean(2.0, 200_000, 256, seed=71)
        fine = estimate_sup_mean(2.0, 200_000, 2048, seed=72)
        assert fine.value > coarse.value

    def test_frozen_regression_alpha15(self):
        # consistency with the frozen n_paths=1e6, n_steps=1e4 constant;
        # allowance covers the coarser grid's extra downward bias
        from shc_lab import FROZEN_SUP_MEAN

        est = estimate_sup_mean(1.5, 20_000, 2048, seed=73)
        assert abs(est.value - FROZEN_SUP_MEAN[1.5]) <= 1.5 * est.ci_halfwidth + 0.02

    def test_validation(self):
        with pytest.raises(ValidationError):
            estimate_sup_mean(1.0, 1000, 100, seed=0)
        with pytest.raises(ValidationError):
            estimate_sup_mean(1.5, 1, 100, seed=0)


class TestSeeding:
    @pytest.mark.parametrize("bad", [1.5, 1.0, -1, False, np.float64(3.0), "3"])
    def test_bad_seed_or_key_rejected(self, bad):
        with pytest.raises(ValidationError):
            derive_rng(bad)
        with pytest.raises(ValidationError):
            derive_rng(0, bad)

    def test_numpy_integers_accepted(self):
        a = derive_rng(np.int64(5), np.uint32(2)).random()
        assert a == derive_rng(5, 2).random()
