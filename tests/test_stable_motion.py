"""Symmetric stable increments, the unit walk's extremes and exits, its supremum."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from shc_lab import (
    FROZEN_SUP_MEAN,
    ValidationError,
    expected_supremum,
    sample_symmetric_stable,
)
from shc_lab.seeding import derive_rng
from shc_lab.stable_motion import _SINGLE_ALPHA, _UNIT_BLOCK, _unit_extremes

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


def _extremes(alpha, n_paths, n_steps, rng):
    """The unit walk's max and min after n_steps steps, one per path: the
    kernel at equal budgets and no cap."""
    top, bottom = _unit_extremes(alpha, np.full((1, n_paths), n_steps), math.inf, rng)
    return top[0], bottom[0]


def _survives(a, b, x0, scale, top, bottom):
    """The walk x0 + scale S_j stays inside (a, b) through each readout."""
    return (x0 + scale * top < b) & (x0 + scale * bottom > a)


def _exit_survival(alpha, a, b, x0, scale, budgets, rng):
    """Survival through the step budgets (shape (len(ts), n) or (n,)) of
    the walks of scale ``scale`` from ``x0``, capped at the domain's
    length: past it every start point has left."""
    top, bottom = _unit_extremes(alpha, np.atleast_2d(budgets), (b - a) / scale, rng)
    return _survives(a, b, x0, scale, top, bottom)


class TestSimulateExit:
    """Exits read from the kernel's extremes: a fixed x0 survives k steps
    exactly when x0 + c max_{j<=k} S_j < b and x0 + c min_{j<=k} S_j > a."""

    @pytest.mark.parametrize("alpha,min_hits", [(2.0, 185), (1.5, 185)])
    def test_boundary_start_exits_fast(self, alpha, min_hits):
        # from distance 1e-12 inside, survival of an n-step walk decays
        # like 1/sqrt(pi n) (fluctuation theory), ~2.5% at 500 steps
        dt, n_steps = 1e-3, int(math.ceil(0.5 / 1e-3))
        hits = 0
        for seed in range(200):
            survived = _exit_survival(
                alpha, 0.0, math.pi, np.array([math.pi - 1e-12]),
                dt ** (1.0 / alpha), np.array([n_steps]), derive_rng(seed),
            )[0, 0]
            hits += not survived
        assert hits >= min_hits

    def test_survival_oracle_alpha2(self):
        # MC vs the exact eigen-series survival, with a step-halving
        # calibrated bias band on top of 3 standard errors
        n, t = 400_000, 0.2
        x0 = np.full(n, math.pi / 2)

        def survival(dt, seed):
            steps = int(round(t / dt))
            inside = _exit_survival(
                2.0, 0.0, math.pi, x0, dt ** 0.5, np.full(n, steps), derive_rng(seed)
            )
            return float(np.mean(inside))

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
            inside = _exit_survival(
                2.0, 0.0, math.pi, x0, dt ** 0.5, np.full(n, steps), derive_rng(seed)
            )
            return float(np.mean(inside))

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
        # one walk read at the step budgets of t = 0.1, 0.3, 0.6, 0.9
        budgets = np.repeat(np.array([10, 30, 60, 90])[:, None], n, axis=1)
        inside = _exit_survival(1.5, 0.0, math.pi, x0, dt ** (1 / 1.5), budgets, derive_rng(66))
        survs = inside.mean(axis=1).tolist()
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
        # each domain walks to its own cap; common numbers up to the
        # earlier stop, so every path inside the small domain is inside
        # the large one
        n = 20_000
        x0 = derive_rng(67).uniform(0.2, 0.8, n)
        dt = 1e-3
        scale = dt ** (1.0 / alpha)
        steps = derive_rng(69).integers(0, 201, n) if per_path else np.full(n, 200)
        small = _exit_survival(alpha, 0.0, 1.0, x0, scale, steps, derive_rng(68))
        large = _exit_survival(alpha, -0.5, 1.5, x0, scale, steps, derive_rng(68))
        assert small.any() and not small.all()
        assert np.all(large >= small)


class TestWalkBudgets:
    """Per-path step budgets: paths sorted by decreasing largest budget,
    and a block draws only for the paths whose largest budget exceeds its
    first step."""

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    def test_equal_budgets_match_scalar(self, alpha):
        # a budget repeated down the grid reads one walk at one step, and
        # the cap changes no survival decision
        x0 = derive_rng(90).uniform(0.0, 1.0, 3000)
        scale = derive_rng(91).uniform(1e-3, 3e-2)
        top, bottom = _extremes(alpha, 3000, 150, derive_rng(92))
        inside = _survives(0.0, 1.0, x0, scale, top, bottom)
        grid = _unit_extremes(alpha, np.full((3, 3000), 150), math.inf, derive_rng(92))
        assert all(np.array_equal(g, np.tile(e, (3, 1))) for g, e in zip(grid, (top, bottom)))
        capped = _exit_survival(alpha, 0.0, 1.0, x0, scale, np.full((3, 3000), 150), derive_rng(92))
        assert np.array_equal(capped, np.tile(inside, (3, 1)))

    def test_survivor_exit_is_budget_plus_one(self):
        # survivors outlast their budgets; a zero budget never moves
        budgets = derive_rng(93).integers(0, 60, 2000)
        budgets[:50] = 0
        x0 = derive_rng(94).uniform(0.0, 1.0, 2000)
        inside = _exit_survival(1.5, 0.0, 1.0, x0, 0.05, budgets, derive_rng(95))[0]
        assert inside.any() and not inside.all()
        top, bottom = _unit_extremes(1.5, budgets[None, :], 1.0 / 0.05, derive_rng(95))
        assert np.all(inside[:50]) and not top[0, :50].any() and not bottom[0, :50].any()
        # far from the boundary nothing exits: every path survives its budget
        far = _exit_survival(1.5, -1e9, 1e9, x0, 0.05, budgets, derive_rng(95))
        assert np.all(far)

    def test_no_draws_past_a_budget(self, monkeypatch):
        import shc_lab.stable_motion as sm

        sizes = []
        original = sm.sample_symmetric_stable

        def counting(rng, alpha, size, out=None):
            sizes.append(size)
            return original(rng, alpha, size, out=out)

        monkeypatch.setattr(sm, "sample_symmetric_stable", counting)
        # small blocks, so the walking prefix shrinks from block to block
        monkeypatch.setattr(sm, "_UNIT_BLOCK", 1000)
        budgets = derive_rng(96).integers(0, 40, 500)
        x0 = derive_rng(97).uniform(0.0, 1.0, 500)

        def check_blocks():
            # each block draws whole steps, at most _UNIT_BLOCK variates
            # (at least one step), for exactly the paths whose budget
            # exceeds its first step; no block starts past every budget
            done = 0
            for k, m in sizes:
                assert m == np.count_nonzero(budgets > done) and m > 0
                assert k * m <= 1000 or k == 1
                done += k
            return done

        _exit_survival(2.0, -1e9, 1e9, x0, 0.01, budgets, derive_rng(98))
        # nothing exits, so every step is walked, and no further
        done = check_blocks()
        assert done == budgets.max() and len(sizes) > 1
        walked = sum(k * m for k, m in sizes)
        sizes.clear()
        inside = _exit_survival(2.0, 0.0, 1.0, x0, 0.05, budgets, derive_rng(98))
        assert check_blocks() <= budgets.max()
        assert sum(k * m for k, m in sizes) <= walked
        assert inside.any() and not inside.all()

    def test_readouts_at_each_budget(self, monkeypatch):
        import shc_lab.stable_motion as sm

        # unit steps make S_j = j, so a readout's max is its own budget;
        # blocks of a few rows put readouts inside blocks and across them
        def ones(rng, alpha, size, out):
            out[...] = 1.0
            return out

        monkeypatch.setattr(sm, "sample_symmetric_stable", ones)
        monkeypatch.setattr(sm, "_UNIT_BLOCK", 1000)
        budgets = np.sort(derive_rng(100).integers(0, 50, (4, 300)), axis=0)
        top, bottom = _unit_extremes(1.5, budgets, math.inf, derive_rng(0))
        assert np.array_equal(top, budgets) and not bottom.any()
        # capped at 7: a readout past the stop reads a range of at least 7
        top, bottom = _unit_extremes(1.5, budgets, 7.0, derive_rng(0))
        assert np.all(top <= budgets) and not bottom.any()
        assert np.all(top >= np.minimum(budgets, 7))
        assert np.array_equal(top[budgets <= 7], budgets[budgets <= 7])

    def test_huge_budget_stops_at_exit(self, monkeypatch):
        import shc_lab.stable_motion as sm

        # heavy-tailed time changes give budgets far beyond any walk; the
        # walk still ends once every walking path's range passes the cap
        steps = []
        original = sm.sample_symmetric_stable

        def counting(rng, alpha, size, out=None):
            steps.append(size[0])
            return original(rng, alpha, size, out=out)

        monkeypatch.setattr(sm, "sample_symmetric_stable", counting)
        x0 = np.full(100, 0.5)
        budgets = np.array([10 ** 15, 3] * 50)
        inside = _exit_survival(2.0, 0.0, 1.0, x0, 0.1, budgets, derive_rng(99))
        assert sum(steps) < 10 ** 4
        assert not inside[0, ::2].any()

    @pytest.mark.parametrize("budgets", [np.array([3, -1]), np.array([3.0, 2.5]), 2.5])
    def test_bad_budget_rejected(self, budgets):
        with pytest.raises(ValidationError):
            _unit_extremes(2.0, budgets, math.inf, derive_rng(0))

    def test_bad_budget_error_is_a_summary(self):
        # one budget per path: the message reports dtype, count and minimum
        summary = "dtype float64 with 10000 bad of 10000 entries, minimum 2.5$"
        with pytest.raises(ValidationError, match=summary):
            _unit_extremes(2.0, np.full((1, 10_000), 2.5), 10.0, derive_rng(0))
        budgets = np.arange(10_000)[None, :] - 3
        summary = "dtype int64 with 3 bad of 10000 entries, minimum -3$"
        with pytest.raises(ValidationError, match=summary):
            _unit_extremes(2.0, budgets, 10.0, derive_rng(0))


def _inside_brute_force(a, b, x0, sums, scales):
    """inside[k, i]: every x0_i + scales[k] * sums[j, i] lies in (a, b)."""
    pos = x0[None, None, :] + scales[:, None, None] * sums[None, :, :]
    return np.all((pos > a) & (pos < b), axis=1)


def _inside_by_extremes(a, b, x0, top, bottom, scales):
    """inside[k, i]: x0_i + scales[k] * top_i < b and x0_i + scales[k] * bottom_i > a."""
    return (x0 + scales[:, None] * top < b) & (x0 + scales[:, None] * bottom > a)


class TestCriticalScales:
    """The unit walk scaled by c stays inside exactly when its extremes do,
    so ``_unit_extremes`` decides survival at every scale c at once."""

    def test_dyadic_walks_match_brute_force(self, monkeypatch):
        import shc_lab.stable_motion as sm

        # columns are paths; dyadic values keep every position exact, so
        # the scales 0.0625 and 0.5 land exactly on a or b
        z = np.array([
            [0.5, -0.5, 0.0, 2.0],
            [0.5, 0.25, 0.0, -4.0],
            [-1.0, 0.25, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        x0 = np.array([0.5, 0.25, 0.75, 0.125])
        def fixed(rng, alpha, size, out):
            out[...] = z
            return out

        monkeypatch.setattr(sm, "sample_symmetric_stable", fixed)
        top, bottom = _extremes(1.5, 4, 4, derive_rng(0))
        # S hits 0 (paths 0, 1, 3), stays 0 (path 2), or never goes up (path 1)
        assert (top.tolist(), bottom.tolist()) == ([1.0, 0.0, 0.0, 2.0], [0.0, -0.5, 0.0, -2.0])
        scales = np.array([0.0, 0.03125, 0.0625, 0.25, 0.4375, 0.5, 1.0, 8.0])
        inside = _inside_brute_force(0.0, 1.0, x0, np.cumsum(z, axis=0), scales)
        # the critical scales 0.5, 0.5, inf and 0.0625
        assert np.array_equal(scales[:, None] < np.array([0.5, 0.5, math.inf, 0.0625]), inside)
        assert np.array_equal(_inside_by_extremes(0.0, 1.0, x0, top, bottom, scales), inside)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    def test_random_walks_match_brute_force(self, alpha):
        x0 = derive_rng(100).uniform(0.0, 1.0, 200)
        top, bottom = _extremes(alpha, 200, 50, derive_rng(101))
        # 200 paths fit one block, so these are the walk's own variates
        sums = np.cumsum(sample_symmetric_stable(derive_rng(101), alpha, (50, 200)), axis=0)
        scales = np.concatenate([[0.0], np.logspace(-4, 1, 41)])
        inside = _inside_brute_force(0.0, 1.0, x0, sums, scales)
        assert inside.any() and not inside.all()
        assert np.array_equal(_inside_by_extremes(0.0, 1.0, x0, top, bottom, scales), inside)

    def test_draws_capped_per_block(self, monkeypatch):
        import shc_lab.stable_motion as sm

        sizes = []
        original = sm.sample_symmetric_stable

        def counting(rng, alpha, size, out=None):
            sizes.append(size)
            return original(rng, alpha, size, out=out)

        monkeypatch.setattr(sm, "sample_symmetric_stable", counting)
        top, bottom = _extremes(1.5, 3, 10 ** 5, derive_rng(102))
        assert len(sizes) > 1
        assert all(math.prod(size) <= sm._UNIT_BLOCK for size in sizes)
        assert sum(math.prod(size) for size in sizes) == 3 * 10 ** 5
        # the running sum, max and min carry across blocks: redraw the same
        # blocks into float32, as the walk does, carry the total from block
        # to block and take the extremes of the whole walk at once
        rng, total, blocks = derive_rng(102), np.zeros(3, np.float32), []
        for size in sizes:
            z = original(rng, 1.5, size, out=np.empty(size, np.float32))
            blocks.append(np.cumsum(z, axis=0) + total)
            total = blocks[-1][-1]
        sums = np.concatenate(blocks)
        want_top, want_bottom = sums.max(axis=0), sums.min(axis=0)
        assert np.all((want_top > 0.0) & (want_bottom < 0.0))
        np.testing.assert_allclose(top, want_top, rtol=1e-9)
        np.testing.assert_allclose(bottom, want_bottom, rtol=1e-9)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
def test_unit_extremes_same_bits_as_cumsum(alpha):
    # 1,000 paths make blocks of 131 steps, so 300 steps end in a partial
    # block; the in-place partial sums are the ones np.cumsum forms, over
    # float32 variates below alpha = 2
    n_paths, n_steps = 1_000, 300
    rows = _UNIT_BLOCK // n_paths
    assert n_steps % rows
    top, bottom = _extremes(alpha, n_paths, n_steps, derive_rng(103))
    dtype = np.float64 if alpha == 2.0 else np.float32
    rng, total = derive_rng(103), np.zeros(n_paths, dtype)
    want_top, want_bottom = np.zeros(n_paths, dtype), np.zeros(n_paths, dtype)
    for done in range(0, n_steps, rows):
        size = (min(rows, n_steps - done), n_paths)
        z = sample_symmetric_stable(rng, alpha, size, out=np.empty(size, dtype))
        sums = np.cumsum(z, axis=0) + total
        want_top = np.maximum(want_top, sums.max(axis=0))
        want_bottom = np.minimum(want_bottom, sums.min(axis=0))
        total = sums[-1]
    assert np.array_equal(top, want_top)
    assert np.array_equal(bottom, want_bottom)


class TestSingleWalk:
    """Below alpha = 2 and from _SINGLE_ALPHA on, the walk draws float32
    variates and forms its sums and extremes in float32; its results are
    float64."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_extremes_round_the_double_walk(self, alpha, monkeypatch):
        # same seed: each extreme within 64 float32 ulps of the path's
        # total variation sum |X_j| of the float64 walk's
        import shc_lab.stable_motion as sm

        n_paths, n_steps = 2_000, 300
        top, bottom = _extremes(alpha, n_paths, n_steps, derive_rng(104))
        assert top.dtype == bottom.dtype == np.float64
        monkeypatch.setattr(sm, "_SINGLE_ALPHA", math.inf)
        want_top, want_bottom = _extremes(alpha, n_paths, n_steps, derive_rng(104))
        rng, rows, variation = derive_rng(104), _UNIT_BLOCK // n_paths, np.zeros(n_paths)
        for done in range(0, n_steps, rows):
            z = sample_symmetric_stable(rng, alpha, (min(rows, n_steps - done), n_paths))
            variation += np.abs(z).sum(axis=0)
        bound = 64 * np.finfo(np.float32).eps * variation
        assert np.all(np.abs(top - want_top) <= bound)
        assert np.all(np.abs(bottom - want_bottom) <= bound)
        assert not np.array_equal(top, want_top)

    def test_precision_from_alpha(self, monkeypatch):
        import shc_lab.stable_motion as sm

        dtypes, original = [], sm.sample_symmetric_stable

        def recording(rng, alpha, size, out=None):
            dtypes.append(out.dtype)
            return original(rng, alpha, size, out=out)

        monkeypatch.setattr(sm, "sample_symmetric_stable", recording)
        below = float(np.nextafter(_SINGLE_ALPHA, 0.0))
        for alpha, dtype in [(below, np.float64), (_SINGLE_ALPHA, np.float32), (1.99, np.float32), (2.0, np.float64)]:
            dtypes.clear()
            top, bottom = _extremes(alpha, 10, 5, derive_rng(105))
            assert set(dtypes) == {np.dtype(dtype)}
            assert top.dtype == bottom.dtype == np.float64

    def test_no_overflow_just_above_threshold(self):
        # 1.2M float32 variates at alpha 0.43: none overflows, and no
        # RuntimeWarning is raised
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top, bottom = _extremes(0.43, 8192, 150, derive_rng(106))
        assert np.all(np.isfinite(top) & np.isfinite(bottom))
        assert top.max() > 1e10


def _grid_sup_mean(alpha, n_paths, n_steps, seed):
    """Mean of max_{0<=j<=n} S_j / n^(1/alpha) over the unit walks of
    ``_unit_extremes``, with its 95% CI half-width."""
    top, _ = _extremes(alpha, n_paths, n_steps, derive_rng(seed))
    sup = top * (1.0 / n_steps) ** (1.0 / alpha)
    return float(sup.mean()), 1.96 * math.sqrt(sup.var() / n_paths)


def _spitzer_grid_sup(alpha, n_steps):
    """E[max_{0<=j<=n} S_j] / n^(1/alpha), exact for every n: Spitzer's
    identity sum_{k<=n} E[S_k^+] / k with E[S_k^+] = k^(1/alpha) Gamma(1 - 1/alpha) / pi."""
    k = np.arange(1, n_steps + 1, dtype=float)
    total = math.gamma(1.0 - 1.0 / alpha) / math.pi * float(np.sum(k ** (1.0 / alpha - 1.0)))
    return total / n_steps ** (1.0 / alpha)


class TestSupEstimate:
    """The grid maximum of the unit walk against Spitzer's identity."""

    def test_alpha2_reflection_oracle(self):
        # E[sup] = E|N(0,2)| = 2/sqrt(pi); the grid max is biased low by
        # ~0.5826 sqrt(2/n_steps) (discrete-maximum correction), and the
        # exact grid mean sits within 0.35 of that bias of the correction
        value, ci = _grid_sup_mean(2.0, 40_000, 4096, seed=70)
        bias = 0.5826 * math.sqrt(2.0 / 4096)
        target = 2.0 / math.sqrt(math.pi) - bias
        assert abs(value - target) <= 1.6 * ci + 0.35 * bias
        assert abs(_spitzer_grid_sup(2.0, 4096) - target) <= 0.35 * bias
        assert abs(value - _spitzer_grid_sup(2.0, 4096)) <= 1.6 * ci

    def test_bias_monotone_alpha2(self):
        # one coupled walk: the 256-step walk is every 8th partial sum of the
        # 2,048-step walk, so the fine grid maximum is >= the coarse one path
        # by path, and their difference is far less noisy than either
        n_paths, rng = 20_000, derive_rng(71)
        total, fine, coarse = np.zeros(n_paths), np.zeros(n_paths), np.zeros(n_paths)
        for _ in range(2048 // 128):
            sums = total + np.cumsum(sample_symmetric_stable(rng, 2.0, (128, n_paths)), axis=0)
            np.maximum(fine, sums.max(axis=0), out=fine)
            np.maximum(coarse, sums[7::8].max(axis=0), out=coarse)
            total = sums[-1]
        fine, coarse = fine / math.sqrt(2048), coarse / math.sqrt(2048)
        assert np.all(fine >= coarse)
        exact_fine, exact_coarse = _spitzer_grid_sup(2.0, 2048), _spitzer_grid_sup(2.0, 256)
        assert exact_fine > exact_coarse
        for sup, exact in ((coarse, exact_coarse), (fine, exact_fine),
                           (fine - coarse, exact_fine - exact_coarse)):
            ci = 1.96 * math.sqrt(sup.var() / n_paths)
            assert abs(sup.mean() - exact) <= 1.6 * ci

    def test_frozen_regression_alpha15(self):
        # the frozen n_paths=1e6, n_steps=1e4 constant against the closed
        # form, within its own 95% CI half-width, and a coarser walk against
        # both (the 0.02 covers the coarser grid's extra downward bias)
        assert abs(FROZEN_SUP_MEAN[1.5] - expected_supremum(1.5)) <= 0.016
        value, ci = _grid_sup_mean(1.5, 20_000, 2048, seed=73)
        assert abs(value - FROZEN_SUP_MEAN[1.5]) <= 1.5 * ci + 0.02
        assert abs(value - _spitzer_grid_sup(1.5, 2048)) <= 1.5 * ci

    def test_validation(self):
        # the running supremum's mean is infinite for alpha <= 1
        for alpha in (1.0, 0.5, 2.5, math.nan):
            with pytest.raises(ValidationError):
                expected_supremum(alpha)
        assert expected_supremum(2.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)


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
