"""Interval eigen data and certified series sums."""

import math
import sys

import numpy as np
import pytest

from shc_lab import (
    EigenSystem,
    IntervalDomain,
    TruncationBudgetError,
    ValidationError,
    bm_interval_eigensystem,
    large_time_constant,
    stable_interval_eigensystem,
    weighted_series,
)
from shc_lab.spectral import _connection, _inverse_stiffness


class TestIntervalDomain:
    def test_measures(self):
        d = IntervalDomain(0.0, math.pi)
        assert d.volume == pytest.approx(math.pi)
        assert d.boundary_measure == 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            IntervalDomain(1.0, 1.0)

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_non_finite_endpoints_rejected(self, a, b):
        with pytest.raises(ValidationError, match="both finite"):
            IntervalDomain(a, b)

    def test_overflowing_length_rejected(self):
        # both endpoints are finite, but b - a is not
        with pytest.raises(ValidationError, match="overflows"):
            IntervalDomain(-1e308, 1e308)
        assert IntervalDomain(-8e307, 8e307).volume == 1.6e308


class TestBmEigensystem:
    def test_first_mode_L_pi(self):
        eig = bm_interval_eigensystem(IntervalDomain(0.0, math.pi), 4)
        assert eig.lambdas[0] == pytest.approx(1.0, abs=1e-15)
        assert eig.masses_sq[0] == pytest.approx(8.0 / math.pi, abs=1e-15)

    def test_even_modes_massless(self):
        eig = bm_interval_eigensystem(IntervalDomain(0.0, math.pi), 10)
        assert np.all(eig.masses_sq[1::2] == 0.0)

    def test_mass_identity_with_tail_bound(self):
        # sum of masses -> |Omega| with deficit below the odd-tail bound 4/(pi N)
        N = 100_000
        eig = bm_interval_eigensystem(IntervalDomain(0.0, math.pi), N)
        deficit = math.pi - eig.partial_mass
        assert 0.0 < deficit <= 4.0 / (math.pi * N) * (1.0 + 1e-6)

    def test_translation_invariance(self):
        e1 = bm_interval_eigensystem(IntervalDomain(0.0, 2.0), 6)
        e2 = bm_interval_eigensystem(IntervalDomain(-1.0, 1.0), 6)
        assert np.allclose(e1.lambdas, e2.lambdas)
        assert np.allclose(e1.masses_sq, e2.masses_sq)

    def test_invariants_on_construction(self):
        with pytest.raises(ValidationError):
            EigenSystem(lambdas=np.array([1.0, 0.5]), masses_sq=np.array([0.1, 0.1]), total_mass=1.0)
        with pytest.raises(ValidationError):
            EigenSystem(lambdas=np.array([1.0]), masses_sq=np.array([2.0]), total_mass=1.0)
        with pytest.raises(ValidationError):
            bm_interval_eigensystem(IntervalDomain(0.0, 1.0), 0)

    @pytest.mark.parametrize(
        "lambdas,masses_sq,total_mass",
        [
            ([1.0, 4.0], [0.2, 0.1], math.nan),
            ([1.0, 4.0], [0.2, 0.1], math.inf),
            ([1.0, 4.0], [math.nan, 0.1], 1.0),
            ([1.0, math.nan], [0.2, 0.1], 1.0),
        ],
        ids=["mass-nan", "mass-inf", "row-mass-nan", "row-lambda-nan"],
    )
    def test_non_finite_data_rejected(self, lambdas, masses_sq, total_mass):
        # such data would give uncertified series values
        with pytest.raises(ValidationError):
            EigenSystem(np.array(lambdas), np.array(masses_sq), total_mass)


class TestWeightedSeries:
    def setup_method(self):
        self.eig = bm_interval_eigensystem(IntervalDomain(0.0, math.pi), 2001)

    def test_unit_weight_recovers_mass(self):
        sv = weighted_series(self.eig, np.ones_like)
        assert sv.value + sv.tail_bound >= math.pi - 1e-12
        assert sv.value <= math.pi

    def test_single_mode_dominance(self):
        t = 30.0
        sv = weighted_series(self.eig, lambda lam: np.exp(-lam * t))
        lead = math.exp(-t) * 8.0 / math.pi
        assert sv.value == pytest.approx(lead, rel=1e-10)

    def test_brute_force_oracle(self):
        # direct 200-term summation at t = 0.5, L = pi
        t = 0.5
        n = np.arange(1, 400, 2, dtype=float)
        direct = float(np.sum(np.exp(-(n ** 2) * t) * 8.0 / (math.pi * n ** 2)))
        sv = weighted_series(self.eig, lambda lam: np.exp(-lam * t))
        assert sv.value == pytest.approx(direct, abs=1e-12)

    def test_tail_certificate_windows_nest(self):
        # increasing N never moves the value outside the previous window
        w = lambda lam: 1.0 / (1.0 + lam)
        prev = None
        for N in (11, 101, 1001, 10_001):
            eig = bm_interval_eigensystem(IntervalDomain(0.0, math.pi), N)
            sv = weighted_series(eig, w)
            if prev is not None:
                assert prev.value - 1e-12 <= sv.value <= prev.value + prev.tail_bound + 1e-12
            prev = sv

    def test_early_stop_certificate(self):
        sv = weighted_series(self.eig, lambda lam: np.exp(-lam), tol=1e-10)
        assert sv.tail_bound <= 1e-10
        assert sv.n_terms < self.eig.size

    @pytest.mark.parametrize("tol", [None, 1e-3, 1e-8, 1e-13])
    @pytest.mark.parametrize("kind", ["exp", "power"])
    def test_matches_mode_by_mode_loop(self, tol, kind):
        # the running sums are sequential, as in a loop over the modes, so
        # the blocked evaluation must agree with one bit for bit
        eig = bm_interval_eigensystem(IntervalDomain(0.0, math.pi), 3001)
        w = (lambda lam: np.exp(-1e-3 * lam)) if kind == "exp" else (lambda lam: (1.0 + lam) ** -0.6)
        total, mass_used, cert, n_used = 0.0, 0.0, math.inf, 0
        for i in range(eig.size):
            if eig.masses_sq[i] == 0.0:
                continue
            wi = float(w(eig.lambdas[i:i + 1])[0])
            total += wi * eig.masses_sq[i]
            mass_used += eig.masses_sq[i]
            n_used = i + 1
            cert = wi * max(eig.total_mass - mass_used, 0.0)
            if tol is not None and cert <= tol:
                break
        if tol is not None and cert > tol:
            with pytest.raises(TruncationBudgetError):
                weighted_series(eig, w, tol=tol)
            return
        sv = weighted_series(eig, w, tol=tol)
        rounding = n_used * sys.float_info.epsilon * total
        assert (sv.value, sv.tail_bound, sv.n_terms) == (total - rounding, cert + 2.0 * rounding, n_used)

    def test_blocks_bound_memory_and_stop_early(self):
        # weights are asked for in blocks of nonzero-mass modes only, and
        # evaluation stops at the first block holding a certifying mode
        from shc_lab import spectral

        eig = bm_interval_eigensystem(IntervalDomain(0.0, math.pi), 10 * spectral._BLOCK + 1)
        sizes = []

        def w(lam):
            sizes.append(lam.size)
            return 1.0 / (1.0 + lam)

        weighted_series(eig, w)
        assert max(sizes) == spectral._BLOCK
        assert sum(sizes) == np.count_nonzero(eig.masses_sq)
        sizes.clear()
        sv = weighted_series(eig, w, tol=1e-3)
        assert sizes == [spectral._BLOCK]
        assert sv.n_terms < 2 * spectral._BLOCK

    def test_only_certified_prefix_is_checked(self):
        # a weight past the mode that meets tol is never summed or checked,
        # as it was never evaluated by a mode-by-mode loop
        def w(lam):
            out = np.exp(-lam)
            out[5:] = np.nan
            return out

        sv = weighted_series(self.eig, w, tol=1e-10)
        ref = weighted_series(self.eig, lambda lam: np.exp(-lam), tol=1e-10)
        assert sv == ref
        assert sv.n_terms < 10
        with pytest.raises(ValidationError):
            weighted_series(self.eig, w, tol=1e-60)

    def test_truncation_budget_error(self):
        eig = bm_interval_eigensystem(IntervalDomain(0.0, math.pi), 11)
        with pytest.raises(TruncationBudgetError):
            weighted_series(eig, lambda lam: 1.0 / (1.0 + lam), tol=1e-12)

    def test_weight_monotonicity_enforced(self):
        with pytest.raises(ValidationError):
            weighted_series(self.eig, lambda lam: lam)

    def test_bracket_covers_summation_rounding(self):
        # 50,001 nonzero terms of sum m_n^2 / (lambda_n Gamma(1/2)) = pi^3 / (12 sqrt(pi)):
        # the sequential sum lies 1.05e-13 relative below the exact value,
        # far more than the 7e-16 truncation certificate
        eig = bm_interval_eigensystem(IntervalDomain(0.0, math.pi), 100_001)
        sv = weighted_series(eig, lambda lam: 1.0 / (lam * math.gamma(0.5)))
        exact = math.pi ** 3 / (12.0 * math.sqrt(math.pi))
        assert sv.value <= exact <= sv.value + sv.tail_bound
        assert sv.tail_bound <= 1e-10 * exact

    def test_scaling_law(self):
        # Q_{cL}(c^2 t) = c Q_L(t) for the alpha=2 weights
        c, t = 2.5, 0.35
        eL = bm_interval_eigensystem(IntervalDomain(0.0, 1.0), 1001)
        eCL = bm_interval_eigensystem(IntervalDomain(0.0, c), 1001)
        qL = weighted_series(eL, lambda lam: np.exp(-lam * t)).value
        qCL = weighted_series(eCL, lambda lam: np.exp(-lam * c * c * t)).value
        assert qCL == pytest.approx(c * qL, abs=1e-10)


class TestStableIntervalEigensystem:
    """The Galerkin eigenpairs of (-Delta)^(alpha/2) on an interval."""

    def test_alpha2_matches_sine_modes(self):
        # the odd sine modes carry all the mass; the builder keeps only those
        d = IntervalDomain(0.0, math.pi)
        eig = stable_interval_eigensystem(d, 2.0, 100)
        exact = bm_interval_eigensystem(d, 2 * eig.size)
        assert eig.size > 40
        np.testing.assert_allclose(eig.lambdas, exact.lambdas[::2], rtol=1e-12)
        np.testing.assert_allclose(eig.masses_sq, exact.masses_sq[::2], rtol=0.0, atol=1e-13)
        assert eig.total_mass == d.volume

    def test_kwasnicki_first_eigenvalue(self):
        # alpha = 1 on (-1, 1): lambda_1 = 1.1577738836977 (Kwasnicki,
        # J. Funct. Anal. 262, 2012)
        eig = stable_interval_eigensystem(IntervalDomain(-1.0, 1.0), 1.0, 100)
        assert eig.lambdas[0] == pytest.approx(1.1577738836977, rel=1e-11)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.5])
    def test_getoor_constant_in_series_bracket(self, alpha):
        # sum m^2 / lambda is the integral of the mean exit time (Getoor)
        d = IntervalDomain(0.0, math.pi)
        eig = stable_interval_eigensystem(d, alpha, 300)
        sv = weighted_series(eig, lambda lam: 1.0 / lam)
        assert sv.value <= large_time_constant(alpha, d, 0.0) <= sv.value + sv.tail_bound

    def test_scaling_to_the_interval(self):
        # lambda scales by (2/L)^alpha and m^2 by L/2 from (-1, 1)
        unit = stable_interval_eigensystem(IntervalDomain(-1.0, 1.0), 1.5, 50)
        eig = stable_interval_eigensystem(IntervalDomain(3.0, 8.0), 1.5, 50)
        np.testing.assert_allclose(eig.lambdas, unit.lambdas * 0.4 ** 1.5, rtol=1e-14)
        np.testing.assert_allclose(eig.masses_sq, unit.masses_sq * 2.5, rtol=1e-14)

    def test_no_agreeing_mode_raises(self):
        # one basis function against two: no mode agrees to 1e-12
        with pytest.raises(TruncationBudgetError):
            stable_interval_eigensystem(IntervalDomain(0.0, 1.0), 1.0, 1)

    @pytest.mark.parametrize("alpha,n_modes", [(0.0, 10), (2.5, 10), (math.nan, 10), (1.5, 0)])
    def test_validation(self, alpha, n_modes):
        with pytest.raises(ValidationError):
            stable_interval_eigensystem(IntervalDomain(0.0, 1.0), alpha, n_modes)


@pytest.mark.parametrize("alpha", [0.3, 1.5, 1.9])
def test_inverse_stiffness_forty_digits(alpha):
    # Gamma(2k + 1) / Gamma(2k + 1 + alpha) by running product, against mpmath
    mpmath = pytest.importorskip("mpmath")
    g = _inverse_stiffness(alpha, 4000)
    with mpmath.workdps(40):
        for k in (0, 1, 10, 100, 1000, 3999):
            exact = mpmath.gamma(2 * k + 1) / mpmath.gamma(2 * k + 1 + mpmath.mpf(alpha))
            assert abs(float((g[k] - exact) / exact)) <= 5e-12


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_mass_matrix_against_quadrature(alpha):
    # A A^T is int (1 - x^2)^alpha p_2j p_2k over (-1, 1), p_k the Gegenbauer
    # C_k^lam normalised for (1 - x^2)^(alpha/2), here by 30-digit quadrature
    mpmath = pytest.importorskip("mpmath")
    a = _connection(alpha, 40)
    mass = a @ a.T
    with mpmath.workdps(30):
        w, lam = mpmath.mpf(alpha), (mpmath.mpf(alpha) + 1) / 2

        def p(k, x):
            h0 = mpmath.sqrt(mpmath.pi) * mpmath.gamma(lam + 0.5) / mpmath.gamma(lam + 1)
            h = h0 * lam * mpmath.rf(2 * lam, k) / ((lam + k) * mpmath.factorial(k))
            return mpmath.gegenbauer(k, lam, x) / mpmath.sqrt(h)

        for j, k in [(0, 0), (3, 5), (10, 10), (20, 37), (39, 39)]:
            exact = 2 * mpmath.quad(lambda x: (1 - x * x) ** w * p(2 * j, x) * p(2 * k, x), [0, 1])
            assert abs(float((mass[j, k] - exact) / exact)) <= 1e-14


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 2.0])
def test_connection_coefficients_forty_digits(alpha):
    # DLMF 18.18.16 at 40 digits: A[j, i] = c sqrt(h_2i^mu / h_2j^lam), with c the
    # coefficient of C_2i^mu in C_2j^lam
    mpmath = pytest.importorskip("mpmath")
    n = 2000
    a = _connection(alpha, n)
    assert not np.any(np.triu(a, 1))
    if alpha == 2.0:
        assert not np.any(np.tril(a, -2))  # (-1)_l vanishes for l >= 2
    rng = np.random.default_rng(20261020)
    j = rng.integers(0, n, 50)
    i = (rng.random(50) * (j + 1)).astype(int)
    with mpmath.workdps(40):
        lam, mu = (mpmath.mpf(alpha) + 1) / 2, mpmath.mpf(alpha) + 0.5

        def h(k, nu):  # int (1 - x^2)^(nu - 1/2) C_k^nu(x)^2 dx (DLMF 18.3.1)
            return (2 ** (1 - 2 * nu) * mpmath.pi * mpmath.gamma(k + 2 * nu)
                    / ((k + nu) * mpmath.gamma(nu) ** 2 * mpmath.factorial(k)))

        for jj, ii in zip(j.tolist(), i.tolist()):
            c = (mpmath.rf(lam, ii + jj) * mpmath.rf(lam - mu, jj - ii) * (2 * ii + mu)
                 / (mpmath.rf(mu, ii + jj + 1) * mpmath.factorial(jj - ii)))
            exact = c * mpmath.sqrt(h(2 * ii, mu) / h(2 * jj, lam))
            if exact == 0:
                assert a[jj, ii] == 0.0
            else:
                assert abs(float((a[jj, ii] - exact) / exact)) <= 5e-13


@pytest.mark.parametrize("n_modes", [10.5, 10.0, True, "10", None, 0, -3])
@pytest.mark.parametrize(
    "build",
    [
        lambda n: bm_interval_eigensystem(IntervalDomain(0.0, 1.0), n),
        lambda n: stable_interval_eigensystem(IntervalDomain(0.0, 1.0), 1.5, n),
    ],
    ids=["bm", "stable"],
)
def test_n_modes_must_be_a_positive_integer(build, n_modes):
    # a float is not rounded up to a mode count, and a bool is not 1
    with pytest.raises(ValidationError, match="n_modes"):
        build(n_modes)
