"""Interval eigen data and certified series sums."""

import math

import numpy as np
import pytest

from shc_lab import (
    EigenSystem,
    IntervalDomain,
    TruncationBudgetError,
    ValidationError,
    bm_interval_eigensystem,
    load_eigensystem,
    save_eigensystem,
    weighted_series,
)


class TestIntervalDomain:
    def test_measures(self):
        d = IntervalDomain(0.0, math.pi)
        assert d.volume == pytest.approx(math.pi)
        assert d.boundary_measure == 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            IntervalDomain(1.0, 1.0)


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
        assert (sv.value, sv.tail_bound, sv.n_terms) == (total, cert, n_used)

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

    def test_scaling_law(self):
        # Q_{cL}(c^2 t) = c Q_L(t) for the alpha=2 weights
        c, t = 2.5, 0.35
        eL = bm_interval_eigensystem(IntervalDomain(0.0, 1.0), 1001)
        eCL = bm_interval_eigensystem(IntervalDomain(0.0, c), 1001)
        qL = weighted_series(eL, lambda lam: np.exp(-lam * t)).value
        qCL = weighted_series(eCL, lambda lam: np.exp(-lam * c * c * t)).value
        assert qCL == pytest.approx(c * qL, abs=1e-10)


class TestEigenTableFile:
    def test_roundtrip(self, tmp_path):
        eig = bm_interval_eigensystem(IntervalDomain(0.0, 2.0), 7)
        p = tmp_path / "eig.txt"
        save_eigensystem(eig, p)
        back = load_eigensystem(p)
        assert back.total_mass == eig.total_mass
        assert np.array_equal(back.lambdas, eig.lambdas)
        assert np.array_equal(back.masses_sq, eig.masses_sq)

    def test_comments_and_header(self, tmp_path):
        p = tmp_path / "eig.txt"
        p.write_text("# a comment\n#mass 2.0\n1.0 1.5\n# another\n4.0 0.25\n")
        eig = load_eigensystem(p)
        assert eig.total_mass == 2.0
        assert eig.size == 2

    def test_missing_mass_header(self, tmp_path):
        p = tmp_path / "eig.txt"
        p.write_text("1.0 1.5\n")
        with pytest.raises(ValidationError):
            load_eigensystem(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "eig.txt"
        p.write_text("#mass 2.0\n1.0 1.5 9.9\n")
        with pytest.raises(ValidationError):
            load_eigensystem(p)
