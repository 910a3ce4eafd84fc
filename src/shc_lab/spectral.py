"""Interval domains, Dirichlet eigen data, and certified eigen-series sums.

Only two pieces of eigen data enter any heat-content formula: the
eigenvalues lambda_n and the squared eigenfunction masses
m_n^2 = (int_Omega psi_n)^2.  Exact pairs are available at alpha = 2
(Dirichlet Laplacian sine basis on an interval); for alpha < 2 a
Galerkin build in a weighted Gegenbauer basis computes them, its mass
matrix in closed form from the connection coefficients (DLMF 18.18.16).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TruncationBudgetError, ValidationError
from .seeding import _check_integer

__all__ = [
    "IntervalDomain",
    "EigenSystem",
    "bm_interval_eigensystem",
    "stable_interval_eigensystem",
    "SeriesValue",
    "weighted_series",
]


@dataclass(frozen=True)
class IntervalDomain:
    """Bounded open interval (a, b); |boundary| = 2 in dimension one."""

    a: float
    b: float

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ValidationError(f"need a < b, both finite, got ({self.a}, {self.b})")
        if not math.isfinite(self.b - self.a):
            raise ValidationError(f"the length b - a overflows, got ({self.a}, {self.b})")

    @property
    def volume(self) -> float:
        return self.b - self.a

    @property
    def boundary_measure(self) -> float:
        return 2.0


@dataclass(frozen=True)
class EigenSystem:
    """Truncated eigen data (lambda_n, m_n^2) with its declared total mass.

    The masses satisfy sum_n m_n^2 = |Omega| in the full series; partial
    sums must stay below the declared mass, which is what certifies the
    series tail bounds downstream.
    """

    lambdas: np.ndarray
    masses_sq: np.ndarray
    total_mass: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        msq = np.asarray(self.masses_sq, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "masses_sq", msq)
        if lam.ndim != 1 or lam.shape != msq.shape or lam.size == 0:
            raise ValidationError("lambdas and masses_sq must be equal-length 1-d arrays")
        finite = np.isfinite(lam).all() and np.isfinite(msq).all()
        if not (finite and math.isfinite(self.total_mass)):
            raise ValidationError("eigenvalues, masses and total mass must be finite")
        if not lam[0] > 0.0:
            raise ValidationError("eigenvalues must be positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValidationError("eigenvalues must be nondecreasing")
        if np.any(msq < 0.0):
            raise ValidationError("masses must be nonnegative")
        if self.total_mass <= 0.0:
            raise ValidationError("total mass must be positive")
        if float(msq.sum()) > self.total_mass * (1.0 + 1e-12):
            raise ValidationError("partial mass exceeds the declared total mass")

    @property
    def size(self) -> int:
        return int(self.lambdas.size)

    @property
    def partial_mass(self) -> float:
        return float(self.masses_sq.sum())


def bm_interval_eigensystem(domain: IntervalDomain, n_modes: int) -> EigenSystem:
    """Exact Dirichlet eigenpairs of the generator at alpha = 2 on an interval.

    With the convention exp(-t |xi|^2) the generator is the full
    Laplacian, so on (a, a + L):

        lambda_n = (n pi / L)^2,
        m_n^2    = 8 L / (n^2 pi^2) for odd n, 0 for even n.
    """
    n_modes = _check_integer("n_modes", n_modes, 1)
    L = domain.volume
    n = np.arange(1, n_modes + 1, dtype=float)
    lam = (n * math.pi / L) ** 2
    msq = np.where(n % 2 == 1, 8.0 * L / (n ** 2 * math.pi ** 2), 0.0)
    return EigenSystem(lambdas=lam, masses_sq=msq, total_mass=L)


def _rising_ratio(x: float, y: float, n: int) -> np.ndarray:
    """(x)_k / (y)_k for k < n, as a running product of (x + k) / (y + k)."""
    k = np.arange(n - 1.0)
    return np.concatenate(([1.0], np.cumprod((x + k) / (y + k))))


def _inverse_stiffness(alpha: float, n: int) -> np.ndarray:
    """Gamma(2k + 1) / Gamma(2k + 1 + alpha) = (1)_2k / (1 + alpha)_2k / Gamma(1 + alpha), k < n."""
    return _rising_ratio(1.0, 1.0 + alpha, 2 * n - 1)[::2] / math.gamma(1.0 + alpha)


def _norms(nu: float, n: int) -> np.ndarray:
    """sqrt(h_2i), i < n: h_k = int (1 - x^2)^(nu - 1/2) C_k^nu(x)^2 over (-1, 1)
    = h_0 nu (2 nu)_k / ((nu + k) k!), C_k^nu the Gegenbauer polynomials."""
    k = np.arange(0.0, 2 * n, 2.0)
    h0 = math.sqrt(math.pi) * math.gamma(nu + 0.5) / math.gamma(nu + 1.0)
    return np.sqrt(h0 * nu / (nu + k) * _rising_ratio(2.0 * nu, 1.0, 2 * n - 1)[::2])


def _connection(alpha: float, n: int) -> np.ndarray:
    """A[j, i], i <= j < n, the coefficient of q_2i in p_2j, with p_k and q_k the
    C_k^lam, lam = (alpha + 1)/2, and C_k^mu, mu = alpha + 1/2, over their norms,
    so orthonormal for (1 - x^2)^(alpha/2) and (1 - x^2)^alpha: the mass matrix
    int (1 - x^2)^alpha p_2j p_2k over (-1, 1) is A A^T.  By DLMF 18.18.16,
    C_2j^lam = sum_i (lam)_(i+j) (lam - mu)_(j-i) (2i + mu) / ((mu)_(i+j+1) (j-i)!)
    C_2i^mu; at alpha = 2, (lam - mu)_l = (-1)_l is exactly 0 for l >= 2."""
    lam, mu = (alpha + 1.0) / 2.0, alpha + 0.5
    j, i = np.tril_indices(n)
    a = np.zeros((n, n))
    by_sum, by_gap = _rising_ratio(lam, mu + 1.0, 2 * n - 1) / mu, _rising_ratio(lam - mu, 1.0, n)
    a[j, i] = by_sum[i + j] * by_gap[j - i] * (2 * i + mu) * _norms(mu, n)[i] / _norms(lam, n)[j]
    return a


def _galerkin_modes(mass: np.ndarray, n_modes: int, scale: float):
    """The lowest (lambda_n, m_n^2) on (-1, 1) from the mass matrix D B D."""
    mu, y = np.linalg.eigh(mass)  # mu = 1 / lambda, ascending
    mu, y0 = mu[::-1][:n_modes], y[0, ::-1][:n_modes]
    return 1.0 / mu, scale * y0 ** 2 / mu


def stable_interval_eigensystem(domain: IntervalDomain, alpha: float, n_modes: int) -> EigenSystem:
    """Dirichlet eigenpairs of (-Delta)^(alpha/2) on an interval, alpha in (0, 2].

    Galerkin on (-1, 1) in the basis (1 - x^2)^(alpha/2) p_2k, k < N =
    ``n_modes``, p_j orthonormal for the weight (1 - x^2)^(alpha/2); odd
    modes carry no mass.  The stiffness is diagonal, Gamma(alpha + 2k + 1) /
    (2k)! (Dyda, Fract. Calc. Appl. Anal. 15, 2012), the mass matrix B is
    A A^T with A the connection coefficients of :func:`_connection`, and
    D B D, D = stiffness^(-1/2), has eigenvalues 1/lambda.  Leading modes
    whose lambda (relative) and m^2 (absolute) agree to 1e-12 between N and
    2N basis functions are kept, else :class:`TruncationBudgetError`.  Like
    the Talbot node gap, that gap is measured, not certified: at most (kept
    modes * L/2 + L) * 1e-12 in a series with weights in [0, 1] and
    |lambda w'| <= 1.  The total mass is L, so the tail certificate of
    ``weighted_series`` covers dropped modes.  Against B from a 2N-point
    Gauss-Jacobi rule, at alpha in {0.3, 0.5, 1, 1.5, 1.9, 2} x N in {100,
    200, 500, 1000}, the same modes are kept, lambda within 6.2e-13
    relative and m^2 within 2.9e-15 absolute (measured).
    """
    n_modes = _check_integer("n_modes", n_modes, 1)
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"alpha must be in (0, 2], got {alpha}")
    n = 2 * n_modes
    dinv = np.sqrt(_inverse_stiffness(alpha, n))
    rows = dinv[:, None] * _connection(alpha, n)
    mass = rows @ rows.T
    scale = (_norms((alpha + 1.0) / 2.0, 1)[0] * dinv[0]) ** 2  # (int (1 - x^2)^(alpha/2) p_0)^2
    lam_n, msq_n = _galerkin_modes(mass[:n_modes, :n_modes], n_modes, scale)
    lam, msq = _galerkin_modes(mass, n_modes, scale)
    agree = (np.abs(lam_n - lam) <= 1e-12 * lam) & (np.abs(msq_n - msq) <= 1e-12)
    keep = n_modes if agree.all() else int(np.argmin(agree))
    if keep == 0:
        raise TruncationBudgetError(f"no mode agrees between {n_modes} and {n} basis functions")
    L = domain.volume
    return EigenSystem(lam[:keep] * (2.0 / L) ** alpha, msq[:keep] * L / 2.0, L)


# Nonzero-mass modes per weight evaluation in weighted_series: bounds its
# memory whatever the eigen table size.
_BLOCK = 512
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class SeriesValue:
    """A partial eigen sum together with its certified tail bound.

    The exact series value lies in [value, value + tail_bound] for
    nonnegative nonincreasing weights.
    """

    value: float
    tail_bound: float
    n_terms: int


def _bracket(total: float, cert: float, n_terms: int) -> SeriesValue:
    """The bracket of a running sum ``total`` of at most ``n_terms`` rounded
    products w m^2 >= 0 whose truncation certificate is ``cert``.

    Summed in order, each product and each addition rounds by at most
    eps / 2 relative, so the rounded total is within n_terms * eps * total
    of the exact partial sum (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, section 4.2); value moves down by that amount and
    tail_bound widens by twice it.
    """
    rounding = n_terms * _EPS * total
    return SeriesValue(value=total - rounding, tail_bound=cert + 2.0 * rounding, n_terms=n_terms)


def weighted_series(
    eig: EigenSystem,
    weights: Callable[[np.ndarray], np.ndarray],
    tol: float | None = None,
) -> SeriesValue:
    """sum_n w(lambda_n) m_n^2 with a certified truncation bound.

    ``weights`` maps an array of eigenvalues to the array of their
    weights, which must be nonincreasing and nonnegative (checked on the
    evaluated sequence).  After the last evaluated term the tail obeys

        tail <= w(lambda_N) * (total_mass - partial_mass_N),

    and the returned bracket also covers the rounding of the running sum
    (see :func:`_bracket`); ``tol`` applies to the truncation alone.

    Weights are evaluated on blocks of ``_BLOCK`` nonzero-mass modes (a
    zero-mass mode never costs a weight evaluation).  With ``tol`` given,
    evaluation stops at the first mode whose certificate drops below
    ``tol``, and only the weights up to that mode are checked and summed;
    :class:`TruncationBudgetError` is raised if the budget runs out first.
    """
    (nonzero,) = np.nonzero(eig.masses_sq)
    total, mass_used, prev_w = 0.0, 0.0, math.inf
    cert, n_used = math.inf, 0
    for start in range(0, nonzero.size, _BLOCK):
        idx = nonzero[start:start + _BLOCK]
        w = np.asarray(weights(eig.lambdas[idx]), dtype=float)
        msq = eig.masses_sq[idx]
        # running sums in mode order, carried across blocks
        mass = np.cumsum(np.concatenate(([mass_used], msq)))[1:]
        certs = w * np.maximum(eig.total_mass - mass, 0.0)
        if tol is not None:
            (done,) = np.nonzero(certs <= tol)
            if done.size:
                w = w[:done[0] + 1]
        bad = ~np.isfinite(w) | (w < 0.0)
        if bad.any():
            k = int(np.argmax(bad))
            lam = eig.lambdas[idx[k]]
            raise ValidationError(f"weight({lam}) = {w[k]} is not a finite nonnegative value")
        steps = np.concatenate(([prev_w], w))
        if np.any(np.diff(steps) > steps[:-1] * 1e-9 + 1e-12):
            raise ValidationError("weight must be nonincreasing in lambda")
        n = w.size
        total = float(np.cumsum(np.concatenate(([total], w * msq[:n])))[-1])
        mass_used, prev_w = float(mass[n - 1]), float(w[-1])
        cert, n_used = float(certs[n - 1]), int(idx[n - 1]) + 1
        if tol is not None and cert <= tol:
            return _bracket(total, cert, n_used)
    if tol is not None and cert > tol:
        raise TruncationBudgetError(
            f"tail certificate {cert} above tol={tol} after {eig.size} modes"
        )
    if not math.isfinite(cert):
        cert = eig.total_mass  # no finite weight evaluated (all masses zero)
    return _bracket(total, cert, n_used)
