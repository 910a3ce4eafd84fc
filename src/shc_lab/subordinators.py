"""Laplace exponents and inverse-subordinator evaluation.

The supported Laplace exponents are the three concrete families the
analysis needs (stable, tempered stable, sum of two stables) plus a
degenerate pure-drift exponent used as a test double.  Each exponent
knows its regular-variation indices at 0+ and at infinity, which drive
the asymptotic laws downstream, and owns its sampler of increments, its
Laplace functional E[exp(-a E_t)] of the inverse E_t = inf{u : D_u > t},
its sampler of E_t and its sampler of the fixed-dt step budgets
#{k >= 1 : D_{k dt} <= t} = floor(E_t / dt).  The functional takes a
whole array of a (one per eigenvalue): the shared base inverts the
double Laplace transform phi(s) / (s (phi(s) + a)) on one Talbot
contour, evaluating phi once per node, and only the drift double
(exp(-a t)) overrides it.  One grid counter, #{k >= 1 : D_{k dt} <= t}
with all paths grown together, gives both the exact step budget at the
walk's dt and, at dt = delta_u, the first passage (count + 1) * delta_u
that stands in for E_t; the stable family (E_t =d (t / D_1)^beta) and
the drift sample E_t exactly and floor it for their budgets.  Expectations
E[g(E_t)] for the stable family are computed by deterministic nested
quadrature in the Kanter representation
E_t =d t^beta (W / A(U))^(1-beta), U ~ Uniform(0, pi), W ~ Exp(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import InversionError, RejectionBudgetError, ValidationError
from .special import laplace_invert

__all__ = [
    "StableExponent",
    "TemperedStableExponent",
    "SumOfStablesExponent",
    "DriftExponent",
    "LaplaceExponent",
    "sample_positive_stable",
    "sample_increments",
    "sample_inverse_stable",
    "inverse_time_transform",
    "expected_laplace",
    "QuadratureResult",
    "expected_functional",
]

_REJECTION_CAP = 1_000_000
# increments per block of _grid_steps (one column when more paths are live)
_STEP_BLOCK = 16_384


# ---------------------------------------------------------------------------
# Laplace exponents
# ---------------------------------------------------------------------------


def _check_stable_index(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ValidationError(f"stable index must be in (0, 1), got {beta}")


class LaplaceExponent:
    """Base of the exponents: subclasses define phi (``__call__``), its two
    indices and :meth:`increments`, and override the numerical fallbacks
    for E_t where they have a closed form."""

    def increments(self, delta: float, size, rng: np.random.Generator) -> np.ndarray:
        """i.i.d. increments D_delta, exact in distribution."""
        raise NotImplementedError

    def laplace_functional(self, a, t: float, tol: float):
        """E[exp(-a E_t)] for each entry of ``a``, by numerical inversion of
        the double Laplace transform; a scalar ``a`` gives a scalar."""
        value = laplace_invert(inverse_time_transform(self, a), t, tol=tol)
        # the exact value lies in [0, 1] and the inversion agrees with it to
        # tol, so a value in [-tol, 0) is round-off of an underflowing weight
        value = np.where((-tol <= value) & (value < 0.0), 0.0, value)
        if np.any(value > 1.0 + tol):
            raise InversionError(f"E[exp(-a E_t)] inverted to {value.max()!r} > 1 at t={t}")
        return value[()]

    def inverse_times(self, ts: np.ndarray, size: int, rng, delta_u: float) -> np.ndarray:
        """E_t per (t, path), shape (len(ts), size), coupled across the grid:
        first passage (k + 1) * delta_u, k the grid count at step delta_u."""
        # not self.inverse_steps, which an exponent may override with its exact E_t
        return (_grid_steps(self, ts, delta_u, size, rng) + 1) * delta_u

    def inverse_steps(self, ts, dt: float, size: int, rng) -> np.ndarray:
        """Step budgets #{k >= 1 : D_{k dt} <= t} = floor(E_t / dt) per
        (t, path), int64 of shape (len(ts), size), coupled across the grid."""
        return _grid_steps(self, ts, dt, size, rng)


@dataclass(frozen=True)
class StableExponent(LaplaceExponent):
    """phi(lam) = lam^beta, the beta-stable subordinator."""

    beta: float

    def __post_init__(self):
        _check_stable_index(self.beta)

    def __call__(self, lam):
        return lam ** self.beta

    @property
    def index_at_zero(self) -> float:
        return self.beta

    @property
    def index_at_infinity(self) -> float:
        return self.beta

    def increments(self, delta, size, rng):
        return delta ** (1.0 / self.beta) * sample_positive_stable(rng, self.beta, size)

    def inverse_times(self, ts, size, rng, delta_u):
        """Exact: E_t =d (t / D_1)^beta with one D_1 per path (self-similarity)."""
        s = sample_positive_stable(rng, self.beta, size)
        return (ts[:, None] / s[None, :]) ** self.beta

    def inverse_steps(self, ts, dt, size, rng):
        return _floor_steps(self.inverse_times(np.asarray(ts, dtype=float), size, rng, None), dt)


@dataclass(frozen=True)
class TemperedStableExponent(LaplaceExponent):
    """phi(lam) = (lam + kappa)^beta - kappa^beta, tempered stable."""

    beta: float
    kappa: float

    def __post_init__(self):
        _check_stable_index(self.beta)
        if self.kappa <= 0.0:
            raise ValidationError(f"tempering rate must be > 0, got {self.kappa}")

    def __call__(self, lam):
        return (lam + self.kappa) ** self.beta - self.kappa ** self.beta

    @property
    def index_at_zero(self) -> float:
        return 1.0

    @property
    def index_at_infinity(self) -> float:
        return self.beta

    def increments(self, delta, size, rng):
        """Exponential tilting by rejection.

        Propose stable increments, accept with probability
        exp(-kappa * X).  Overall acceptance is exp(-delta * kappa^beta),
        so large delta is chopped into pieces with acceptance around
        exp(-0.7) each; the result is exact in distribution by infinite
        divisibility.
        """
        beta, kappa = self.beta, self.kappa
        budget = delta * kappa ** beta
        n_chunks = max(1, math.ceil(budget / 0.7))
        piece = delta / n_chunks
        scale = piece ** (1.0 / beta)
        out = np.zeros(size)
        for _ in range(n_chunks):
            pending = np.arange(size)
            vals = np.empty(size)
            rejections = 0
            while pending.size:
                cand = scale * sample_positive_stable(rng, beta, pending.size)
                accept = rng.uniform(size=pending.size) <= np.exp(-kappa * cand)
                vals[pending[accept]] = cand[accept]
                rejections += int(np.count_nonzero(~accept))
                if rejections > _REJECTION_CAP:
                    raise RejectionBudgetError(
                        f"tempering rejection cap exceeded (kappa={kappa}, delta={delta})"
                    )
                pending = pending[~accept]
            out += vals
        return out


@dataclass(frozen=True)
class SumOfStablesExponent(LaplaceExponent):
    """phi(lam) = lam^a + lam^b, sum of independent stable subordinators.

    Requires 0 < a < b <= 1.  (a = 0 would force phi(0+) = 1, breaking
    the defining property phi(0+) = 0 of a subordinator without
    killing.)  b = 1 contributes a unit drift.
    """

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < self.b <= 1.0:
            raise ValidationError(f"need 0 < a < b <= 1, got a={self.a}, b={self.b}")

    def __call__(self, lam):
        return lam ** self.a + lam ** self.b

    @property
    def index_at_zero(self) -> float:
        return self.a

    @property
    def index_at_infinity(self) -> float:
        return self.b

    def increments(self, delta, size, rng):
        first = delta ** (1.0 / self.a) * sample_positive_stable(rng, self.a, size)
        if self.b == 1.0:
            return first + delta
        return first + delta ** (1.0 / self.b) * sample_positive_stable(rng, self.b, size)


@dataclass(frozen=True)
class DriftExponent(LaplaceExponent):
    """phi(lam) = lam: deterministic time D_t = t.

    Degenerate test double (the Levy measure is zero, not infinite);
    useful because every formula collapses to the identity time change.
    """

    def __call__(self, lam):
        return lam

    @property
    def index_at_zero(self) -> float:
        return 1.0

    @property
    def index_at_infinity(self) -> float:
        return 1.0

    def increments(self, delta, size, rng):
        return np.full(size, delta)

    def laplace_functional(self, a, t, tol):
        return np.exp(-np.asarray(a, dtype=float) * t)[()]

    def inverse_times(self, ts, size, rng, delta_u):
        return np.repeat(ts[:, None], size, axis=1)

    def inverse_steps(self, ts, dt, size, rng):
        return _floor_steps(self.inverse_times(np.asarray(ts, dtype=float), size, rng, None), dt)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def sample_positive_stable(rng: np.random.Generator, beta: float, size) -> np.ndarray:
    """One-sided beta-stable variates with Laplace transform exp(-lam^beta).

    Kanter's form of the Chambers-Mallows-Stuck construction:
    with U ~ Uniform(0, pi) and W ~ Exp(1),

        S = sin(beta U) / sin(U)^(1/beta)
            * (sin((1-beta) U) / W)^((1-beta)/beta).
    """
    _check_stable_index(beta)
    u = rng.uniform(0.0, math.pi, size)
    w = rng.exponential(1.0, size)
    return (
        np.sin(beta * u)
        / np.sin(u) ** (1.0 / beta)
        * (np.sin((1.0 - beta) * u) / w) ** ((1.0 - beta) / beta)
    )


def sample_increments(
    spec: LaplaceExponent, delta: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. increments D_{delta} for the given exponent, exact in distribution."""
    # NaN fails every comparison, so the check asks for the good case
    if not 0.0 < delta < math.inf:
        raise ValidationError(f"delta must be finite and > 0, got {delta}")
    return spec.increments(delta, size, rng)


# ---------------------------------------------------------------------------
# First passage
# ---------------------------------------------------------------------------


def _floor_steps(times: np.ndarray, dt: float) -> np.ndarray:
    """Whole steps of size dt within each time, as int64; the 1e-9 keeps a
    time that is an exact multiple of dt from losing a step to round-off."""
    return np.floor(times / dt + 1e-9).astype(np.int64)


def _grid_steps(
    spec: LaplaceExponent, ts, dt: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """#{k >= 1 : D_{k dt} <= t} per (t, path), int64 of shape (len(ts), size).

    E_t >= k dt exactly when D_{k dt} <= t.  Every path grows on the grid
    k * dt together, ``_STEP_BLOCK`` increments per block shared among the
    paths whose level is still <= max(ts); a tie D_{k dt} = D_{(k-1) dt}
    cannot change the count.
    """
    ts = np.asarray(ts, dtype=float)
    steps = np.zeros((ts.size, size), dtype=np.int64)
    horizon = float(ts.max())
    level = np.zeros(size)
    # D_dt > 0 almost surely, so t = 0 needs no draws
    live = np.arange(size if horizon > 0.0 else 0)
    while live.size:
        cols = max(1, _STEP_BLOCK // live.size)
        inc = sample_increments(spec, dt, live.size * cols, rng).reshape(live.size, cols)
        path = level[live, None] + np.cumsum(inc, axis=1)
        steps[:, live] += np.count_nonzero(path <= ts[:, None, None], axis=2)
        level[live] = path[:, -1]
        live = live[path[:, -1] <= horizon]
    return steps


def sample_inverse_stable(beta: float, t: float, rng: np.random.Generator, size=None):
    """Exact sample of E_t for the inverse beta-stable subordinator.

    Uses E_t =d (t / D_1)^beta, a consequence of self-similarity; the
    test suite validates it against the first-passage sampler.
    """
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    s = sample_positive_stable(rng, beta, size)
    return (t / s) ** beta


# ---------------------------------------------------------------------------
# Laplace functionals of the inverse process
# ---------------------------------------------------------------------------


def inverse_time_transform(spec: LaplaceExponent, a) -> Callable:
    """Laplace transform (in t) of t -> E[exp(-a E_t)]:

        F(s) = phi(s) / (s (phi(s) + a)),  Re s > 0 and on the Talbot contour.

    For an array ``a`` the transform of nodes ``s`` has shape
    ``a.shape + s.shape``: phi is evaluated once per node and broadcast
    over every ``a``.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0):
        raise ValidationError(f"a must be > 0, got {a.min()!r}")

    def transform(s):
        ph = spec(s)
        return ph / (s * np.add.outer(a, ph))

    return transform


def expected_laplace(spec: LaplaceExponent, a, t: float, tol: float = 1.0e-9):
    """E[exp(-a E_t)] for the inverse subordinator of ``spec``, for each
    entry of ``a`` (a scalar ``a`` gives a scalar).

    The exponent evaluates its own functional: exp(-a t) for the drift
    double, Talbot inversion of the double Laplace transform otherwise.
    """
    if np.any(np.asarray(a) <= 0.0) or t <= 0.0:
        raise ValidationError("a and t must be > 0")
    return spec.laplace_functional(a, t, tol)


# ---------------------------------------------------------------------------
# E[g(E_t)] by deterministic quadrature (stable family)
# ---------------------------------------------------------------------------

# exp(-w) contributes nothing representable beyond this width
_W_SUPPORT = 800.0
# subintervals per adaptive quadrature level
_QUAD_LIMIT = 200


def kanter_angular(u: float, beta: float) -> float:
    """Zolotarev's angular function A(u) in the Kanter representation."""
    return (
        math.sin(beta * u) ** (beta / (1.0 - beta))
        * math.sin((1.0 - beta) * u)
        / math.sin(u) ** (1.0 / (1.0 - beta))
    )


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float

    def __float__(self) -> float:
        return self.value


def expected_functional(
    beta: float,
    t: float,
    g: Callable[[float], float],
    lower: float = 0.0,
    upper: float = math.inf,
) -> QuadratureResult:
    """E[g(E_t); lower < E_t <= upper] for the inverse beta-stable time change.

    Integrates g(t^beta (w / A(u))^(1-beta)) e^-w over the Kanter
    variables (u, w); the region restriction on E_t maps to exact
    w-limits per u-node, so indicator weights never appear as
    integrand jumps.  ``_QUAD_LIMIT`` caps the adaptive subdivision of
    each level.
    """
    _check_stable_index(beta)
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    if not 0.0 <= lower < upper:
        raise ValidationError(f"need 0 <= lower < upper, got [{lower}, {upper}]")
    tb = t ** beta
    pw = 1.0 - beta
    inv = 1.0 / pw
    inner_err_max = 0.0

    def inner(u: float) -> float:
        nonlocal inner_err_max
        A = kanter_angular(u, beta)
        wlo = 0.0 if lower <= 0.0 else A * (lower / tb) ** inv
        whi = math.inf if upper == math.inf else A * (upper / tb) ** inv
        if wlo > 745.0:
            return 0.0
        width = min(whi - wlo, _W_SUPPORT)

        def f(v: float) -> float:
            return g(tb * ((v + wlo) / A) ** pw) * math.exp(-v)

        val, err = quad(f, 0.0, width, epsabs=1e-14, epsrel=1e-12, limit=_QUAD_LIMIT)
        inner_err_max = max(inner_err_max, err)
        return math.exp(-wlo) * val

    val, outer_err = quad(inner, 0.0, math.pi, epsabs=1e-13, epsrel=1e-11, limit=_QUAD_LIMIT)
    if not math.isfinite(val):
        raise ValidationError("integrand is not integrable for this g")
    return QuadratureResult(value=val / math.pi, error=(outer_err + inner_err_max) / math.pi)
