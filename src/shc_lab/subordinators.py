"""Laplace exponents and inverse-subordinator evaluation.

The supported Laplace exponents are the three concrete families the
analysis needs (stable, tempered stable, sum of two stables) plus the
pure drift, D_t = E_t = t: the identity time change, which
``time_change=None`` means in the Monte Carlo.  Each knows its
regular-variation indices at 0+ and at infinity, which drive the
asymptotic laws downstream, and owns its increment sampler (one delta
for all paths or one per path) with the longest piece it draws cheaply,
its Laplace functional E[exp(-a E_t)] of the inverse
E_t = inf{u : D_u > t}, and its fixed-dt step budgets
#{k >= 1 : D_{k dt} <= t} = floor(E_t / dt): the base counts them on
the grid, all paths grown together, and the stable family
(E_t =d (t / D_1)^beta) and the drift floor their exact E_t.  The
functional takes a whole array of a (one per eigenvalue): the base
inverts phi(s) / (s (phi(s) + a)) on one Talbot contour, evaluating phi
once per node; only the drift (exp(-a t)) overrides it.
Expectations E[g(E_t)] for the stable family use deterministic nested
quadrature in the Kanter representation
E_t =d t^beta (W / A(U))^(1-beta), U ~ Uniform(0, pi), W ~ Exp(1).
SciPy (``quad``) is imported on first use by that quadrature, so that
the Monte Carlo and series routes start and run without its 0.5 s and
40 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InversionError, RejectionBudgetError, ValidationError
from .special import _blockwise, _half_angle_sine, laplace_invert

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
# kappa^beta times the longest tempered piece: acceptance about exp(-0.7)
_TILT_BUDGET = 0.7
# most tempered pieces one increment may take, each one pass over the
# paths (at this count about 0.1 s for one path, 3 s for 8,192); the test
# suite reaches 58 pieces, its increment property strategy at most 128
_PIECE_CAP = 1_000
# increments per block of the base inverse_steps (one column past that many paths)
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

    # longest increment drawn at the cost of one variate per path
    piece_length = math.inf

    def increments(self, delta, size, rng: np.random.Generator) -> np.ndarray:
        """Independent increments D_delta, exact in distribution; ``delta``
        is one float for all paths or an array with one entry per path."""
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

    def inverse_steps(self, ts, dt: float, size: int, rng) -> np.ndarray:
        """Step budgets #{k >= 1 : D_{k dt} <= t} = floor(E_t / dt) per
        (t, path), int64 of shape (len(ts), size), coupled across the grid.

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
            inc = sample_increments(self, dt, live.size * cols, rng).reshape(live.size, cols)
            path = level[live, None] + np.cumsum(inc, axis=1)
            steps[:, live] += np.count_nonzero(path <= ts[:, None, None], axis=2)
            level[live] = path[:, -1]
            live = live[path[:, -1] <= horizon]
        return steps


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
        return _scaled_stable(rng, self.beta, delta, _root(delta, self.beta), size)

    def inverse_steps(self, ts, dt, size, rng):
        """Floored exact E_t =d (t / D_1)^beta, one D_1 per path (self-similarity)."""
        s = sample_positive_stable(rng, self.beta, size)
        return _floor_steps((np.asarray(ts, dtype=float)[:, None] / s[None, :]) ** self.beta, dt)


@dataclass(frozen=True)
class TemperedStableExponent(LaplaceExponent):
    """phi(lam) = (lam + kappa)^beta - kappa^beta, tempered stable."""

    beta: float
    kappa: float

    def __post_init__(self):
        _check_stable_index(self.beta)
        if not 0.0 < self.kappa < math.inf:
            raise ValidationError(f"tempering rate must be finite and > 0, got {self.kappa}")

    def __call__(self, lam):
        return (lam + self.kappa) ** self.beta - self.kappa ** self.beta

    @property
    def index_at_zero(self) -> float:
        return 1.0

    @property
    def index_at_infinity(self) -> float:
        return self.beta

    @property
    def piece_length(self) -> float:
        return _TILT_BUDGET / self.kappa ** self.beta

    def increments(self, delta, size, rng):
        """Exponential tilting by rejection.

        Propose stable increments, accept with probability
        exp(-kappa * X).  Overall acceptance is exp(-delta * kappa^beta),
        so a large delta is chopped into pieces with acceptance around
        exp(-0.7) each; the result is exact in distribution by infinite
        divisibility.  Chunk k draws for the paths with more than k pieces.
        The cost grows linearly in delta, so a call that needs more than
        ``_PIECE_CAP`` pieces on a path raises before drawing.
        """
        beta, kappa = self.beta, self.kappa
        budget = np.multiply(delta, kappa ** beta)
        n_chunks = np.maximum(1, np.ceil(budget / _TILT_BUDGET)).astype(np.int64)
        if n_chunks.max(initial=0) > _PIECE_CAP:
            raise RejectionBudgetError(
                f"tempered increment over delta={np.max(delta)} needs "
                f"{n_chunks.max()} pieces per path, more than {_PIECE_CAP}"
            )
        piece = delta / n_chunks
        scale = np.broadcast_to(_root(piece, beta), size)
        piece = np.broadcast_to(piece, size)
        n_chunks = np.broadcast_to(n_chunks, size)
        out = np.zeros(size)
        for k in range(int(n_chunks.max(initial=0))):
            pending = np.flatnonzero(n_chunks > k)
            vals = np.zeros(size)
            rejections = 0
            while pending.size:
                cand = _scaled_stable(rng, beta, piece[pending], scale[pending], pending.size)
                accept = rng.uniform(size=pending.size) <= np.exp(-kappa * cand)
                vals[pending[accept]] = cand[accept]
                rejections += int(np.count_nonzero(~accept))
                if rejections > _REJECTION_CAP:
                    raise RejectionBudgetError(
                        f"tempering rejection cap exceeded (kappa={kappa}, delta={np.max(delta)})"
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
        first = _scaled_stable(rng, self.a, delta, _root(delta, self.a), size)
        if self.b == 1.0:
            return first + delta
        return first + _scaled_stable(rng, self.b, delta, _root(delta, self.b), size)


@dataclass(frozen=True)
class DriftExponent(LaplaceExponent):
    """phi(lam) = lam: deterministic time D_t = E_t = t.

    The identity time change (the Levy measure is zero, not infinite):
    ``InverseTime(DriftExponent())`` is what ``time_change=None`` means
    in the Monte Carlo, and every formula collapses to the plain motion's.
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

    def inverse_steps(self, ts, dt, size, rng):
        """Floored E_t = t, the same for every path."""
        return _floor_steps(np.repeat(np.asarray(ts, dtype=float)[:, None], size, axis=1), dt)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def sample_positive_stable(rng: np.random.Generator, beta: float, size) -> np.ndarray:
    """One-sided beta-stable variates with Laplace transform exp(-lam^beta).

    Kanter's form of the Chambers-Mallows-Stuck construction:
    with U ~ Uniform(0, pi) and W ~ Exp(1),

        S = sin(beta U) / sin(U)^(1/beta)
            * (sin((1-beta) U) / W)^((1-beta)/beta)
          = (sin(beta U)^beta sin((1-beta) U)^(1-beta) / (sin(U) W^(1-beta)))^(1/beta),

    evaluated in the second form, each sine by its half-angle tangent
    (``special._half_angle_sine``), over blocks of
    ``special._VARIATE_BLOCK`` variates; all U are drawn first, then all W.
    Only S itself can leave the float range, and there it is taken in
    logs; a variate past the float range is inf.
    """
    return _scaled_stable(rng, beta, 1.0, 1.0, size)


def _scaled_stable(rng: np.random.Generator, beta: float, delta, root, size) -> np.ndarray:
    """delta^(1/beta) S, one S per path as in :func:`sample_positive_stable`,
    given ``root`` = ``_root(delta, beta)``: the product root * S, or
    exp(ln delta / beta + ln S) from the same draws where that is no
    positive float (a factor past the float range, 0 * inf, 0 / 0)."""
    _check_stable_index(beta)
    u = np.asarray(rng.uniform(0.0, math.pi, size))
    w = np.asarray(rng.exponential(1.0, size))

    def kanter(u, w):
        ratio = (
            _half_angle_sine(np.tan(0.5 * beta * u)) ** beta
            * (_half_angle_sine(np.tan(0.5 * (1.0 - beta) * u)) / w) ** (1.0 - beta)
            / _half_angle_sine(np.tan(0.5 * u))
        )
        return ratio ** (1.0 / beta)

    with np.errstate(all="ignore"):
        out = _blockwise(kanter, u, w)
        out *= root
    odd = ~((0.0 < out) & (out < math.inf))
    if odd.any():
        u, w = u[odd], w[odd]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_s = (
                np.log(np.sin(beta * u))
                - np.log(np.sin(u)) / beta
                + (np.log(np.sin((1.0 - beta) * u)) - np.log(w)) * ((1.0 - beta) / beta)
            )
            # U = 0 (probability 2^-53 per draw) takes the limit U -> 0,
            # where sin(c U) / U -> c for c = beta, 1 - beta and 1
            zero = u == 0.0
            log_s[zero] = math.log(beta) + (
                (math.log1p(-beta) - np.log(w[zero])) * ((1.0 - beta) / beta)
            )
        log_delta = np.log(np.broadcast_to(delta, out.shape)[odd])
        with np.errstate(over="ignore"):
            out[odd] = np.exp(log_delta / beta + log_s)
    return out[()]


def sample_increments(
    spec: LaplaceExponent, delta, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Independent increments D_{delta} for the given exponent, exact in
    distribution; ``delta`` is one float or an array with one entry per path."""
    # NaN fails every comparison, so the check asks for the good case
    d = np.asarray(delta)
    bad = d[~((0.0 < d) & (d < math.inf))]
    if bad.size:
        raise ValidationError(f"delta must be finite and > 0, got {bad[0]}")
    return spec.increments(delta, size, rng)


def _root(delta, beta: float) -> np.ndarray:
    """delta^(1/beta) per entry, inf past the float range; one vectorized
    power for a float and an array alike, so equal entries give equal bits."""
    with np.errstate(over="ignore"):
        return np.power(np.asarray(delta, dtype=float), 1.0 / beta)


# ---------------------------------------------------------------------------
# First passage
# ---------------------------------------------------------------------------


def _floor_steps(times: np.ndarray, dt: float) -> np.ndarray:
    """Whole steps of size dt within each time, as int64; the 1e-9 keeps a
    time that is an exact multiple of dt from losing a step to round-off."""
    return np.floor(times / dt + 1e-9).astype(np.int64)


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

    The exponent evaluates its own functional: exp(-a t) for the drift,
    Talbot inversion of the double Laplace transform otherwise.
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
    from scipy.integrate import quad

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
