"""The spectral heat content Q(t) under a time change: ``SubordinatorTime``
runs the motion up to D_t, ``InverseTime`` up to E_t.  ``heat_content`` is
one eigen series whose weights the time change supplies a block of
eigenvalues at a time (closed form under D_t, Talbot inversion of the
double Laplace transform under E_t); Monte Carlo simulates the walk.

The series refuses small t when the truncation budget cannot certify the
requested tolerance; Monte Carlo is the tool there.  It splits paths into
fixed-size replicas with derived seeds, so results do not depend on the
worker count, and draws in a fixed per-replica order, so a common seed
gives common random numbers across a t-grid (and estimates exactly
monotone in t).  Each time change draws its own randomness;
``time_change=None``, the identity E_t = t, draws none.  With a fixed dt
its budgets are whole steps (``step_budgets``), and each path walks only
up to its largest grid budget: the walk's budget-ordered layout ties a
path's variates to the budgets alone.

One estimator serves every route: path i contributes a deficit d_i(t) in
[0, L], L = |Omega|, and Q(t) is |Omega| minus the mean deficit, with the
95% CI of that mean; only the deficit differs.  With a fixed dt it is
L * 1{exit step <= budget}, from a uniform start point ("monte_carlo").
In adaptive mode (``dt=None``) path i takes n_steps steps of size
h_i(t) / n_steps, so its positions are x0 + c_i(t) S_ij with
c_i(t) = (h_i(t) / n_steps)^(1/alpha) and S_ij one unit walk that serves
every grid point.  That walk stays inside (a, b) exactly when
a - c min_j S_j < x0 < b - c max_j S_j, so from a uniform x0 it survives
scale c with chance (L - c R)^+ / L, R = max_j S_j - min_j S_j the unit
walk's range.  Where the time change draws h(t) exactly (every
``SubordinatorTime``, and ``InverseTime`` of the stable family and the
drift, whose E_t have closed forms, ``inverse_times``) x0 integrates out:
d = min(L, c(t) R) ("monte_carlo_range"), a few times less variable than
an indicator.  The inverse tempered and sum-of-stables clocks have no
exact E_t sampler, so they keep the indicator ("monte_carlo"):
d = L * 1{h(t) >= u*}, u* = n_steps (Y / R)^alpha with Y uniform on
(0, L], as P(Y / R > c) is that same (L - c R)^+ / L.  The time change
answers "E_t < u*?" (``budgets_below``) as D_{u*} > t (Meerschaert &
Scheffler, J. Appl. Probab. 41, 2004), exact for every exponent, with no
E_t sampled.  Both adaptive routes share the walk's bias at a given n_steps.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .seeding import _check_integer, derive_rng
from .spectral import EigenSystem, IntervalDomain, weighted_series
from .stable_motion import _unit_extremes, walk_exit_steps
from .subordinators import (
    DriftExponent,
    LaplaceExponent,
    _floor_steps,
    expected_laplace,
    sample_increments,
)

__all__ = [
    "HeatContentValue",
    "heat_content",
    "heat_content_subordinate",
    "heat_content_inverse",
    "SubordinatorTime",
    "InverseTime",
    "monte_carlo_heat_content_grid",
]

REPLICA_PATHS = 8192


@dataclass(frozen=True)
class HeatContentValue:
    """One heat-content evaluation: value with its error accounting.

    ``error`` is a certified series tail bound for the series/transform
    methods and, for Monte Carlo, the 95% CI half width of the mean
    per-path deficit: L times the loss indicator for ``monte_carlo``
    (fixed dt, and adaptive under the inverse tempered and sum-of-stables
    clocks), min(L, (h(t) / n_steps)^(1/alpha) R) for
    ``monte_carlo_range`` (adaptive under every other clock); neither
    includes the walk's step bias.  For ``transform``
    it is the series tail alone: the Talbot node gap of each weight (at
    most 1e-9, ``expected_laplace``'s tolerance) is not included.  Nor, on
    eigen data from ``stable_interval_eigensystem``, is the measured gap
    between its N and 2N Galerkin builds, at most (kept modes * L/2 + L)
    * 1e-12 for weights in [0, 1] with |lambda w'| <= 1.
    """

    t: float
    value: float
    method: str
    error: float


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


def heat_content(eig: EigenSystem, t: float,
                 time_change: SubordinatorTime | InverseTime | None = None,
                 tol: float = 1e-10) -> HeatContentValue:
    """Q(t) = sum_n w_n m_n^2 with the weights w_n = E[exp(-lambda_n h(t))] and
    the method label that the time change supplies; ``time_change=None`` is
    the plain motion, w_n = exp(-lambda_n t), as the drift subordinator."""
    time_change = _time_change(time_change, SubordinatorTime(DriftExponent()))
    if not 0.0 < t < math.inf:
        raise ValidationError(f"t must be finite and > 0, got {t}")
    sv = weighted_series(eig, lambda lams: time_change.series_weights(lams, t), tol=tol)
    return HeatContentValue(t, sv.value, time_change.series_method, sv.tail_bound)


def heat_content_subordinate(eig: EigenSystem, spec: LaplaceExponent, t: float,
                             tol: float = 1e-10) -> HeatContentValue:
    """``heat_content`` under D_t; kept only because the benchmark calls this name."""
    return heat_content(eig, t, SubordinatorTime(spec), tol)


def heat_content_inverse(eig: EigenSystem, spec: LaplaceExponent, t: float,
                         tol: float = 1e-10) -> HeatContentValue:
    """``heat_content`` under E_t; kept only because the benchmark calls this name."""
    return heat_content(eig, t, InverseTime(spec), tol)


# ---------------------------------------------------------------------------
# Time changes and Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubordinatorTime:
    """Run the outer motion up to D_t (subordinate heat content)."""

    spec: LaplaceExponent
    series_method = "series"
    # D_t is drawn exactly for every exponent
    draws_horizons = True

    def series_weights(self, lams: np.ndarray, t: float) -> np.ndarray:
        """E[exp(-lambda D_t)] = exp(-t phi(lambda)) per eigenvalue."""
        return np.exp(-t * self.spec(lams))

    def horizons(self, ts: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
        """D_t per (t, path) on a nondecreasing grid: independent increments
        over the grid gaps keep D_t coupled and monotone along each path."""
        out = np.zeros((ts.size, size))
        prev_t = 0.0
        acc = np.zeros(size)
        for i, t in enumerate(ts):
            gap = float(t - prev_t)
            if gap > 0.0:
                acc = acc + sample_increments(self.spec, gap, size, rng)
            out[i] = acc
            prev_t = float(t)
        return out

    def step_budgets(
        self, ts: np.ndarray, dt: float, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Whole steps of size dt within D_t per (t, path)."""
        return _floor_steps(self.horizons(ts, size, rng), dt)


@dataclass(frozen=True)
class InverseTime:
    """Run the outer motion up to E_t (inverse-subordinator time change).

    Every route is exact in distribution for every exponent: fixed-dt
    step counts on the walk's own grid; in adaptive mode E_t itself where
    the exponent draws it (``horizons``), else "E_t < u*?" by D_{u*}, with
    u* the budget a path's unit walk and uniform Y survive
    (``budgets_below``).
    """

    spec: LaplaceExponent
    series_method = "transform"

    def series_weights(self, lams: np.ndarray, t: float) -> np.ndarray:
        """E[exp(-lambda E_t)] per eigenvalue: nonincreasing and in [0, 1]."""
        return expected_laplace(self.spec, lams, t)

    @property
    def draws_horizons(self) -> bool:
        """Whether E_t is drawn exactly: for the stable family and the drift."""
        return self.spec.inverse_times is not None

    def horizons(self, ts: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
        """E_t per (t, path), coupled along the grid; needs ``draws_horizons``."""
        return self.spec.inverse_times(ts, size, rng)

    def step_budgets(
        self, ts: np.ndarray, dt: float, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """#{k >= 1 : D_{k dt} <= t} = floor(E_t / dt) per (t, path)."""
        return self.spec.inverse_steps(ts, dt, size, rng)

    def budgets_below(self, ts: np.ndarray, u_star: np.ndarray, rng) -> np.ndarray:
        """E_t < u* per (t, path), as the event D_{u*} > t.  D_{u*} is drawn
        in pieces of at most the exponent's ``piece_length`` until it passes
        max(ts), so a huge u* costs no more than the grid needs; u* = inf
        passes every t and u* = 0 none, both without a draw."""
        level = np.where(u_star == math.inf, math.inf, 0.0)
        left = u_star.copy()
        live = np.flatnonzero((0.0 < u_star) & (u_star < math.inf))
        while live.size:
            delta = np.minimum(left[live], self.spec.piece_length)
            # a level past the float range is inf, which passes every t
            with np.errstate(over="ignore"):
                level[live] += sample_increments(self.spec, delta, live.size, rng)
            left[live] -= delta
            live = live[(left[live] > 0.0) & (level[live] <= ts.max(initial=0.0))]
        return level > ts[:, None]


def _time_change(time_change, plain):
    """``time_change``, or ``plain`` for None: the check both routes share."""
    if time_change is None:
        return plain
    if not isinstance(time_change, (SubordinatorTime, InverseTime)):
        raise ValidationError(f"unsupported time change {time_change!r}")
    return time_change


def _replica_sizes(n_paths: int) -> list[int]:
    full, rem = divmod(n_paths, REPLICA_PATHS)
    return [REPLICA_PATHS] * full + ([rem] if rem else [])


def _replica_task(args) -> np.ndarray:
    """Sums over one replica's paths of the per-path deficits and of their
    squares, shape (2, len(ts))."""
    (alpha, a, b, time_change, ts, size, dt, n_steps, seed, replica) = args
    rng = derive_rng(seed, replica)
    ts = np.asarray(ts, float)
    if dt is not None:
        deficits = _exit_deficits(alpha, a, b, time_change, ts, size, dt, rng)
    elif time_change.draws_horizons:
        deficits = _range_deficits(alpha, b - a, time_change, ts, size, n_steps, rng)
    else:
        deficits = _indicator_deficits(alpha, b - a, time_change, ts, size, n_steps, rng)
    return np.stack([deficits.sum(axis=1), np.square(deficits).sum(axis=1)])


def _exit_deficits(alpha, a, b, time_change, ts, size, dt, rng) -> np.ndarray:
    """L * 1{exit step <= budget} per (t, path) for the fixed-dt walk from a
    uniform start point."""
    x0 = rng.uniform(a, b, size)
    # budgets are coupled across the grid, so each path's budget is
    # nondecreasing in t; each path walks up to its largest grid budget,
    # and a survivor's exit step is that budget + 1, so it exceeds every
    # budget of the grid
    ks = time_change.step_budgets(ts, dt, size, rng)
    steps = walk_exit_steps(
        alpha, a, b, x0, np.float64(dt ** (1.0 / alpha)), ks.max(axis=0), rng
    )
    return np.where(steps > ks, 0.0, b - a)


def _indicator_deficits(alpha, length, time_change, ts, size, n_steps, rng) -> np.ndarray:
    """L * 1{E_t >= u*} per (t, path), u* = n_steps (Y / R)^alpha with R the
    range of the path's unit walk and Y uniform on (0, L]: the scale Y / R,
    below which the walk survives, has the law of the critical scale of a
    uniform start point, P(Y / R > c) = (L - c R)^+ / L."""
    top, bottom = _unit_extremes(alpha, size, n_steps, rng)
    # Y > 0, so E_0 = 0 < u* and t = 0 loses nothing
    y = (1.0 - rng.random(size)) * length
    # R = 0 gives u* = inf, R = inf gives u* = 0, and a u* past the float
    # range is inf, which survives every t
    with np.errstate(divide="ignore", over="ignore"):
        u_star = n_steps * (y / (top - bottom)) ** alpha
    return np.where(time_change.budgets_below(ts, u_star, rng), 0.0, length)


def _range_deficits(alpha, length, time_change, ts, size, n_steps, rng) -> np.ndarray:
    """min(L, (h(t) / n_steps)^(1/alpha) R) per (t, path), R the range of
    the path's unit walk; nondecreasing in t, as h(t) is."""
    top, bottom = _unit_extremes(alpha, size, n_steps, rng)
    h = time_change.horizons(ts, size, rng)
    # past the float range a range, scale or product is inf, which caps at
    # L; a zero scale (h = 0, as at t = 0) leaves 0 even against R = inf
    with np.errstate(over="ignore"):
        span = top - bottom
        scale = (h / n_steps) ** (1.0 / alpha)
        deficits = np.multiply(
            scale, span, out=np.zeros(scale.shape), where=(scale > 0.0) & (span > 0.0)
        )
    return np.minimum(deficits, length, out=deficits)


def _run_replicas(alpha, domain, time_change, ts, n_paths, dt, n_steps, seed, workers):
    sizes = _replica_sizes(n_paths)
    tasks = [
        (alpha, domain.a, domain.b, time_change, tuple(ts), m, dt, n_steps, seed, r)
        for r, m in enumerate(sizes)
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(_replica_task, tasks))
    else:
        sums = [_replica_task(t) for t in tasks]
    return np.sum(sums, axis=0)


def _validate_mc_args(t_grid, n_paths, dt, n_steps):
    _check_integer("n_paths", n_paths, 1)
    # NaN fails every comparison, so each check asks for the good case
    bad_t = [t for t in t_grid if not 0.0 <= t < math.inf]
    if bad_t:
        raise ValidationError(f"t must be finite and >= 0, got {bad_t[0]}")
    if dt is None:
        _check_integer("n_steps (adaptive mode)", n_steps, 1)
    elif not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be finite and > 0, got {dt}")


def _values(domain, ts, sums, n_paths, method) -> list[HeatContentValue]:
    """|Omega| minus the mean deficit at each t, with the 95% CI of that mean."""
    vol = domain.volume
    out = []
    for t, total, squares in zip(ts, *sums):
        # deficits lie in [0, L], but the rounded sum of n deficits of L
        # can put their mean above L, which would make Q negative
        mean = min(float(total) / n_paths, vol)
        ci = 1.96 * math.sqrt(max(float(squares) / n_paths - mean * mean, 0.0) / n_paths)
        out.append(HeatContentValue(float(t), vol - mean, method, ci))
    return out


def monte_carlo_heat_content_grid(
    alpha: float,
    domain: IntervalDomain,
    time_change: SubordinatorTime | InverseTime | None,
    ts: Sequence[float],
    n_paths: int,
    dt: float | None = None,
    n_steps: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> list[HeatContentValue]:
    """Monte Carlo Q(t) on a nondecreasing grid with common random numbers,
    one value per t.

    Q(t) is |Omega| minus the mean per-path deficit, and the error is the
    95% CI half width of that mean; the walk's step bias is documented,
    not signaled.  Starting points are uniform on the domain; the time
    budget is D_t or E_t per the time change, and t for
    ``time_change=None``, which means ``InverseTime(DriftExponent())``.
    With a fixed ``dt`` budgets are resolved to the fixed-dt grid
    (one-step quantization is part of the documented discretization bias,
    which tests calibrate by step-halving), and the deficit is
    |Omega| * 1{exit step <= budget} ("monte_carlo").  With ``dt=None``
    each path takes n_steps steps of size h(t)/n_steps, and one unit walk
    per path serves every row: where the time change draws h(t) exactly
    (every ``SubordinatorTime``; ``InverseTime`` of the stable family and
    the drift, so also ``None``) the start point integrates out into the
    deficit min(L, (h(t)/n_steps)^(1/alpha) R), R the unit walk's range
    ("monte_carlo_range"); the inverse tempered and sum-of-stables clocks
    keep the deficit L * 1{D_{u*} <= t}, u* = n_steps (Y / R)^alpha with Y
    uniform on (0, L] ("monte_carlo").  All grid points share paths,
    starting points, and time-change randomness, so the estimates are
    exactly monotone nonincreasing in t (up to the fixed-dt budget
    quantization, shared across the grid).  One t is the one-point grid.
    """
    time_change = _time_change(time_change, InverseTime(DriftExponent()))
    ts = list(ts)
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t grid must be nondecreasing")
    _validate_mc_args(ts, n_paths, dt, n_steps)
    sums = _run_replicas(alpha, domain, time_change, ts, n_paths, dt, n_steps, seed, workers)
    # x0 integrates out in adaptive mode wherever h(t) is drawn exactly
    range_route = dt is None and time_change.draws_horizons
    method = "monte_carlo_range" if range_route else "monte_carlo"
    return _values(domain, ts, sums, n_paths, method)
