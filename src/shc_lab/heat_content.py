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
``time_change=None``, the identity E_t = t, draws none.

One estimator serves every route: path i contributes a deficit d_i(t), a
fraction of L = |Omega| in [0, 1], and Q(t) is L times one minus the mean
deficit, with L times the 95% CI of that mean.  One kernel,
``stable_motion._unit_extremes``, walks the unit partial sums S_j of every
route and reads their max and min at each path's step budget.  The walk
of scale c from x0 stays inside (a, b) through step k exactly when
a - c min_{j<=k} S_j < x0 < b - c max_{j<=k} S_j, so from a uniform x0 it
survives with chance (L - c R)^+ / L, R = max - min the unit walk's
range: x0 integrates out, and no start point is drawn.

- Fixed ``dt``: path i walks its K_i(t) whole steps of size dt within
  h(t) (``_step_budgets``: floored h(t) where the time change draws it,
  else D counted on the dt grid), and d = min(1, dt^(1/alpha) R(t) / L),
  R(t) the range through step K(t) ("monte_carlo_range").
- Adaptive (``dt=None``): path i takes n_steps steps of size
  h_i(t) / n_steps, so one unit walk serves every grid point.  Where the
  time change draws h(t) exactly (every ``SubordinatorTime``, and
  ``InverseTime`` of the stable family and the drift, ``inverse_times``)
  d = min(1, (h(t) / n_steps)^(1/alpha) R / L) ("monte_carlo_range").
  The inverse tempered and sum-of-stables clocks have no exact E_t
  sampler, so they keep the indicator ("monte_carlo"): d = 1{h(t) >= u*},
  u* = n_steps (Y / R)^alpha with Y uniform on (0, L], as P(Y / R > c) is
  that same (L - c R)^+ / L.  The time change answers "E_t < u*?"
  (``budgets_below``) as D_{u*} > t (Meerschaert & Scheffler, J. Appl.
  Probab. 41, 2004), exact for every exponent, with no E_t sampled.  Both
  adaptive routes share the walk's bias at a given n_steps.
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
from .stable_motion import _unit_extremes
from .subordinators import (
    DriftExponent,
    LaplaceExponent,
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
    methods and, for Monte Carlo, L = |Omega| times the 95% CI half width
    of the mean per-path deficit fraction: min(1, c R / L), c the step
    scale and R the unit walk's range, for ``monte_carlo_range`` (fixed
    dt, and adaptive wherever the clock draws h(t) exactly); the loss
    indicator for ``monte_carlo`` (adaptive under the inverse tempered and
    sum-of-stables clocks).  Neither includes the walk's step bias, nor
    the rounding of its float32 sums (alpha in [0.42, 2), see
    ``stable_motion``): each path's range moves by a few float32 ulps
    (1.2e-7 each) of the sum of its steps' sizes, and the shipped
    ``small_time_mc`` rows moved by at most 2.7e-9, under 2e-6 of their
    error, against the float64 walk.  A row where every path is lost (or
    none) has error 0.  For ``transform`` it is the series tail alone:
    the Talbot node gap of each weight (at most 1e-9,
    ``expected_laplace``'s tolerance) is not included.  Nor, on eigen data
    from ``stable_interval_eigensystem``, is the measured gap between its
    N and 2N Galerkin builds, at most (kept modes * L/2 + L) * 1e-12 for
    weights in [0, 1] with |lambda w'| <= 1.
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


@dataclass(frozen=True)
class InverseTime:
    """Run the outer motion up to E_t (inverse-subordinator time change).

    Every route is exact in distribution for every exponent: E_t itself
    where the exponent draws it (``horizons``); else, with a fixed dt, step
    counts of D on the walk's own grid (``LaplaceExponent.inverse_steps``)
    and, in adaptive mode, "E_t < u*?" by D_{u*}, with u* the budget a
    path's unit walk and uniform Y survive (``budgets_below``).
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
    """Sums over one replica's paths of the per-path deficit fractions and
    of their squares, shape (2, len(ts))."""
    (alpha, length, time_change, ts, size, dt, n_steps, seed, replica) = args
    rng = derive_rng(seed, replica)
    ts = np.asarray(ts, float)
    if _takes_range(time_change, dt):
        deficits = _range_deficits(alpha, length, time_change, ts, size, dt, n_steps, rng)
    else:
        deficits = _indicator_deficits(alpha, length, time_change, ts, size, n_steps, rng)
    return np.stack([deficits.sum(axis=1), np.square(deficits).sum(axis=1)])


def _floor_steps(times: np.ndarray, dt: float) -> np.ndarray:
    """Whole steps of size dt within each time, as int64; the 1e-9 keeps a
    time that is an exact multiple of dt from losing a step to round-off."""
    return np.floor(times / dt + 1e-9).astype(np.int64)


def _step_budgets(time_change, ts, dt, size, rng) -> np.ndarray:
    """Whole steps of size dt within h(t) per (t, path), int64 and
    nondecreasing in t: the floored h(t) where the time change draws it,
    else #{k >= 1 : D_{k dt} <= t} = floor(E_t / dt), D on the dt grid."""
    if time_change.draws_horizons:
        return _floor_steps(time_change.horizons(ts, size, rng), dt)
    return time_change.spec.inverse_steps(ts, dt, size, rng)


def _indicator_deficits(alpha, length, time_change, ts, size, n_steps, rng) -> np.ndarray:
    """1{E_t >= u*} per (t, path), u* = n_steps (Y / R)^alpha with R the
    range of the path's unit walk and Y uniform on (0, L]: the scale Y / R,
    below which the walk survives, has the law of the critical scale of a
    uniform start point, P(Y / R > c) = (L - c R)^+ / L."""
    top, bottom = _unit_extremes(alpha, np.full((1, size), n_steps), math.inf, rng)
    # Y > 0, so E_0 = 0 < u* and t = 0 loses nothing
    y = (1.0 - rng.random(size)) * length
    # R = 0 gives u* = inf, R = inf gives u* = 0, and a u* past the float
    # range is inf, which survives every t
    with np.errstate(divide="ignore", over="ignore"):
        u_star = n_steps * (y / (top[0] - bottom[0])) ** alpha
    return np.where(time_change.budgets_below(ts, u_star, rng), 0.0, 1.0)


def _takes_range(time_change, dt) -> bool:
    """Whether the deficit scales the walk's range: everywhere but the
    adaptive route of a clock with no exact h(t) sampler."""
    return dt is not None or time_change.draws_horizons


def _range_deficits(alpha, length, time_change, ts, size, dt, n_steps, rng) -> np.ndarray:
    """min(1, c R / L) per (t, path), R the range of the path's unit walk at
    scale c, nondecreasing in t: with a fixed dt, c = dt^(1/alpha) and R is
    read at the path's whole steps within h(t), and the walk stops once
    every range reaches L / c; adaptive, R is read after n_steps steps and
    c = (h(t) / n_steps)^(1/alpha).  Past the float range a range, scale or
    product is inf, which caps at 1; a zero scale (h = 0, as at t = 0) or
    range leaves 0 even against an infinite other factor."""
    if dt is not None:
        scale = dt ** (1.0 / alpha)
        budgets = _step_budgets(time_change, ts, dt, size, rng)
        top, bottom = _unit_extremes(alpha, budgets, length / scale, rng)
    else:
        top, bottom = _unit_extremes(alpha, np.full((1, size), n_steps), math.inf, rng)
        h = time_change.horizons(ts, size, rng)
        with np.errstate(over="ignore"):
            scale = (h / n_steps) ** (1.0 / alpha)
    with np.errstate(over="ignore"):
        scale, span = np.broadcast_arrays(scale, top - bottom)
        out = np.multiply(
            scale, span, out=np.zeros(scale.shape), where=(scale > 0.0) & (span > 0.0)
        )
        out /= length
    return np.minimum(out, 1.0, out=out)


def _run_replicas(alpha, domain, time_change, ts, n_paths, dt, n_steps, seed, workers):
    sizes = _replica_sizes(n_paths)
    tasks = [
        (alpha, domain.volume, time_change, tuple(ts), m, dt, n_steps, seed, r)
        for r, m in enumerate(sizes)
    ]
    if workers > 1 and len(tasks) > 1:
        # a fork pool starts all of its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
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
    elif n_steps is not None:
        raise ValidationError(f"give dt or n_steps, not both: dt={dt}, n_steps={n_steps}")
    elif not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be finite and > 0, got {dt}")


def _values(domain, ts, sums, n_paths, method) -> list[HeatContentValue]:
    """|Omega| times one minus the mean deficit fraction at each t, with
    |Omega| times the 95% CI of that mean.  Fractions of 0 and 1 sum
    exactly, so a row where every path is lost reads 0 +- 0."""
    vol = domain.volume
    out = []
    for t, total, squares in zip(ts, *sums):
        # deficits lie in [0, 1], but a rounded sum of n of them can put
        # their mean above 1, which would make Q negative
        mean = min(float(total) / n_paths, 1.0)
        ci = 1.96 * math.sqrt(max(float(squares) / n_paths - mean * mean, 0.0) / n_paths)
        out.append(HeatContentValue(float(t), vol * (1.0 - mean), method, vol * ci))
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
    one value per t: |Omega| times one minus the mean per-path deficit
    fraction, with |Omega| times the 95% CI half width of that mean as the
    error; the walk's step bias is documented, not signaled.

    The time budget h(t) is D_t or E_t per the time change, and t for
    ``time_change=None``, which means ``InverseTime(DriftExponent())``.
    Give ``dt`` (each path walks its whole steps of size dt within h(t);
    the one-step quantization is part of the documented bias, which tests
    calibrate by step-halving) or ``n_steps`` (each path takes n_steps
    steps of size h(t)/n_steps), not both.  Start points are uniform on
    the domain and integrate out through each walk's range; the module
    docstring gives each route's deficit and label.  All grid points share
    paths and time-change randomness, so the estimates are exactly
    monotone nonincreasing in t.  One t is the one-point grid.
    """
    time_change = _time_change(time_change, InverseTime(DriftExponent()))
    ts = list(ts)
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t grid must be nondecreasing")
    _validate_mc_args(ts, n_paths, dt, n_steps)
    _check_integer("workers", workers, 1)
    sums = _run_replicas(alpha, domain, time_change, ts, n_paths, dt, n_steps, seed, workers)
    method = "monte_carlo_range" if _takes_range(time_change, dt) else "monte_carlo"
    return _values(domain, ts, sums, n_paths, method)
