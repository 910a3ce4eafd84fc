"""The spectral heat content Q(t) under a time change: ``SubordinatorTime``
runs the motion up to D_t, ``InverseTime`` up to E_t.  ``heat_content`` is
one eigen series whose weights the time change supplies a block of
eigenvalues at a time (closed form under D_t, Talbot inversion of the
double Laplace transform under E_t); Monte Carlo simulates exit times.

The series refuses small t when the truncation budget cannot certify the
requested tolerance; Monte Carlo is the tool there.  It splits paths into
fixed-size replicas with derived seeds, so results do not depend on the
worker count, and draws in a fixed per-replica order, so a common seed
gives common random numbers across a t-grid (and estimates exactly
monotone in t).  Each time change draws its own randomness;
``time_change=None``, the identity E_t = t, draws none.  With a fixed dt
its budgets are whole steps (``step_budgets``), and each path walks only
up to its largest grid budget: the walk's budget-ordered layout ties a
path's variates to the budgets alone.  In adaptive mode (``dt=None``)
path i takes n_steps steps of size h_i(t) / n_steps, its unit walk scaled
by (h_i(t) / n_steps)^(1/alpha), which stays inside exactly when
h_i(t) < u*_i = n_steps c*_i^alpha (``stable_motion.critical_scales``).
So one unit walk per path serves every grid point, and each time change
answers "h(t) < u*?" (``budgets_below``); for ``InverseTime`` that is
D_{u*} > t (Meerschaert & Scheffler, J. Appl. Probab. 41, 2004), exact
for every exponent, with no E_t sampled.
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
from .stable_motion import critical_scales, walk_exit_steps
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
    methods and a 95% CI half width for Monte Carlo.  For ``transform``
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

    def budgets_below(self, ts: np.ndarray, u_star: np.ndarray, rng) -> np.ndarray:
        """D_t < u* per (t, path), for adaptive mode."""
        return self.horizons(ts, u_star.size, rng) < u_star


@dataclass(frozen=True)
class InverseTime:
    """Run the outer motion up to E_t (inverse-subordinator time change).

    Both modes are exact in distribution for every exponent: fixed-dt
    step counts on the walk's own grid, and adaptive "E_t < u*?" by D_{u*}.
    """

    spec: LaplaceExponent
    series_method = "transform"

    def series_weights(self, lams: np.ndarray, t: float) -> np.ndarray:
        """E[exp(-lambda E_t)] per eigenvalue: nonincreasing and in [0, 1]."""
        return expected_laplace(self.spec, lams, t)

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
    """Survivor counts for one replica, shape (len(ts),)."""
    (alpha, a, b, time_change, ts, size, dt, n_steps, seed, replica) = args
    rng = derive_rng(seed, replica)
    x0 = rng.uniform(a, b, size)
    ts = np.asarray(ts, float)
    if dt is None:
        # path i survives t exactly when h_i(t) < u*_i; a c* too large to
        # raise to alpha survives every t, so inf is the right u* for it
        c_star = critical_scales(alpha, a, b, x0, n_steps, rng)
        with np.errstate(over="ignore"):
            u_star = n_steps * c_star ** alpha
        return np.count_nonzero(time_change.budgets_below(ts, u_star, rng), axis=1)
    # budgets are coupled across the grid, so each path's budget is
    # nondecreasing in t; each path walks up to its largest grid budget,
    # and a survivor's exit step is that budget + 1, so it exceeds every
    # budget of the grid
    ks = time_change.step_budgets(ts, dt, size, rng)
    steps = walk_exit_steps(
        alpha, a, b, x0, np.float64(dt ** (1.0 / alpha)), ks.max(axis=0), rng
    )
    return np.count_nonzero(steps > ks, axis=1)


def _run_replicas(alpha, domain, time_change, ts, n_paths, dt, n_steps, seed, workers):
    sizes = _replica_sizes(n_paths)
    tasks = [
        (alpha, domain.a, domain.b, time_change, tuple(ts), m, dt, n_steps, seed, r)
        for r, m in enumerate(sizes)
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_replica_task, tasks))
    else:
        counts = [_replica_task(t) for t in tasks]
    return np.sum(counts, axis=0)


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


def _mc_values(domain, ts, counts, n_paths) -> list[HeatContentValue]:
    """|Omega| times the survivor fraction at each t, with its 95% CI."""
    vol = domain.volume
    out = []
    for t, c in zip(ts, counts):
        p = c / n_paths
        ci = 1.96 * vol * math.sqrt(max(p * (1.0 - p), 0.0) / n_paths)
        out.append(HeatContentValue(t=float(t), value=vol * p, method="monte_carlo", error=ci))
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
    """Monte Carlo Q(t) on a nondecreasing grid with common random numbers:
    the average of |Omega| * 1{exit time > budget}, one value per t.

    Starting points are uniform on the domain; the time budget is D_t or
    E_t per the time change, and t for ``time_change=None``, which means
    ``InverseTime(DriftExponent())``.  With ``dt=None`` the walk uses
    n_steps per path with a per-path step t_budget/n_steps, and one unit
    walk per path serves every row; otherwise budgets are resolved to the
    fixed-dt grid (one-step quantization is part of the documented
    discretization bias, which tests calibrate by step-halving).  The 95%
    CI half width is reported as the error; the dt bias is documented, not
    signaled.  All grid points share paths, starting points, and
    time-change randomness, so the estimates are exactly monotone
    nonincreasing in t (up to the fixed-dt budget quantization, shared
    across the grid).  One t is the one-point grid.
    """
    time_change = _time_change(time_change, InverseTime(DriftExponent()))
    ts = list(ts)
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t grid must be nondecreasing")
    _validate_mc_args(ts, n_paths, dt, n_steps)
    counts = _run_replicas(alpha, domain, time_change, ts, n_paths, dt, n_steps, seed, workers)
    return _mc_values(domain, ts, counts, n_paths)
