"""The three spectral heat contents: plain, subordinate, and
inverse-time-changed, each by one eigen series whose weights are
computed a block of eigenvalues at a time (closed forms for the first
two, Talbot inversion of the double Laplace transform for the third),
plus a Monte Carlo evaluator driven by exit-time simulation.

Series evaluators refuse small t when the truncation budget cannot
certify the requested tolerance; Monte Carlo is the intended tool in
that regime.  Each time change samples its own budgets.  With a fixed
dt they are whole steps, from ``step_budgets``: ``InverseTime`` takes
the exponent's ``inverse_steps``, #{k >= 1 : D_{k dt} <= t}, which is
floor(E_t / dt) exactly; ``SubordinatorTime`` floors D_t, and with no
time change t itself is floored.  Adaptive mode (``dt=None``) needs the
continuous budget from ``horizons``: D_t, or E_t by the exponent's
``inverse_times``, which without an exact sampler is the first passage
on the grid ``delta_u`` from the same grid count as ``inverse_steps``.
The Monte Carlo engine splits paths into fixed-size
replicas with derived seeds, so results are independent of worker
count, and draws its randomness in a fixed per-replica order, so a
common seed yields common random numbers across a whole t-grid (which
makes the estimates exactly monotone in t for the supported time
changes).  With a fixed dt, each path walks only up to its largest
grid budget: the walk's budget-ordered layout (paths sorted by
decreasing budget, step j drawn for the paths whose budget is at least
j) ties a path's variates to the budgets alone, so a path that has
used up its budget draws nothing more.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError
from .seeding import derive_rng
from .spectral import EigenSystem, IntervalDomain, weighted_series
from .stable_motion import walk_exit_steps
from .subordinators import LaplaceExponent, _floor_steps, expected_laplace, sample_increments

__all__ = [
    "HeatContentValue",
    "heat_content",
    "heat_content_subordinate",
    "heat_content_inverse",
    "SubordinatorTime",
    "InverseTime",
    "TimeChange",
    "monte_carlo_heat_content",
    "monte_carlo_heat_content_grid",
]

REPLICA_PATHS = 8192


@dataclass(frozen=True)
class HeatContentValue:
    """One heat-content evaluation: value with its error accounting.

    ``error`` is a certified series tail bound for the series/transform
    methods and a 95% CI half width for Monte Carlo.
    """

    t: float
    value: float
    method: str
    error: float


# ---------------------------------------------------------------------------
# Series / transform evaluators
# ---------------------------------------------------------------------------


def heat_content(eig: EigenSystem, t: float, tol: float = 1e-10) -> HeatContentValue:
    """Q(t) = sum_n exp(-lambda_n t) m_n^2 with a certified tail."""
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    sv = weighted_series(eig, lambda lams: np.exp(-lams * t), tol=tol)
    return HeatContentValue(t=t, value=sv.value, method="series", error=sv.tail_bound)


def heat_content_subordinate(
    eig: EigenSystem, spec: LaplaceExponent, t: float, tol: float = 1e-10
) -> HeatContentValue:
    """Q(t) for the subordinate process: weights exp(-t phi(lambda_n))."""
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    sv = weighted_series(eig, lambda lams: np.exp(-t * spec(lams)), tol=tol)
    return HeatContentValue(t=t, value=sv.value, method="series", error=sv.tail_bound)


def heat_content_inverse(
    eig: EigenSystem,
    spec: LaplaceExponent,
    t: float,
    tol: float = 1e-10,
) -> HeatContentValue:
    """Q(t) for the inverse time change: weights E[exp(-lambda_n E_t)].

    The weights are Laplace functionals of the inverse subordinator,
    computed for a whole block of eigenvalues per call; they are
    nonincreasing in lambda and bounded by 1, so the usual tail
    certificate applies.
    """
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    sv = weighted_series(eig, lambda lams: expected_laplace(spec, lams, t), tol=tol)
    return HeatContentValue(t=t, value=sv.value, method="transform", error=sv.tail_bound)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubordinatorTime:
    """Run the outer motion up to D_t (subordinate heat content)."""

    spec: LaplaceExponent

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

    With a fixed dt the budgets are exact step counts on the walk's own
    grid (:meth:`step_budgets`), so ``delta_u`` applies only in adaptive
    mode: when the exponent has no exact sampler of E_t (the stable
    family and the drift have one), E_t is the first passage
    (k + 1) * delta_u, with k the same grid count taken at step delta_u.
    """

    spec: LaplaceExponent
    delta_u: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.delta_u < math.inf:
            raise ValidationError(f"delta_u must be finite and > 0, got {self.delta_u}")

    def horizons(self, ts: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
        """E_t per (t, path), coupled across the grid by the exponent's sampler."""
        return self.spec.inverse_times(ts, size, rng, self.delta_u)

    def step_budgets(
        self, ts: np.ndarray, dt: float, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """#{k >= 1 : D_{k dt} <= t} = floor(E_t / dt) per (t, path)."""
        return self.spec.inverse_steps(ts, dt, size, rng)


TimeChange = Union[None, SubordinatorTime, InverseTime]


def _horizon_matrix(
    time_change: TimeChange, ts: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Operational-time budgets, shape (len(ts), size), for adaptive mode."""
    if time_change is None:
        return np.repeat(ts[:, None], size, axis=1)
    return time_change.horizons(ts, size, rng)


def _step_matrix(
    time_change: TimeChange, ts: np.ndarray, dt: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Fixed-dt step budgets, int64 of shape (len(ts), size), common randomness.

    Budgets are coupled across the grid (one driving draw or path per
    column), so each path's budget is nondecreasing in t; together with
    the fixed column order of the walk this makes grid estimates monotone.
    """
    if time_change is None:
        return np.repeat(_floor_steps(ts, dt)[:, None], size, axis=1)
    return time_change.step_budgets(ts, dt, size, rng)


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
        # per-path steps: dt_i = horizon_i / n_steps (single-t mode only)
        if len(ts) != 1:
            raise ValidationError("adaptive dt requires a single t")
        h = _horizon_matrix(time_change, ts, size, rng)[0]
        scales = (h / n_steps) ** (1.0 / alpha)
        steps = walk_exit_steps(alpha, a, b, x0, scales, n_steps, rng)
        return np.array([int(np.count_nonzero(steps > n_steps))])
    # each path walks up to its largest grid budget; a survivor's exit
    # step is that budget + 1, so it exceeds every budget of the grid
    ks = _step_matrix(time_change, ts, dt, size, rng)
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


def _validate_mc_args(time_change, t_grid, n_paths, dt, n_steps):
    if time_change is not None and not isinstance(time_change, (SubordinatorTime, InverseTime)):
        raise ValidationError(f"unsupported time change {time_change!r}")
    if n_paths < 1:
        raise ValidationError(f"n_paths must be >= 1, got {n_paths}")
    # NaN fails every comparison, so each check asks for the good case
    bad_t = [t for t in t_grid if not 0.0 <= t < math.inf]
    if bad_t:
        raise ValidationError(f"t must be finite and >= 0, got {bad_t[0]}")
    if dt is None:
        if not n_steps or n_steps < 1:
            raise ValidationError("adaptive mode needs n_steps >= 1")
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


def monte_carlo_heat_content(
    alpha: float,
    domain: IntervalDomain,
    time_change: TimeChange,
    t: float,
    n_paths: int,
    dt: float | None = None,
    n_steps: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> HeatContentValue:
    """Monte Carlo Q(t): average of |Omega| * 1{exit time > budget}.

    Starting points are uniform on the domain; the time budget is t,
    D_t, or E_t per the time change.  With ``dt=None`` the walk uses
    n_steps per path with a per-path step t_budget/n_steps; otherwise
    budgets are resolved to the fixed-dt grid (one-step quantization is
    part of the documented discretization bias, which tests calibrate
    by step-halving).  The 95% CI half width is reported as the error;
    the dt bias is documented, not signaled.
    """
    _validate_mc_args(time_change, [t], n_paths, dt, n_steps)
    counts = _run_replicas(
        alpha, domain, time_change, [t], n_paths, dt, n_steps, seed, workers
    )
    return _mc_values(domain, [t], counts, n_paths)[0]


def monte_carlo_heat_content_grid(
    alpha: float,
    domain: IntervalDomain,
    time_change: TimeChange,
    ts: Sequence[float],
    n_paths: int,
    dt: float,
    seed: int = 0,
    workers: int = 1,
) -> list[HeatContentValue]:
    """Q(t) on a nondecreasing grid with common random numbers.

    All grid points share paths, starting points, and time-change
    randomness, so the estimates are exactly monotone nonincreasing in
    t (up to the fixed-dt budget quantization, shared across the grid).
    """
    ts = list(ts)
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t grid must be nondecreasing")
    _validate_mc_args(time_change, ts, n_paths, dt, None)
    counts = _run_replicas(alpha, domain, time_change, ts, n_paths, dt, None, seed, workers)
    return _mc_values(domain, ts, counts, n_paths)
