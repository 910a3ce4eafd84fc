"""The three spectral heat contents: plain, subordinate, and
inverse-time-changed, each by one eigen series whose weights are
computed a block of eigenvalues at a time (closed forms for the first
two, Talbot inversion of the double Laplace transform for the third),
plus a Monte Carlo evaluator driven by exit-time simulation.

Series evaluators refuse small t when the truncation budget cannot
certify the requested tolerance; Monte Carlo is the intended tool in
that regime.  The Monte Carlo engine splits paths into fixed-size
replicas with derived seeds, so results are independent of worker
count, and draws its randomness in a fixed per-replica order, so a
common seed yields common random numbers across a whole t-grid (which
makes the estimates exactly monotone in t for the supported time
changes).
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
from .subordinators import LaplaceExponent, expected_laplace, sample_increments
from .subordinators import sample_positive_stable  # noqa: F401 (bench/tracing.py wraps it)

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
    inversion_tol: float = 1e-9,
) -> HeatContentValue:
    """Q(t) for the inverse time change: weights E[exp(-lambda_n E_t)].

    The weights are Laplace functionals of the inverse subordinator,
    computed for a whole block of eigenvalues per call; they are
    nonincreasing in lambda and bounded by 1, so the usual tail
    certificate applies.
    """
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    sv = weighted_series(
        eig, lambda lams: expected_laplace(spec, lams, t, tol=inversion_tol), tol=tol
    )
    return HeatContentValue(t=t, value=sv.value, method="transform", error=sv.tail_bound)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubordinatorTime:
    """Run the outer motion up to D_t (subordinate heat content)."""

    spec: LaplaceExponent


@dataclass(frozen=True)
class InverseTime:
    """Run the outer motion up to E_t (inverse-subordinator time change).

    ``delta_u`` is the first-passage grid used when the exponent has no
    exact sampler of E_t; the stable family and the drift have one.
    """

    spec: LaplaceExponent
    delta_u: float = 1e-4


TimeChange = Union[None, SubordinatorTime, InverseTime]


def _horizon_matrix(
    time_change: TimeChange, ts: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Operational-time budgets, shape (len(ts), size), common randomness.

    Budgets are coupled across the grid (one driving draw per path), so
    each path's budget is nondecreasing in t; together with the fixed
    column order of the walk this makes grid estimates monotone.
    """
    ts = np.asarray(ts, dtype=float)
    if time_change is None:
        return np.repeat(ts[:, None], size, axis=1)
    if isinstance(time_change, InverseTime):
        return time_change.spec.inverse_times(ts, size, rng, time_change.delta_u)
    if isinstance(time_change, SubordinatorTime):
        # independent increments over grid gaps keep D_t coupled and monotone
        out = np.zeros((ts.size, size))
        prev_t = 0.0
        acc = np.zeros(size)
        for i, t in enumerate(ts):
            gap = float(t - prev_t)
            if gap < 0.0:
                raise ValidationError("t grid must be nondecreasing")
            if gap > 0.0:
                acc = acc + sample_increments(time_change.spec, gap, size, rng)
            out[i] = acc
            prev_t = float(t)
        return out
    raise ValidationError(f"unsupported time change {time_change!r}")


def _replica_sizes(n_paths: int) -> list[int]:
    full, rem = divmod(n_paths, REPLICA_PATHS)
    return [REPLICA_PATHS] * full + ([rem] if rem else [])


def _replica_task(args) -> np.ndarray:
    """Survivor counts for one replica, shape (len(ts),)."""
    (alpha, a, b, time_change, ts, size, dt, n_steps, seed, replica) = args
    rng = derive_rng(seed, replica)
    x0 = rng.uniform(a, b, size)
    horizons = _horizon_matrix(time_change, np.asarray(ts, float), size, rng)
    max_h = float(horizons.max())
    if dt is None:
        # per-path steps: dt_i = horizon_i / n_steps (single-t mode only)
        if len(ts) != 1:
            raise ValidationError("adaptive dt requires a single t")
        h = horizons[0]
        scales = (h / n_steps) ** (1.0 / alpha)
        steps = walk_exit_steps(alpha, a, b, x0, scales, n_steps, rng)
        return np.array([int(np.count_nonzero(steps > n_steps))])
    n_cols = int(math.floor(max_h / dt + 1e-9))
    ks = np.minimum(np.floor(horizons / dt + 1e-9), n_cols).astype(np.int64)
    if n_cols == 0:
        return np.full(len(ts), size)
    steps = walk_exit_steps(
        alpha, a, b, x0, np.float64(dt ** (1.0 / alpha)), n_cols, rng
    )
    return np.array([int(np.count_nonzero(steps > ks[i])) for i in range(len(ts))])


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


def _validate_mc_args(domain, t_grid, n_paths, dt, n_steps):
    if n_paths < 1:
        raise ValidationError(f"n_paths must be >= 1, got {n_paths}")
    if any(t < 0.0 for t in t_grid):
        raise ValidationError("t must be >= 0")
    if dt is None:
        if not n_steps or n_steps < 1:
            raise ValidationError("adaptive mode needs n_steps >= 1")
    elif dt <= 0.0:
        raise ValidationError(f"dt must be > 0, got {dt}")


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
    _validate_mc_args(domain, [t], n_paths, dt, n_steps)
    counts = _run_replicas(
        alpha, domain, time_change, [t], n_paths, dt, n_steps, seed, workers
    )
    p = counts[0] / n_paths
    vol = domain.volume
    ci = 1.96 * vol * math.sqrt(max(p * (1.0 - p), 0.0) / n_paths)
    return HeatContentValue(t=t, value=vol * p, method="monte_carlo", error=ci)


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
    _validate_mc_args(domain, ts, n_paths, dt, None)
    counts = _run_replicas(alpha, domain, time_change, ts, n_paths, dt, None, seed, workers)
    vol = domain.volume
    out = []
    for t, c in zip(ts, counts):
        p = c / n_paths
        ci = 1.96 * vol * math.sqrt(max(p * (1.0 - p), 0.0) / n_paths)
        out.append(HeatContentValue(t=float(t), value=vol * p, method="monte_carlo", error=ci))
    return out
