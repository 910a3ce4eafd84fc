"""One-dimensional symmetric alpha-stable motion: increments, interval
exits, and the mean running supremum.

Conventions: the process has characteristic function
E[exp(i xi Y_t)] = exp(-t |xi|^alpha); at alpha = 2 this is a Brownian
motion whose increment over dt has variance 2 dt.

The exit-time scheme is a fixed-step Euler walk on exact increments.
For alpha = 2 it misses intra-step boundary crossings and so
overestimates exit times; for alpha < 2 jump exits dominate and the
bias is milder.  No exact-crossing correction is applied; tests carry
a bias band calibrated by step-halving instead.

Scale freedom: a walk of n steps of size dt has positions
x0 + dt^(1/alpha) S_j, with S_j the partial sums of standard variates,
so one unit walk answers every step size at once.  One kernel walks the
unit partial sums and keeps their running max and min:
:func:`critical_scales` turns them into the scale below which each
path stays inside, and :func:`estimate_sup_mean` scales the max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .seeding import derive_rng
from .special import _blockwise, _half_angle_sine

__all__ = [
    "sample_symmetric_stable",
    "walk_exit_steps",
    "critical_scales",
    "SupEstimate",
    "estimate_sup_mean",
]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"stability index must be in (0, 2], got {alpha}")


def sample_symmetric_stable(rng: np.random.Generator, alpha: float, size) -> np.ndarray:
    """Standard symmetric alpha-stable variates, cf exp(-|xi|^alpha).

    Chambers-Mallows-Stuck with U ~ Uniform(-pi/2, pi/2), W ~ Exp(1):

        X = sin(alpha U) / cos(U)^(1/alpha) * (cos((1-alpha) U) / W)^((1-alpha)/alpha),

    evaluated from tangents alone, over blocks of
    ``special._VARIATE_BLOCK`` variates (all U are drawn first, then all
    W): sin(alpha U) by its half-angle tangent, and each cosine, whose
    angle lies in (-pi/2, pi/2), as (1 + tan^2)^(-1/2), so that
    cos(U)^(-1/alpha) = (1 + tan^2 U)^(1/(2 alpha)) is one power.
    alpha = 1 reduces to tan(U) (standard Cauchy) and alpha = 2 to a
    centered normal with variance 2.
    """
    _check_alpha(alpha)
    if alpha == 2.0:
        return math.sqrt(2.0) * rng.standard_normal(size)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    if alpha == 1.0:
        return np.tan(u)
    w = rng.exponential(1.0, size)
    rest = 1.0 - alpha

    def cms(u, w):
        tan_u = np.tan(u)
        tan_rest = np.tan(rest * u)
        return (
            _half_angle_sine(np.tan(0.5 * alpha * u))
            * (1.0 + tan_u * tan_u) ** (0.5 / alpha)
            * (np.sqrt(1.0 + tan_rest * tan_rest) * w) ** (-rest / alpha)
        )

    return _blockwise(cms, u, w)[()]


def walk_exit_steps(
    alpha: float,
    a: float,
    b: float,
    x0: np.ndarray,
    scale: float,
    n_steps: int | np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized Euler walk; returns the 1-based step index of first exit.

    ``scale`` is the increment scale dt^(1/alpha), shared by all paths,
    and ``n_steps`` the per-path step budget (a scalar broadcasts).
    A path that does not leave (a, b) within its budget gets the
    sentinel budget + 1, so a budget of 0 never moves.  A jump landing
    outside [a, b] counts as an exit (zero exterior condition).

    Budget-ordered layout: paths are stably sorted by decreasing budget,
    and step j draws one standard-stable variate for each path in the
    prefix whose budget is at least j, whether that path is still inside
    or not.  Which variates a path sees therefore depends only on the
    budgets, never on other paths' exits: two walks with the same
    budgets and one rng stream see common random numbers, and a scalar
    budget draws one full column per step.  The walk stops at the first
    step whose prefix holds no path still inside, since the remaining
    exit steps are then settled.
    """
    n = x0.shape[0]
    budgets = np.asarray(n_steps)
    integral = np.issubdtype(budgets.dtype, np.integer)
    if not integral or np.any(budgets < 0):
        # a summary, not the array: budgets come one per path
        n_bad = int(np.count_nonzero(budgets < 0)) if integral else budgets.size
        low = budgets.min() if budgets.size else None
        raise ValidationError(
            f"step budgets must be integers >= 0, got dtype {budgets.dtype} with "
            f"{n_bad} bad of {budgets.size} entries, minimum {low}"
        )
    budgets = np.broadcast_to(budgets.astype(np.int64), (n,))
    order = np.argsort(-budgets, kind="stable")
    sorted_budgets = budgets[order]
    x = np.asarray(x0, dtype=float)[order]
    exit_sorted = sorted_budgets + 1
    alive = np.ones(n, dtype=bool)
    # budgets can be huge (heavy-tailed time changes), so the prefix length
    # m = #{budget >= j} is advanced step by step, never tabulated
    budget_list = sorted_budgets.tolist()
    n_max = budget_list[0] if n else 0
    m = n
    for j in range(1, n_max + 1):
        while budget_list[m - 1] < j:
            m -= 1
        live = alive[:m]
        if not live.any():
            break
        z = sample_symmetric_stable(rng, alpha, m)
        inc = scale * z
        xm = x[:m]
        # a path that has left stays put; adding 0.0 is cheaper than a
        # masked update and leaves every live position bit-identical
        xm += np.where(live, inc, 0.0)
        out = live & ~((xm > a) & (xm < b))
        exit_sorted[:m][out] = j
        live &= ~out
    exit_step = np.empty(n, dtype=np.int64)
    exit_step[order] = exit_sorted
    return exit_step


# variates per block of the unit walk: bounds its memory whatever n_steps is
_UNIT_BLOCK = 1 << 17


def _unit_extremes(
    alpha: float, n_paths: int, n_steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of S_0 = 0, S_1, ..., S_n_steps per path, S_j the partial
    sums of standard symmetric alpha-stable variates.  Whole steps are drawn
    in blocks of at most ``_UNIT_BLOCK`` variates (at least one step),
    carrying the running sum, max and min, so memory does not grow with
    n_steps."""
    total = np.zeros(n_paths)
    top = np.zeros(n_paths)
    bottom = np.zeros(n_paths)
    rows = max(1, _UNIT_BLOCK // max(n_paths, 1))
    done = 0
    while done < n_steps:
        k = min(rows, n_steps - done)
        sums = np.cumsum(sample_symmetric_stable(rng, alpha, (k, n_paths)), axis=0)
        sums += total
        np.maximum(top, sums.max(axis=0), out=top)
        np.minimum(bottom, sums.min(axis=0), out=bottom)
        total = sums[-1]
        done += k
    return top, bottom


def critical_scales(
    alpha: float,
    a: float,
    b: float,
    x0: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per path, the scale c* below which an n_steps walk stays in (a, b).

    Each path walks the unit partial sums S_j = z_1 + ... + z_j, j <=
    n_steps, of standard symmetric alpha-stable variates; the walk with
    step scale c has positions x0 + c S_j, so it stays inside (a, b)
    through step n_steps exactly when c < c*, with

        c* = min((b - x0) / max_j S_j, (x0 - a) / (-min_j S_j)),

    a side whose extreme has the wrong sign giving +inf.  ``x0`` must
    lie in (a, b).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    top, bottom = _unit_extremes(alpha, n, n_steps, rng)
    # masked divisions: an extreme of the wrong sign never binds
    upper = np.full(n, np.inf)
    np.divide(b - x0, top, out=upper, where=top > 0.0)
    lower = np.full(n, np.inf)
    np.divide(x0 - a, -bottom, out=lower, where=bottom < 0.0)
    return np.minimum(upper, lower)


@dataclass(frozen=True)
class SupEstimate:
    """Monte Carlo estimate of E[sup_{s<=1} Y_s] with its 95% CI half width.

    The grid maximum underestimates the true supremum; the bias is
    monotone downward in the step count and is reported separately by
    step-doubling in the tests, not folded into the CI.
    """

    value: float
    ci_halfwidth: float
    n_paths: int
    n_steps: int


def estimate_sup_mean(
    alpha: float,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> SupEstimate:
    """Estimate E[sup_{s<=1} Y_s] on an n_steps grid over [0, 1].

    Meaningful for alpha in (1, 2) where the supremum has finite mean;
    alpha = 2 is allowed as a calibration diagnostic against the
    reflection principle E|N(0, 2)| = 2/sqrt(pi).
    """
    _check_alpha(alpha)
    if alpha <= 1.0:
        raise ValidationError("running supremum has infinite mean for alpha <= 1")
    if n_paths < 2 or n_steps < 1:
        raise ValidationError("need n_paths >= 2 and n_steps >= 1")
    top, _ = _unit_extremes(alpha, n_paths, n_steps, derive_rng(seed))
    sup = top * (1.0 / n_steps) ** (1.0 / alpha)
    ci = 1.96 * math.sqrt(sup.var() / n_paths)
    return SupEstimate(float(sup.mean()), ci, n_paths, n_steps)
