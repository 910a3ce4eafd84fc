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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .seeding import derive_rng

__all__ = [
    "sample_symmetric_stable",
    "walk_exit_steps",
    "SupEstimate",
    "estimate_sup_mean",
]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"stability index must be in (0, 2], got {alpha}")


def sample_symmetric_stable(rng: np.random.Generator, alpha: float, size) -> np.ndarray:
    """Standard symmetric alpha-stable variates, cf exp(-|xi|^alpha).

    Chambers-Mallows-Stuck with U ~ Uniform(-pi/2, pi/2), W ~ Exp(1);
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
    t1 = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    t2 = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return t1 * t2


def walk_exit_steps(
    alpha: float,
    a: float,
    b: float,
    x0: np.ndarray,
    scales: np.ndarray,
    n_steps: int | np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized Euler walk; returns the 1-based step index of first exit.

    ``scales`` is the per-path increment scale dt_i^(1/alpha) and
    ``n_steps`` the per-path step budget (a scalar of either broadcasts).
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
    if not np.issubdtype(budgets.dtype, np.integer) or np.any(budgets < 0):
        raise ValidationError(f"step budgets must be integers >= 0, got {n_steps!r}")
    budgets = np.broadcast_to(budgets.astype(np.int64), (n,))
    order = np.argsort(-budgets, kind="stable")
    sorted_budgets = budgets[order]
    x = np.asarray(x0, dtype=float)[order]
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (n,))[order]
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
        inc = scales[:m] * z
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


# paths per block of estimate_sup_mean: bounds its memory at n_steps * 4096
_SUP_CHUNK = 4096


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
    rng = derive_rng(seed)
    scale = (1.0 / n_steps) ** (1.0 / alpha)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_paths:
        m = min(_SUP_CHUNK, n_paths - done)
        z = sample_symmetric_stable(rng, alpha, (n_steps, m))
        sup = np.maximum(np.cumsum(z, axis=0).max(axis=0), 0.0) * scale
        total += float(sup.sum())
        total_sq += float((sup * sup).sum())
        done += m
    mean = total / n_paths
    var = max(total_sq / n_paths - mean * mean, 0.0)
    return SupEstimate(
        value=mean,
        ci_halfwidth=1.96 * math.sqrt(var / n_paths),
        n_paths=n_paths,
        n_steps=n_steps,
    )
