"""One-dimensional symmetric alpha-stable motion: increments, interval
exits, and the extremes of the unit walk.

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
unit partial sums and keeps their running max and min: the walk of scale
c from x0 stays inside (a, b) exactly when x0 + c max_j S_j < b and
x0 + c min_j S_j > a, so for a uniform x0 only the range
R = max_j S_j - min_j S_j matters, which the heat-content Monte Carlo
uses.  The mean of the continuum supremum needs no walk:
it is ``asymptotics.expected_supremum``, from Spitzer's identity.

Memory: both walks draw into buffers allocated once per call and reused
(``sample_symmetric_stable(..., out=)``): the exit walk one vector for
every step, the unit walk one block of steps, whose partial sums it forms
in place.  The sampler itself evaluates its formula in place, in scratch
vectors of ``special._VARIATE_BLOCK`` entries, so a walk allocates nothing
per step or block and the variates are bit for bit those of the allocating
whole-array formulas.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .special import _blocks, _half_angle_sine

__all__ = [
    "sample_symmetric_stable",
    "walk_exit_steps",
]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"stability index must be in (0, 2], got {alpha}")


def sample_symmetric_stable(
    rng: np.random.Generator, alpha: float, size=None, out: np.ndarray | None = None
) -> np.ndarray:
    """Standard symmetric alpha-stable variates, cf exp(-|xi|^alpha).

    Chambers-Mallows-Stuck with U ~ Uniform(-pi/2, pi/2), W ~ Exp(1):

        X = sin(alpha U) / cos(U)^(1/alpha) * (cos((1-alpha) U) / W)^((1-alpha)/alpha),

    evaluated by :func:`_cms` from tangents alone.  All U are drawn first,
    U = pi R - pi/2 from R = ``rng.random()``, into the result; then, over
    blocks of ``special._VARIATE_BLOCK`` variates, each block's W is drawn
    into a scratch vector and the block is evaluated in place.  The draws
    are those of ``rng.uniform(-pi/2, pi/2, size)`` followed by
    ``rng.exponential(1.0, size)``, bit for bit.  alpha = 1 reduces to
    tan(U) (standard Cauchy) and alpha = 2 to a centered normal with
    variance 2.

    ``out``, a C-contiguous float64 array (of shape ``size`` when both are
    given), receives the variates and is returned, so that a caller
    drawing repeatedly reuses one buffer; without it a new array (a scalar
    for ``size=None``) is returned.
    """
    _check_alpha(alpha)
    if out is None:
        x = np.empty(() if size is None else size)
    elif out.dtype == np.float64 and out.flags.c_contiguous:
        x = out
    else:
        raise ValidationError(
            f"out must be a C-contiguous float64 array, got {out.dtype}"
            f" (C-contiguous: {out.flags.c_contiguous})"
        )
    if alpha == 2.0:
        rng.standard_normal(size, out=x)
        x *= math.sqrt(2.0)
    else:
        rng.random(size, out=x)
        x *= math.pi
        x += -math.pi / 2.0
        if alpha == 1.0:
            np.tan(x, out=x)
        else:
            flat = x.reshape(-1)
            for block, (w, a, b) in _blocks(flat.size, 3):
                rng.standard_exponential(out=w)
                _cms(flat[block], w, a, b, alpha)
    return x if out is not None else x[()]


def _cms(x: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray, alpha: float) -> None:
    """The Chambers-Mallows-Stuck formula in place, for alpha not 1 or 2:
    ``x`` holds U on entry and X on return, ``w`` holds W; ``w``, ``a`` and
    ``b`` (of x's shape) are overwritten.  sin(alpha U) comes from its
    half-angle tangent, and each cosine, whose angle lies in (-pi/2, pi/2),
    as (1 + tan^2)^(-1/2), so that cos(U)^(-1/alpha) = (1 + tan^2
    U)^(1/(2 alpha)) is one power."""
    rest = 1.0 - alpha
    # (sqrt(1 + tan^2((1 - alpha) U)) W)^(-(1 - alpha)/alpha)
    np.multiply(x, rest, out=a)
    np.tan(a, out=a)
    a *= a
    a += 1.0
    np.sqrt(a, out=a)
    a *= w
    a **= -rest / alpha
    # cos(U)^(-1/alpha)
    np.tan(x, out=w)
    w *= w
    w += 1.0
    w **= 0.5 / alpha
    # sin(alpha U), then the product
    np.multiply(x, 0.5 * alpha, out=b)
    np.tan(b, out=b)
    _half_angle_sine(b, x)
    b *= w
    np.multiply(b, a, out=x)


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
    step = np.empty(n)  # one buffer for every step's draws
    for j in range(1, n_max + 1):
        while budget_list[m - 1] < j:
            m -= 1
        live = alive[:m]
        if not live.any():
            break
        inc = sample_symmetric_stable(rng, alpha, m, out=step[:m])
        inc *= scale
        # a path that has left stays put: its increment times False is 0.0
        # (NaN for an infinite one, and its position is never read again),
        # cheaper than a masked update, and every live increment keeps its bits
        inc *= live
        xm = x[:m]
        xm += inc
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
    in blocks of at most ``_UNIT_BLOCK`` variates (at least one step) into
    one buffer reused by every block, carrying the running sum, max and
    min, so memory does not grow with n_steps and no block allocates."""
    total = np.zeros(n_paths)
    top = np.zeros(n_paths)
    bottom = np.zeros(n_paths)
    extreme = np.empty(n_paths)
    rows = max(1, _UNIT_BLOCK // max(n_paths, 1))
    block = np.empty((min(rows, n_steps), n_paths))  # reused by every block
    done = 0
    while done < n_steps:
        k = min(rows, n_steps - done)
        sums = sample_symmetric_stable(rng, alpha, (k, n_paths), out=block[:k])
        # in place, row by row: the partial sums np.cumsum(axis=0) forms
        for i in range(1, k):
            sums[i] += sums[i - 1]
        sums += total
        np.maximum(top, sums.max(axis=0, out=extreme), out=top)
        np.minimum(bottom, sums.min(axis=0, out=extreme), out=bottom)
        total[:] = sums[-1]
        done += k
    return top, bottom
