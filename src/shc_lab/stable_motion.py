"""One-dimensional symmetric alpha-stable motion: increments and the
extremes of the unit walk.

Conventions: the process has characteristic function
E[exp(i xi Y_t)] = exp(-t |xi|^alpha); at alpha = 2 this is a Brownian
motion whose increment over dt has variance 2 dt.

Scale freedom: a walk of k steps of size dt has positions
x0 + dt^(1/alpha) S_j, with S_j the partial sums of standard variates,
so one unit walk answers every step size and start point at once.  The
one walk kernel, ``_unit_extremes``, keeps the running max and min of
S_j and reads them at each path's step budget: the walk of scale c from
x0 stays inside (a, b) through step k exactly when x0 + c max_{j<=k} S_j
< b and x0 + c min_{j<=k} S_j > a, so for a uniform x0 only the range
R = max - min matters, which the heat-content Monte Carlo uses.  This is
a fixed-step Euler walk on exact increments: for alpha = 2 it misses
intra-step boundary crossings and so overestimates exit times; for
alpha < 2 jump exits dominate and the bias is milder.  No exact-crossing
correction is applied; tests carry a bias band calibrated by
step-halving instead.  The mean of the continuum supremum needs no walk:
it is ``asymptotics.expected_supremum``, from Spitzer's identity.

Precision: from alpha = ``_SINGLE_ALPHA`` (0.42) up to, not including,
2 the walk runs in float32.  The generator's draws stay float64, so a
walk sees the variates of the float64 walk, each within a few float32
ulps (``sample_symmetric_stable`` with a float32 ``out``), and forms its
partial sums, extremes and carried totals in float32; it returns float64
extremes.  On the shipped ``small_time_mc`` setting this moves each row
by at most 2.7e-9, under 2e-6 of its CI.  Below 0.42 float32 can overflow
(``_SINGLE_ALPHA``), and at alpha = 2, where no formula runs, a float32
walk measured no faster, so both stay float64.

Memory: the walk draws each block of steps into one buffer allocated once
per call (``sample_symmetric_stable(..., out=)``), 512 KB in float32
(1 MB in float64), and forms its partial sums in place.  The sampler
itself evaluates its formula in place, in scratch vectors of
``special._VARIATE_BLOCK`` entries, so no block allocates its variates;
in float64 they are bit for bit those of the allocating whole-array
formulas.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .special import _blocks, _half_angle_sine

__all__ = [
    "sample_symmetric_stable",
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

    ``out``, a C-contiguous float64 or float32 array (of shape ``size``
    when both are given), receives the variates and is returned, so that a
    caller drawing repeatedly reuses one buffer; without it a new float64
    array (a scalar for ``size=None``) is returned.

    A float32 ``out`` takes the same draws in the same order, R block by
    block and then W block by block through float64 scratch of at most
    ``special._VARIATE_BLOCK`` entries, and leaves ``rng`` in the same
    state; the formula then runs in float32 on tan(U), arctan(tan U) and
    W.  tan(U) is taken in float64 and rounded once, because U's own
    float32 cell next to +-pi/2 is 1.2e-7 wide: rounding U first would put
    a relative error of up to 6e-8 |tan U| on the variate and truncate
    |tan U| at 2.3e7.  So nothing is truncated: |tan U| reaches 1.6e16
    (U = -pi/2), as in float64, and each variate lies within 16 float32
    ulps of the float64 one, times 1 + |alpha U cot(alpha U)| (the
    conditioning of sin(alpha U), up to 19 at alpha 1.9).  alpha = 1 and 2
    give the float64 variates rounded once.  Below alpha =
    ``_SINGLE_ALPHA`` (0.42) that largest tangent makes cos(U)^(-1/alpha)
    overflow float32.
    """
    _check_alpha(alpha)
    if out is None:
        x = np.empty(() if size is None else size)
    elif out.dtype not in (np.float64, np.float32) or not out.flags.c_contiguous:
        raise ValidationError(
            f"out must be a C-contiguous float64 or float32 array, got {out.dtype}"
            f" (C-contiguous: {out.flags.c_contiguous})"
        )
    elif size is not None and (tuple(size) if np.iterable(size) else (size,)) != out.shape:
        raise ValidationError(f"size {size} does not match out's shape {out.shape}")
    else:
        x = out
    if x.dtype == np.float32:
        _single(rng, alpha, x.reshape(-1))
    elif alpha == 2.0:
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
            for block, (t, w, a) in _blocks(flat.size, 3):
                rng.standard_exponential(out=w)
                u = flat[block]
                np.tan(u, out=t)
                _cms(u, t, w, a, alpha, out=u)
    return x if out is not None else x[()]


def _single(rng: np.random.Generator, alpha: float, x: np.ndarray) -> None:
    """The float64 sampler's draws into the flat float32 ``x``: R, then W,
    block by block through float64 scratch vectors of at most
    ``special._VARIATE_BLOCK`` entries; tan(U) is taken before the
    rounding, and the formula runs in float32."""
    if alpha == 2.0:
        for block, (z,) in _blocks(x.size, 1):
            rng.standard_normal(out=z)
            z *= math.sqrt(2.0)
            x[block] = z
        return
    for block, (u,) in _blocks(x.size, 1):
        rng.random(out=u)
        u *= math.pi
        u += -math.pi / 2.0
        np.tan(u, out=u)
        x[block] = u
    if alpha == 1.0:
        return
    for (block, (e,)), (_, (u, w, a)) in zip(
        _blocks(x.size, 1), _blocks(x.size, 3, np.float32)
    ):
        rng.standard_exponential(out=e)
        w[...] = e
        t = x[block]
        np.arctan(t, out=u)
        _cms(u, t, w, a, alpha, out=t)


def _cms(u, t, w, a, alpha: float, out: np.ndarray) -> None:
    """The Chambers-Mallows-Stuck formula in place, for alpha not 1 or 2,
    into ``out`` (``u`` or ``t``): ``u`` holds U, ``t`` tan(U) and ``w`` W;
    ``u``, ``t``, ``w`` and ``a`` (all of one shape and dtype) are
    overwritten.  sin(alpha U) comes from its half-angle tangent, and each
    cosine, whose angle lies in (-pi/2, pi/2), as (1 + tan^2)^(-1/2), so
    that cos(U)^(-1/alpha) = (1 + tan^2 U)^(1/(2 alpha)) is one power."""
    rest = 1.0 - alpha
    # (sqrt(1 + tan^2((1 - alpha) U)) W)^(-(1 - alpha)/alpha)
    np.multiply(u, rest, out=a)
    np.tan(a, out=a)
    a *= a
    a += 1.0
    np.sqrt(a, out=a)
    a *= w
    a **= -rest / alpha
    # cos(U)^(-1/alpha)
    t *= t
    t += 1.0
    t **= 0.5 / alpha
    # sin(alpha U), then the product
    np.multiply(u, 0.5 * alpha, out=w)
    np.tan(w, out=w)
    _half_angle_sine(w, u)
    w *= t
    np.multiply(w, a, out=out)


# Least alpha of the float32 walk, 0.4208: the largest |tan U| a float64
# angle gives, tan(pi/2) = 1.6e16 (at U = -pi/2, chance 2^-53), keeps
# cos(U)^(-1/alpha) = (1 + tan^2 U)^(1/(2 alpha)) below float32's largest
# value 3.4e38 from this alpha on.  Above it a float32 variate overflows only
# where |X| > 3.4e38 (small W), with chance about
# (2/pi) Gamma(alpha) sin(pi alpha / 2) 3.4e38^(-alpha), at most 5e-17 per
# variate: under 2^-53, the resolution of the draws themselves.
_SINGLE_ALPHA = math.log1p(math.tan(math.pi / 2.0) ** 2) / (
    2.0 * math.log(math.ldexp(2.0 - 2.0 ** -23, 127))
)


# variates per block of the unit walk: bounds its memory whatever the budgets
_UNIT_BLOCK = 1 << 17


def _unit_extremes(
    alpha: float, budgets: np.ndarray, cap: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of S_0 = 0, S_1, ..., S_k per (t, path), S_j the partial
    sums of standard symmetric alpha-stable variates and k = budgets[t, path]:
    ``budgets`` holds integers >= 0 of shape (len(ts), n_paths), and both
    results have that shape.

    Paths are stably sorted by decreasing largest budget.  Whole steps are
    drawn in blocks of at most ``_UNIT_BLOCK`` variates (at least one step)
    into one buffer reused by every block, each block only for the paths
    whose largest budget exceeds its first step; so the variates a path
    sees depend on the budgets alone (equal budgets draw whole blocks of
    every path), and walks with the same budgets and rng stream see common
    random numbers.  A block forms its partial sums in place, adds the
    carried total, and advances the running max and min row by row; each
    (t, path) reads them at its budget's row.  Memory does not grow with
    the budgets.

    The walk stops once every walking path's range max - min is at least
    ``cap`` (inf: never); a readout past that point takes the extremes at
    the stop, whose range already reaches cap.
    """
    budgets = _check_budgets(budgets)
    n_t, n = budgets.shape
    largest = budgets.max(axis=0, initial=0)
    order = np.argsort(-largest, kind="stable")
    # readouts by budget: readout i fills flat entry events[i] of the
    # results from sorted path paths[i] after step steps[i]; a budget of 0
    # reads S_0 = 0
    flat = budgets[:, order].ravel()
    events = np.argsort(flat, kind="stable")
    steps, paths = flat[events], events % max(n, 1)
    events += order[paths] - paths
    top_at, bottom_at = np.zeros(n_t * n), np.zeros(n_t * n)
    dtype = np.float32 if _SINGLE_ALPHA <= alpha < 2.0 else np.float64
    top, bottom, total, scratch = (np.zeros(n, dtype) for _ in range(4))
    # budgets can be huge (heavy-tailed time changes), so the walking prefix
    # m = #{largest budget > done} is advanced block by block, never tabulated
    largest_list = largest[order].tolist()
    n_max = largest_list[0] if n else 0
    block = np.empty(min(max(_UNIT_BLOCK, n), n_max * n), dtype)  # reused by every block
    done, m = 0, n
    read = int(np.searchsorted(steps, 0, side="right"))
    while done < n_max:
        while largest_list[m - 1] <= done:
            m -= 1
        top_m, bottom_m, ext = top[:m], bottom[:m], scratch[:m]
        if cap < math.inf:
            # a range past the float range is inf, which reaches every cap
            with np.errstate(over="ignore"):
                if np.subtract(top_m, bottom_m, out=ext).min() >= cap:
                    break
        k = min(max(1, _UNIT_BLOCK // m), n_max - done)
        sums = sample_symmetric_stable(rng, alpha, (k, m), out=block[: k * m].reshape(k, m))
        # in place, row by row: the partial sums np.cumsum(axis=0) forms
        for i in range(1, k):
            sums[i] += sums[i - 1]
        sums += total[:m]
        total[:m] = sums[-1]
        # ends[i]: readouts through step done + i + 1, taken after row i; the
        # extremes advance at once over the rows up to each row that reads
        ends = np.searchsorted(steps, np.arange(done + 1, done + k + 1), side="right")
        first = 0
        for last in [*np.flatnonzero(np.diff(ends[:-1], prepend=read)).tolist(), k - 1]:
            rows = sums[first : last + 1]
            np.maximum(top_m, rows[0] if last == first else rows.max(axis=0, out=ext), out=top_m)
            np.minimum(bottom_m, rows[0] if last == first else rows.min(axis=0, out=ext), out=bottom_m)
            _read(top_at, bottom_at, top, bottom, events, paths, read, ends[last])
            read, first = ends[last], last + 1
        done += k
    _read(top_at, bottom_at, top, bottom, events, paths, read, events.size)
    return top_at.reshape(n_t, n), bottom_at.reshape(n_t, n)


def _read(top_at, bottom_at, top, bottom, events, paths, start, stop) -> None:
    """Readouts ``start`` to ``stop`` take their paths' current extremes."""
    top_at[events[start:stop]] = top[paths[start:stop]]
    bottom_at[events[start:stop]] = bottom[paths[start:stop]]


def _check_budgets(budgets) -> np.ndarray:
    """``budgets`` as int64, or ``ValidationError`` unless integers >= 0."""
    budgets = np.asarray(budgets)
    integral = np.issubdtype(budgets.dtype, np.integer)
    if not integral or np.any(budgets < 0):
        # a summary, not the array: budgets come one per path
        n_bad = int(np.count_nonzero(budgets < 0)) if integral else budgets.size
        low = budgets.min() if budgets.size else None
        raise ValidationError(
            f"step budgets must be integers >= 0, got dtype {budgets.dtype} with "
            f"{n_bad} bad of {budgets.size} entries, minimum {low}"
        )
    return budgets.astype(np.int64, copy=False)
