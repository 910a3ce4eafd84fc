"""Scalar special functions, numerical Laplace-transform inversion, and
the blocks and scratch in which the stable variate formulas run in place.

Two workhorses live here:

* :func:`mittag_leffler` evaluates E_beta(x) for beta in (0, 1] and
  x <= 0 from one completely monotone integral representation, valid for
  every argument: a closed form where the integrand's weight is 1, and
  the tanh-sinh rule elsewhere, in one coordinate on panels cut at the
  kernel's peak, with a RuntimeWarning when its h/2h gap exceeds 1e-12 of
  the value.  Its absolute error is below 5e-16, and its relative error
  at large |x| about 1e-13.  It is the independent oracle for the
  inversion.
* :func:`laplace_invert` inverts a Laplace transform on the real line
  with the fixed-Talbot contour rule (Abate & Whitt, INFORMS J. Comput.
  18(4), 2006) in double precision.  The transform is evaluated once per
  contour node on whole arrays, so the transforms of many functions (one
  per eigenvalue) invert in one call; two fixed node counts must agree.

The tanh-sinh rule (:func:`_tanh_sinh_nodes`) also serves the expected
functionals and ``asymptotics.frac_perimeter_numeric``.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Callable

import numpy as np

from .errors import InversionError, ValidationError

__all__ = ["mittag_leffler", "fixed_talbot", "laplace_invert"]


# ---------------------------------------------------------------------------
# Mittag-Leffler function on the negative half line
# ---------------------------------------------------------------------------

# The weight exp(-(a u)^(1/beta)) is within e^-40 = 4e-18 of 1 below
# t0 - 40 beta, and below e^-40 past t0 + beta log 40 (see _cm_integral).
_TAIL = 40.0

# Longest panel, in units of y, of the rule in _cm_integral: the kernel is a
# bump of unit width at y = 0, and a knot interval is up to 100 units wide.
_PANEL = 4.0

# Largest h/2h gap, relative to the value, that _cm_integral accepts silently
_GAP = 1e-12


def _tanh_sinh_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh rule on (0, 1) at abscissae tau = k / 32, |tau| <= 4.5
    (289 nodes; Takahasi & Mori, Publ. RIMS 9, 1974): x = 1 / (exp(-2 s) + 1)
    at s = (pi/2) sinh(tau), as x and 1 - x so that no node rounds onto an
    end, with weights dx/dtau / 32.  The even nodes are the rule of twice
    the step.  Built per call (about 30 us): built at import, its sinh and
    cosh loops would add up to 0.4 MB to the peak memory of every process."""
    tau = np.arange(-144, 145) / 32.0
    x = 1.0 / (np.exp(-math.pi * np.sinh(tau)) + 1.0)
    y = 1.0 / (np.exp(math.pi * np.sinh(tau)) + 1.0)
    return x, y, math.pi / 32.0 * np.cosh(tau) * x * y


def _cm_integral(beta: float, a: float) -> float:
    """Completely monotone spectral representation, valid for all a > 0
    (Gorenflo, Loutchko & Luchko, Fract. Calc. Appl. Anal. 5, 2002):

        E_beta(-a) = sin(beta pi)/(beta pi)
                     * int_0^inf exp(-(a u)^(1/beta)) / (u^2 + 2 u cos(beta pi) + 1) du

    The integrand is positive, so there is no cancellation.  With u = e^t,
    h = beta pi / 2 and sigma = cos(h) the kernel is
    dt / (4 (sinh(t/2)^2 + sigma^2)): a peak of width sigma at t = 0 (a
    point mass as beta -> 1).  In y, where sinh(t/2) = sigma sinh(y), it is
    dy / (2 sigma cosh(y) cosh(t/2)): a bump of unit width at y = 0 with
    tails exponential in y however narrow the peak.  The weight
    exp(-(a u)^(1/beta)) is a step of width beta in t at t0 = -log(a).
    Below T = t0 - 40 beta the weight is 1 to within e^-40, and the
    kernel's mass there is, with w = tanh(T/2), the closed form
    (h + atan(w tan h)) / (beta pi).  From T to t0 + beta log 40, past
    which the weight is below e^-40, the integral is taken in y alone,
    split at the knots T and t0 and at the peak y = 0, on panels of at
    most ``_PANEL`` units of y, by the tanh-sinh rule, evaluated on one
    array.  Where beta is tiny the step is narrower than the rounding of
    t - t0 times 1/beta, but its share of the value is then about beta.

    The terms are scaled by max(a, 1), so that they stay normal doubles
    where the value is about 1 / (a Gamma(1 - beta)).  When the gap to the
    rule of twice the step (the even nodes of the same evaluation) exceeds
    ``_GAP`` of the value, a :class:`RuntimeWarning` says so.  Over 43 beta
    from 1e-14 to 1 - 2^-52 and 241 a from 1e-300 to 1e300 that gap is at
    most 1.3e-14 of the value; at beta = 0.999, a = 1e-5, one panel per
    knot interval gives a gap of 2.8e-8.  The largest errors in
    ``scripts/mittag_leffler_stress.py 200`` are 4.4e-16 absolute against
    40-digit references, 3.3e-16 at tiny a, 2.4e-16 where T crosses the
    peak, and 1.2e-13 relative from a = 1e10 to 1e300.
    """
    h = 0.5 * math.pi * beta
    sigma = math.sin(0.5 * math.pi * (1.0 - beta))  # cos(h), accurate as beta -> 1
    tan_h = math.sin(h) / sigma
    p = 1.0 / beta
    t0 = -math.log(a)
    scale = max(a, 1.0)

    knots = [-beta * _TAIL, 0.0, beta * math.log(_TAIL)]
    edges = [math.asinh(math.sinh(0.5 * (t0 + s)) / sigma) for s in knots]
    # the peak y = 0 clipped into [edges[0], edges[-1]]; unique drops it at an end
    cuts = np.unique(edges + [min(max(edges[0], 0.0), edges[-1])]).tolist()
    bounds = cuts[:1]
    for lo, up in zip(cuts, cuts[1:]):
        n = math.ceil((up - lo) / _PANEL)
        bounds += [lo + k * (up - lo) / n for k in range(1, n)] + [up]
    lo, up = np.array(bounds[:-1])[:, None], np.array(bounds[1:])[:, None]
    width = up - lo
    # each node from its nearer end, so that panels meet exactly at the peak
    x, xc, rule = _tanh_sinh_nodes()
    y = np.where(x < 0.5, lo + width * x, up - width * xc)
    q = sigma * np.sinh(y)
    # past e^40 the weight is 0 anyway; the cap keeps a rounded t - t0,
    # times 1/beta, from overflowing exp
    step = np.exp(-np.exp(np.minimum(p * (2.0 * np.arcsinh(q) - t0), _TAIL)))
    terms = scale * width * rule / np.cosh(y) / np.hypot(1.0, q) * step
    total = float(terms.sum())
    gap = abs(total - 2.0 * float(terms[:, ::2].sum()))
    # the mass below T = t0 + knots[0]: h + atan(w tan h) as one angle, with
    # 1 + w = 1 + tanh(T/2) written 2 e^min(T, 0) / (1 + e^-|T|), so that
    # nothing cancels, overflows or flushes to 0 early for any T
    low = t0 + knots[0]
    one_plus_w = 2.0 * math.exp(min(low, 0.0)) / (1.0 + math.exp(-abs(low)))
    den = 1.0 - tan_h * tan_h * math.tanh(0.5 * low)
    y_low = tan_h * one_plus_w
    if y_low >= sys.float_info.min:  # a normal double keeps every digit
        below = math.atan2(y_low, den) / (beta * math.pi)
    else:
        # y_low is subnormal (beta below about 1e-8 at |x| near 1e300, so
        # tan h is tiny and den ~ 1): divide by beta pi first, writing
        # atan(z) as z (atan(z) / z) with z = y_low / den
        z = y_low / den
        ratio = math.atan(z) / z if z else 1.0
        below = tan_h / (beta * math.pi) * one_plus_w / den * ratio
    c = math.sin(h) / (beta * math.pi)
    value, error = below + c * (total / scale), c * (gap / scale)
    if error > _GAP * value:
        msg = f"E_{beta!r}(-{a!r}) = {value!r}: h/2h gap {error:.3g} > {_GAP:g} of the value"
        warnings.warn(msg, RuntimeWarning)
    return value


def mittag_leffler(beta: float, x: float) -> float:
    """E_beta(x) = sum_{k>=0} x^k / Gamma(beta k + 1) for beta in (0,1], x <= 0.

    The value lies in (0, 1] and is nonincreasing in |x|.  It is 1 at
    x = 0, exp(x) at beta = 1, and otherwise the integral of
    :func:`_cm_integral`, one algorithm for every argument.  Against
    40-digit references (the power series, Talbot inversion) over |x| from
    1e-300 to 1e10 and beta from 1e-3 to 1 - 2^-52 the absolute error is
    below 7e-16.  For beta <= 0.999 and |x| from 1e10 to 1e300 the
    relative error, against the asymptotic series, is below 2e-13; as
    beta -> 1 the value at large |x|, about (1 - beta) / |x|, keeps a
    relative error below 3e-11 (at beta = 1 - 2^-52, |x| = 1e297).  Below
    beta = 1e-3 the rule stays accurate, and its h/2h gap silent, down to
    beta = 1e-14 at |x| from 1e-300 to 1e300.  Against the expansion
    (1 - gamma beta |x| / (1 + |x|)) / (1 + |x|), whose own error is
    O(beta^2), the relative error is below 2e-13 from beta = 1e-16 to
    1e-8 at |x| = 1e300: the closed-form mass below the step is divided
    by beta pi before it can go subnormal.
    A value above 1 by rounding (at tiny |x|) is returned as 1.  Positive
    arguments are rejected: they are not needed for inverse-subordinator
    Laplace functionals and their evaluation is numerically different.
    """
    if not 0.0 < beta <= 1.0:
        raise ValidationError(f"beta must be in (0, 1], got {beta}")
    if not (math.isfinite(x) and x <= 0.0):
        raise ValidationError(f"x must be finite and <= 0, got {x}")
    if x == 0.0:
        return 1.0
    if beta == 1.0:
        return math.exp(x)
    return min(_cm_integral(beta, -x), 1.0)


# ---------------------------------------------------------------------------
# Fixed-Talbot inversion
# ---------------------------------------------------------------------------

# Node counts of the two inversions whose agreement certifies a result.
# The contour weights grow like e^(2M/5), which amplifies round-off in
# double precision, so doubling M is no check.  Against
# E_{1/2}(-a t^{1/2}) = erfcx(a t^{1/2}) over a in [1e-2, 1e3] and t in
# [1e-2, 1e6], M = 16 is off by 6e-12, 24 by 8e-13, 48 by 1e-8, 64 by 4e-6.
_TALBOT_NODES = (16, 24)


def fixed_talbot(transform: Callable, t: float, nodes: int):
    """Fixed-Talbot inversion of ``transform`` at ``t`` with ``nodes`` nodes.

    With r = 2 nodes / (5 t) and theta_k = k pi / nodes, the contour is
    s_k = r theta_k (cot theta_k + i) (s_0 = r) and

        f(t) ~ (r / nodes) Re sum_k g_k e^(t s_k) F(s_k),
        g_0 = 1/2,  g_k = 1 + i (theta_k + (theta_k cot theta_k - 1) cot theta_k).

    ``transform`` maps the 1-d complex array of nodes to values with the
    nodes on the last axis; leading axes (one per function) are kept.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValidationError(f"t must be finite and > 0, got {t}")
    if not isinstance(nodes, int) or nodes < 2:
        raise ValidationError(f"nodes must be an integer >= 2, got {nodes!r}")
    r = 2.0 * nodes / (5.0 * t)
    theta = math.pi * np.arange(1, nodes) / nodes
    cot = 1.0 / np.tan(theta)
    s = np.concatenate(([r], r * theta * (cot + 1j)))
    g = np.concatenate(([0.5], 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)))
    return np.real(transform(s) @ (g * np.exp(t * s))) * (r / nodes)


def laplace_invert(transform: Callable, t: float, tol: float = 1.0e-9):
    """Invert a Laplace transform at ``t > 0`` (array-valued transforms
    invert elementwise, see :func:`fixed_talbot`).

    Returns the 24-node value and raises :class:`InversionError` when it
    differs from the 16-node value by more than ``tol`` (absolute), which
    signals a transform the contour does not resolve at this t (a
    discontinuous original, or a singularity outside the contour).

    Intended for transforms of smooth bounded functions (here:
    completely monotone Laplace functionals of inverse subordinators).
    """
    coarse, fine = (fixed_talbot(transform, t, m) for m in _TALBOT_NODES)
    gap = float(np.max(np.abs(fine - coarse), initial=0.0))
    if not gap <= tol:
        raise InversionError(
            f"Talbot inversions with {_TALBOT_NODES} nodes differ by {gap:.3g} > tol={tol} at t={t}"
        )
    return fine


# ---------------------------------------------------------------------------
# Block evaluation of the stable variate formulas
# ---------------------------------------------------------------------------

# Both stable samplers take every trigonometric factor from np.tan, which
# numpy vectorizes for float64 where sin and cos go to the scalar C library.
# They evaluate their formulas in place, block by block, in scratch vectors
# of 8,192 entries (64 KB each) allocated once per call: the working set
# stays in a core's L2 cache and no call faults in fresh pages per block.
_VARIATE_BLOCK = 1 << 13


def _blocks(n: int, rows: int):
    """Slices of at most ``_VARIATE_BLOCK`` entries covering range(n), in
    order, each with ``rows`` scratch vectors of its length; the scratch is
    one array, allocated once and shared by all blocks."""
    scratch = np.empty((rows, min(n, _VARIATE_BLOCK)))
    for start in range(0, n, _VARIATE_BLOCK):
        block = slice(start, min(start + _VARIATE_BLOCK, n))
        yield block, scratch[:, : block.stop - start]


def _half_angle_sine(tau: np.ndarray, work: np.ndarray) -> None:
    """tau <- sin(theta) = 2 tau / (1 + tau^2) in place, from tau =
    tan(theta / 2); ``work`` (of tau's shape) is overwritten.  A few ulps,
    and no cancellation for theta in (-pi, pi)."""
    np.multiply(tau, tau, out=work)
    work += 1.0
    tau *= 2.0
    tau /= work
