"""Scalar special functions, numerical Laplace-transform inversion, and
the block evaluation of the stable variate formulas.

Two workhorses live here:

* :func:`mittag_leffler` evaluates E_beta(x) for beta in (0, 1] and
  x <= 0 from one completely monotone integral representation, valid for
  every argument: a closed form where the integrand's weight is 1, and
  quad elsewhere, in coordinates that resolve the narrower of the
  weight's step and the kernel's peak.  Its absolute error is below
  1e-15, and its relative error at large |x| about 1e-13.  It is the
  independent oracle for the inversion.
* :func:`laplace_invert` inverts a Laplace transform on the real line
  with the fixed-Talbot contour rule (Abate & Whitt, INFORMS J. Comput.
  18(4), 2006) in double precision.  The transform is evaluated once per
  contour node on whole arrays, so the transforms of many functions (one
  per eigenvalue) invert in one call; two fixed node counts must agree.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import InversionError, ValidationError

__all__ = ["mittag_leffler", "fixed_talbot", "laplace_invert"]


# ---------------------------------------------------------------------------
# Mittag-Leffler function on the negative half line
# ---------------------------------------------------------------------------

_QUAD = dict(epsabs=1e-15, epsrel=1e-13, limit=300)

# The weight exp(-(a u)^(1/beta)) is within e^-40 = 4e-18 of 1 below
# t0 - 40 beta, and below e^-40 past t0 + beta log 40 (see _cm_integral).
_TAIL = 40.0


def _cm_integral(beta: float, a: float) -> float:
    """Completely monotone spectral representation, valid for all a > 0
    (Gorenflo, Loutchko & Luchko, Fract. Calc. Appl. Anal. 5, 2002):

        E_beta(-a) = sin(beta pi)/(beta pi)
                     * int_0^inf exp(-(a u)^(1/beta)) / (u^2 + 2 u cos(beta pi) + 1) du

    The integrand is positive, so there is no cancellation.  With u = e^t,
    h = beta pi / 2 and sigma = cos(h) the kernel is
    dt / (4 (sinh(t/2)^2 + sigma^2)): a peak of width sigma at t = 0 (a
    point mass as beta -> 1) with tails 1/t^2 out to |t| ~ 1 and e^-|t|
    beyond.  The weight exp(-(a u)^(1/beta)) is a step of width beta in t
    at t0 = -log(a).  Below T = t0 - 40 beta the weight is 1 to within
    e^-40, and the kernel's mass there is, with w = tanh(T/2), the closed
    form (h + atan(w tan h)) / (beta pi).  From T to t0 + beta log 40,
    past which the weight is below e^-40, quad integrates in one of two
    coordinates, split at t0, each chosen where it was measured to serve
    (quad evaluations and error against 40-digit and asymptotic
    references, |x| from 1e-300 to 1e300):

    * beta < 1/2: in s = t - t0, which holds the step exactly.  Computed
      from another coordinate, t - t0 carries the rounding of t (1e-13 at
      |t0| ~ 700), which 1/beta magnifies past the step's width: y fails
      with IntegrationWarning from beta = 1e-10 down and takes twice the
      evaluations of s at beta = 1e-8.  From 1e-3 to 0.5 the two take
      the same evaluations (within 3%) and s is the more accurate at
      large |x| (at most 8e-14 against up to 2e-13 relative).
    * beta >= 1/2: in y, where sinh(t/2) = sigma sinh(y) turns the kernel
      into dy / (2 sigma cosh(y) cosh(t/2)): a bump of unit width with
      tails exponential in y however narrow the peak, so that no piece
      spans decades of u.  Above 1/2, s needs more evaluations (+7% at
      beta = 0.7, +55% at 0.999) and loses accuracy as the peak narrows
      (8e-14 absolute at 0.999 against 3e-16 in y).

    For a > 1 the integrand is scaled by a, so that quad's absolute
    tolerance stays relative to the value, about 1 / (a Gamma(1 - beta)).
    """
    h = 0.5 * math.pi * beta
    sigma = math.sin(0.5 * math.pi * (1.0 - beta))  # cos(h), accurate as beta -> 1
    tan_h = math.sin(h) / sigma
    p = 1.0 / beta
    t0 = -math.log(a)
    scale = max(a, 1.0)

    knots = [-beta * _TAIL, 0.0, beta * math.log(_TAIL)]
    # past e^40 the weight is 0 anyway; the cap keeps a rounded t - t0,
    # times 1/beta, from overflowing exp
    if beta < 0.5:

        def integrand(s: float) -> float:
            r = math.hypot(math.sinh(0.5 * (t0 + s)), sigma)
            step = math.exp(-math.exp(min(p * s, _TAIL)))
            return scale / r * (0.5 * sigma / r) * step

        edges = knots
    else:

        def integrand(y: float) -> float:
            q = sigma * math.sinh(y)
            t = 2.0 * math.asinh(q)
            step = math.exp(-math.exp(min(p * (t - t0), _TAIL)))
            return scale / math.cosh(y) / math.hypot(1.0, q) * step

        edges = [math.asinh(math.sinh(0.5 * (t0 + s)) / sigma) for s in knots]
    total = sum(quad(integrand, lo, up, **_QUAD)[0] for lo, up in zip(edges, edges[1:]))
    # the mass below T = t0 + knots[0]: h + atan(w tan h) as one angle, with
    # 1 + w = 1 + tanh(T/2) written 2 e^min(T, 0) / (1 + e^-|T|), so that
    # nothing cancels, overflows or flushes to 0 early for any T
    low = t0 + knots[0]
    one_plus_w = 2.0 * math.exp(min(low, 0.0)) / (1.0 + math.exp(-abs(low)))
    den = 1.0 - tan_h * tan_h * math.tanh(0.5 * low)
    y = tan_h * one_plus_w
    if y >= sys.float_info.min:  # a normal double keeps every digit
        return (math.atan2(y, den) + math.sin(h) * total / scale) / (beta * math.pi)
    # y is subnormal (beta below about 1e-8 at |x| near 1e300, so tan h is
    # tiny and den ~ 1): divide by beta pi first, writing atan(z) as
    # z (atan(z) / z) with z = y / den
    z = y / den
    ratio = math.atan(z) / z if z else 1.0
    below = tan_h / (beta * math.pi) * one_plus_w / den * ratio
    return below + math.sin(h) / (beta * math.pi) * (total / scale)


def mittag_leffler(beta: float, x: float) -> float:
    """E_beta(x) = sum_{k>=0} x^k / Gamma(beta k + 1) for beta in (0,1], x <= 0.

    The value lies in (0, 1] and is nonincreasing in |x|.  It is 1 at
    x = 0, exp(x) at beta = 1, and otherwise the integral of
    :func:`_cm_integral`, one algorithm for every argument.  Against
    40-digit references (the power series, Talbot inversion) over |x| from
    1e-300 to 1e10 and beta from 1e-3 to 1 - 2^-52 the absolute error is
    below 7e-16.  For beta <= 0.999 and |x| from 1e10 to 1e300 the
    relative error, against the asymptotic series, is below 2e-13; as
    beta -> 1 the value at large |x|, about (1 - beta) / |x|, has a small
    absolute error only.  Below beta = 1e-3 quad still resolves the
    weight's step, without a warning, down to beta = 1e-14 at |x| from
    1e-300 to 1e300.  Against the expansion
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
    if not x <= 0.0:
        raise ValidationError(f"x must be <= 0, got {x}")
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
# A block of 8,192 entries makes each temporary 64 KB, so a formula's dozen
# of them stays in a core's L2 cache instead of faulting in fresh pages.
_VARIATE_BLOCK = 1 << 13


def _blockwise(kernel: Callable, u, w) -> np.ndarray:
    """``kernel(u, w)`` evaluated over blocks of ``_VARIATE_BLOCK`` entries of
    the equal-shape arrays (or floats) ``u`` and ``w``; the result is an
    array of their shape."""
    u, w = np.asarray(u), np.asarray(w)
    out = np.empty(u.shape)
    flat_u, flat_w, flat_out = u.reshape(-1), w.reshape(-1), out.reshape(-1)
    for start in range(0, flat_out.size, _VARIATE_BLOCK):
        block = slice(start, start + _VARIATE_BLOCK)
        flat_out[block] = kernel(flat_u[block], flat_w[block])
    return out


def _half_angle_sine(tau):
    """sin(theta) = 2 tau / (1 + tau^2) from tau = tan(theta / 2): a few ulps,
    and no cancellation for theta in (-pi, pi)."""
    return 2.0 * tau / (1.0 + tau * tau)
