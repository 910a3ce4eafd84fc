"""Scalar special functions, numerical Laplace-transform inversion, and
the block evaluation of the stable variate formulas.

Two workhorses live here:

* :func:`mittag_leffler` evaluates E_beta(x) for beta in (0, 1] and
  x <= 0, switching between the power series, the large-argument
  asymptotic series, and a completely-monotone integral representation
  depending on which is numerically trustworthy.  It is the independent
  oracle for the inversion.
* :func:`laplace_invert` inverts a Laplace transform on the real line
  with the fixed-Talbot contour rule (Abate & Whitt, INFORMS J. Comput.
  18(4), 2006) in double precision.  The transform is evaluated once per
  contour node on whole arrays, so the transforms of many functions (one
  per eigenvalue) invert in one call; two fixed node counts must agree.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import InversionError, ValidationError

__all__ = ["mittag_leffler", "fixed_talbot", "laplace_invert"]


# ---------------------------------------------------------------------------
# Mittag-Leffler function on the negative half line
# ---------------------------------------------------------------------------

# Largest tolerated peak term of the alternating power series.  Its
# absolute rounding error is a few eps * peak, so a 1e3 peak leaves about
# 1e-12 (a 1e6 peak cost up to 1e-8 against erfcx at beta = 1/2).
_SERIES_PEAK_CAP = 1.0e3
# Acceptable optimal-truncation error of the asymptotic series.
_ASYMPTOTIC_TOL = 1.0e-12
_QUAD = dict(epsabs=1e-15, epsrel=1e-13, limit=300)


def _series_peak(beta: float, a: float) -> float:
    """Estimate the peak magnitude of a^k / Gamma(beta*k + 1) over k."""
    if a <= 1.0:
        return 1.0
    best = 0.0
    k, cap = 1, 200_000
    la = math.log(a)
    while k <= cap:
        v = k * la - math.lgamma(beta * k + 1.0)
        if v > best:
            best = v
        if v < best - 2.0 * la - 5.0:  # well past the peak
            break
        k = k + 1 if k < 32 else int(k * 1.25)
    return math.exp(min(best, 700.0))


def _series(beta: float, x: float) -> float:
    # Kahan-compensated partial sums of sum_k x^k / Gamma(beta k + 1).
    # |x|^k / Gamma directly while both are finite: exp of the difference
    # of logarithms would carry eps times their size into every term
    la = math.log(abs(x))
    total, comp = 1.0, 0.0
    k = 0
    while k < 100_000:
        k += 1
        g = beta * k + 1.0
        if g < 170.0 and k * la < 700.0:
            term = abs(x) ** k / math.gamma(g)
        else:
            log_t = k * la - math.lgamma(g)
            term = 0.0 if log_t < -745.0 else math.exp(log_t)
        if k % 2 == 1:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < 1e-17 * max(1.0, abs(total)) and k > 4:
            break
    return total


def _asymptotic(beta: float, a: float) -> tuple[float, float]:
    """Large-argument series E_beta(-a) ~ sum_k (-1)^{k+1} a^-k / Gamma(1-beta k).

    Truncates at the smallest term; returns (value, size of that term).
    1/Gamma(1 - beta k) is computed by reflection as
    sin(pi beta k) Gamma(beta k) / pi, which handles the poles cleanly.
    """
    la = math.log(a)
    total = 0.0
    best = math.inf
    prev_mag = math.inf
    k = 1
    while k < 400:
        s = math.sin(math.pi * beta * k)
        if abs(s) < 1e-12:
            # pole of 1/Gamma(1 - beta k): the term is exactly zero
            k += 1
            continue
        log_mag = -k * la + math.lgamma(beta * k) - math.log(math.pi) + math.log(abs(s))
        if log_mag > 680.0:
            break
        mag = math.exp(log_mag)
        if mag > prev_mag and k > 2:
            break
        total += (-1.0) ** (k + 1) * math.copysign(mag, s)
        prev_mag = mag
        best = min(best, mag)
        k += 1
    return total, best


def _cm_integral(beta: float, a: float) -> float:
    """Completely monotone spectral representation, valid for all a >= 0:

        E_beta(-a) = sin(beta pi)/(beta pi)
                     * int_0^inf exp(-(a u)^(1/beta)) / (u^2 + 2 u cos(beta pi) + 1) du

    The integrand is positive, so there is no cancellation.  For beta > 1/2
    the kernel 1 / ((u + cos(beta pi))^2 + sin(beta pi)^2) peaks at
    u = -cos(beta pi) with width sin(beta pi), which tends to 0 as
    beta -> 1.  On the window |u + cos(beta pi)| < |cos(beta pi)| / 2 the
    substitution u + cos(beta pi) = sin(beta pi) tan(v) turns kernel times
    sin(beta pi) du into dv, a bounded integrand on a finite interval.
    """
    c, s = math.cos(beta * math.pi), math.sin(beta * math.pi)
    p = 1.0 / beta
    cap = 700.0 ** beta  # exp(-(a u)^p) underflows for a u above it

    def in_u(u: float) -> float:
        # outside the window the denominator is at least 1/4: no cancellation
        au = a * u
        return 0.0 if au > cap else math.exp(-(au ** p)) / (u * (u + 2.0 * c) + 1.0)

    def in_v(v: float) -> float:
        au = a * max(s * math.tan(v) - c, 0.0)
        return 0.0 if au > cap else math.exp(-(au ** p))

    # The exponential cuts off at u ~ 1/a, sharply for small beta (it is
    # near a step there); split so quad sees it.
    if a > 5.0:
        cuts = (0.0, 5.0 / a, 1.0, math.inf)
    elif 0.0 < a < 1.0:
        cuts = (0.0, 1.0, 1.0 / a, math.inf)
    else:
        cuts = (0.0, 1.0, math.inf)
    win = (-0.5 * c, -1.5 * c) if c < 0.0 else (math.inf, math.inf)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        # the parts of [lo, hi] below, inside and above the window
        w_lo, w_hi = (min(max(w, lo), hi) for w in win)
        if lo < w_lo:
            total += s * quad(in_u, lo, w_lo, **_QUAD)[0]
        if w_lo < w_hi:
            total += quad(in_v, math.atan2(w_lo + c, s), math.atan2(w_hi + c, s), **_QUAD)[0]
        if w_hi < hi:
            total += s * quad(in_u, w_hi, hi, **_QUAD)[0]
    return total / (beta * math.pi)


def mittag_leffler(beta: float, x: float) -> float:
    """E_beta(x) = sum_{k>=0} x^k / Gamma(beta k + 1) for beta in (0,1], x <= 0.

    The value lies in (0, 1] and is nonincreasing in |x|.  Positive
    arguments are rejected: they are not needed for inverse-subordinator
    Laplace functionals and their evaluation is numerically different.
    """
    if not 0.0 < beta <= 1.0:
        raise ValidationError(f"beta must be in (0, 1], got {beta}")
    if x > 0.0:
        raise ValidationError(f"x must be <= 0, got {x}")
    if x == 0.0:
        return 1.0
    if beta == 1.0:
        return math.exp(x)
    a = -x
    if _series_peak(beta, a) <= _SERIES_PEAK_CAP:
        return _series(beta, x)
    val, err = _asymptotic(beta, a)
    # the asymptotic series expands the integral's kernel in powers of u and
    # misses its peak near u = 1 (sharp as beta -> 1), worth about
    # exp(-a^(1/beta)): accept it only where that is below tolerance too
    if err <= _ASYMPTOTIC_TOL and a >= (-math.log(_ASYMPTOTIC_TOL)) ** beta:
        return val
    return _cm_integral(beta, a)


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
