"""Closed-form evaluators for the asymptotic laws.

Covers the polynomial large-time law for the inverse time change, the
exponential log-rate under a subordinator, the three small-time
regimes with their geometric constants (running-supremum mean, 1/pi,
fractional perimeter), the monotonized x ln(1/x) machinery behind the
critical regime, exact moment laws of the inverse stable time change,
and a Monte Carlo probe of the first-passage tail exponent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma

from .errors import UnresolvedTailError, ValidationError
from .seeding import derive_rng
from .spectral import EigenSystem, IntervalDomain, weighted_series
from .subordinators import (
    LaplaceExponent,
    expected_functional,
    sample_inverse_stable,
)

__all__ = [
    "Regime",
    "classify_regime",
    "GeometryInput",
    "interval_geometry",
    "small_time_rate",
    "jump_kernel_constant",
    "frac_perimeter_interval",
    "frac_perimeter_numeric",
    "small_time_constant",
    "large_time_constant",
    "large_time_asymptote",
    "small_time_asymptote",
    "subordinate_log_rate",
    "monotonized_xlog",
    "expected_monotonized_xlog",
    "expected_xlog",
    "xlog_asymptote",
    "moment_asymptote",
    "TailProbeResult",
    "tail_decay_probe",
    "FROZEN_SUP_MEAN",
]

# Frozen Monte Carlo regression constants for E[sup_{s<=1} Y_s], the
# supercritical geometric factor.  Computed once via
# estimate_sup_mean(alpha, 1_000_000, 10_000, seed=20260810); 95% CI
# half-width 0.016 (the supremum has infinite variance for alpha < 2),
# grid-maximum bias ~ -0.2% at this step count.  Consistency with the
# estimator is re-checked at smaller scale in tests/test_stable_motion.py.
FROZEN_SUP_MEAN: dict[float, float] = {
    1.5: 1.2748114309493157,
}


class Regime(enum.Enum):
    SUPERCRITICAL = "supercritical"  # alpha in (1, 2)
    CRITICAL = "critical"  # alpha = 1
    SUBCRITICAL = "subcritical"  # alpha in (0, 1)


def classify_regime(alpha: float) -> Regime:
    if not 0.0 < alpha < 2.0:
        raise ValidationError(f"small-time regimes need alpha in (0, 2), got {alpha}")
    if alpha > 1.0:
        return Regime.SUPERCRITICAL
    if alpha == 1.0:
        return Regime.CRITICAL
    return Regime.SUBCRITICAL


@dataclass(frozen=True)
class GeometryInput:
    """Domain quantities consumed by the small-time constants.

    For d >= 2 all entries are user-supplied (no simulation support);
    ``per_alpha`` is required only in the subcritical regime when it
    cannot be derived (d >= 2).
    """

    volume: float
    boundary_measure: float
    dimension: int = 1
    per_alpha: float | None = None
    interval_length: float | None = None

    def __post_init__(self):
        if self.volume <= 0.0 or self.boundary_measure <= 0.0:
            raise ValidationError("volume and boundary measure must be positive")
        if self.dimension < 1:
            raise ValidationError("dimension must be >= 1")


def interval_geometry(domain: IntervalDomain) -> GeometryInput:
    return GeometryInput(
        volume=domain.volume,
        boundary_measure=domain.boundary_measure,
        dimension=1,
        interval_length=domain.volume,
    )


def small_time_rate(alpha: float, t: float) -> float:
    """The regime rate function: t^(1/alpha), t ln(1/t), or t."""
    regime = classify_regime(alpha)
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    if regime is Regime.SUPERCRITICAL:
        return t ** (1.0 / alpha)
    if regime is Regime.CRITICAL:
        if t >= 1.0:
            raise ValidationError("the critical rate t ln(1/t) needs t in (0, 1)")
        return t * math.log(1.0 / t)
    return t


def jump_kernel_constant(alpha: float) -> float:
    """c(1, alpha): the 1-d stable jump kernel is c |x-y|^(-1-alpha).

    Normalized so the generator is the standard fractional Laplacian:
    c(1, alpha) = alpha 2^(alpha-1) Gamma((1+alpha)/2)
                  / (pi^(1/2) Gamma(1 - alpha/2)).
    """
    if not 0.0 < alpha < 2.0:
        raise ValidationError(f"alpha must be in (0, 2), got {alpha}")
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * _gamma((1.0 + alpha) / 2.0)
        / (math.sqrt(math.pi) * _gamma(1.0 - alpha / 2.0))
    )


def frac_perimeter_interval(alpha: float, length: float) -> float:
    """The fractional perimeter of an interval of the given length:

        Per_alpha((0, L)) = c(1, alpha) * 2 L^(1-alpha) / (alpha (1-alpha)).
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"fractional perimeter needs alpha in (0, 1), got {alpha}")
    if length <= 0.0:
        raise ValidationError(f"length must be > 0, got {length}")
    return jump_kernel_constant(alpha) * 2.0 * length ** (1.0 - alpha) / (alpha * (1.0 - alpha))


def frac_perimeter_numeric(domain: IntervalDomain, alpha: float) -> float:
    """Per_alpha(domain) by quadrature of the double jump integral.

    The inner integral over the complement is a power-law tail with the
    closed form ((x-a)^-alpha + (b-x)^-alpha)/alpha; only the outer
    integral is numerical (its endpoint singularities are integrable).
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"fractional perimeter needs alpha in (0, 1), got {alpha}")
    c = jump_kernel_constant(alpha)

    def outer(x: float) -> float:
        return ((x - domain.a) ** (-alpha) + (domain.b - x) ** (-alpha)) / alpha

    val, _ = quad(outer, domain.a, domain.b, epsabs=1e-13, epsrel=1e-11, limit=200)
    return c * val


def small_time_constant(
    alpha: float, geometry: GeometryInput, sup_mean: float | None = None
) -> float:
    """The geometric constant of the small-time law per regime:

    E[sup] * |boundary|  /  |boundary| / pi  /  Per_alpha.
    """
    regime = classify_regime(alpha)
    if regime is Regime.SUPERCRITICAL:
        if sup_mean is None:
            sup_mean = FROZEN_SUP_MEAN.get(alpha)
        if sup_mean is None:
            raise ValidationError(
                f"supercritical constant needs the running-supremum mean for alpha={alpha}"
            )
        return sup_mean * geometry.boundary_measure
    if regime is Regime.CRITICAL:
        return geometry.boundary_measure / math.pi
    per = geometry.per_alpha
    if per is None:
        if geometry.interval_length is None:
            raise ValidationError("subcritical constant needs per_alpha (d >= 2)")
        per = frac_perimeter_interval(alpha, geometry.interval_length)
    return per


def large_time_constant(eig: EigenSystem, beta: float, tol: float | None = None) -> float:
    """C = sum_n m_n^2 / (lambda_n Gamma(1-beta)), tail-certified."""
    if not 0.0 <= beta < 1.0:
        raise ValidationError(f"large-time law needs beta in [0, 1), got {beta}")
    g = _gamma(1.0 - beta)
    sv = weighted_series(eig, lambda lam: 1.0 / (lam * g), tol=tol)
    return sv.value


def large_time_asymptote(eig: EigenSystem, spec: LaplaceExponent, t: float) -> float:
    """phi(1/t) * C, the claimed polynomial large-time decay."""
    beta = spec.index_at_zero
    if beta >= 1.0:
        raise ValidationError(
            "large-time law needs a Laplace exponent regularly varying at 0+ "
            f"with index < 1; {type(spec).__name__} has index {beta}"
        )
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    return float(spec(1.0 / t)) * large_time_constant(eig, beta)


def small_time_asymptote(
    alpha: float,
    spec: LaplaceExponent,
    geometry: GeometryInput,
    t: float,
    sup_mean: float | None = None,
) -> float:
    """The claimed small-time leading term of |Omega| - Q(t):

        supercritical: |bd| E[sup] Gamma(1+1/alpha)/Gamma(1+beta/alpha)
                       * phi(1/t)^(-1/alpha)
        critical:      |bd| / (pi Gamma(1+beta)) * phi(1/t)^-1 ln phi(1/t)
        subcritical:   Per_alpha / Gamma(1+beta) * phi(1/t)^-1

    with beta the regular-variation index of phi at infinity.
    """
    regime = classify_regime(alpha)
    beta = spec.index_at_infinity
    if not 0.0 < beta < 1.0:
        raise ValidationError(
            f"small-time law needs index at infinity in (0, 1), got {beta}"
        )
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    constant = small_time_constant(alpha, geometry, sup_mean)
    phi_1t = float(spec(1.0 / t))
    if regime is Regime.SUPERCRITICAL:
        return (
            constant
            * _gamma(1.0 + 1.0 / alpha)
            / _gamma(1.0 + beta / alpha)
            * phi_1t ** (-1.0 / alpha)
        )
    if regime is Regime.CRITICAL:
        if phi_1t <= 1.0:
            raise ValidationError(
                f"critical asymptote needs phi(1/t) > 1 (log factor), got {phi_1t}"
            )
        return constant / _gamma(1.0 + beta) * math.log(phi_1t) / phi_1t
    return constant / _gamma(1.0 + beta) / phi_1t


def subordinate_log_rate(spec: LaplaceExponent, lambda1: float) -> float:
    """ln Q(t) ~ -t phi(lambda_1) under a subordinator: returns -phi(lambda_1)."""
    if lambda1 <= 0.0:
        raise ValidationError(f"lambda1 must be > 0, got {lambda1}")
    return -float(spec(lambda1))


# ---------------------------------------------------------------------------
# The critical-regime x ln(1/x) machinery
# ---------------------------------------------------------------------------

_PLATEAU = math.exp(-1.0)


def monotonized_xlog(x: float) -> float:
    """x ln(1/x) on (0, 1/e], capped at its maximum 1/e beyond.

    Nondecreasing and continuous; agrees with x ln(1/x) up to the cap.
    """
    if x <= 0.0:
        raise ValidationError(f"x must be > 0, got {x}")
    if x <= _PLATEAU:
        return x * math.log(1.0 / x)
    return _PLATEAU


def expected_monotonized_xlog(beta: float, t: float) -> float:
    """E[V(E_t)] for the inverse beta-stable time change (V = capped x ln(1/x))."""
    low = expected_functional(
        beta, t, lambda x: x * math.log(1.0 / x) if x > 0 else 0.0, upper=_PLATEAU
    )
    tail_mass = expected_functional(beta, t, lambda x: 1.0, lower=_PLATEAU)
    return low.value + _PLATEAU * tail_mass.value


def expected_xlog(beta: float, t: float) -> float:
    """E[E_t ln(1/E_t)] for the inverse beta-stable time change."""
    return expected_functional(beta, t, lambda x: -x * math.log(x) if x > 0 else 0.0).value


def xlog_asymptote(beta: float, t: float) -> float:
    """Claimed small-time law of both E[V(E_t)] and E[E_t ln(1/E_t)]:

        (1/Gamma(1+beta)) phi(1/t)^-1 ln phi(1/t),  phi(s) = s^beta.
    """
    if not 0.0 < beta < 1.0:
        raise ValidationError(f"beta must be in (0, 1), got {beta}")
    if not 0.0 < t < 1.0:
        raise ValidationError(f"needs t in (0, 1) so ln phi(1/t) > 0, got {t}")
    phi_1t = t ** (-beta)
    return math.log(phi_1t) / (phi_1t * _gamma(1.0 + beta))


def moment_asymptote(p: float, spec: LaplaceExponent, t: float) -> float:
    """Gamma(p+1)/Gamma(p beta + 1) * phi(1/t)^-p.

    For the stable exponent this equals E[E_t^p] exactly at every t,
    which the tests validate against quadrature and against finite
    differences of the Laplace functional.
    """
    if p <= 0.0:
        raise ValidationError(f"p must be > 0, got {p}")
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    beta = spec.index_at_infinity
    return _gamma(p + 1.0) / _gamma(p * beta + 1.0) * float(spec(1.0 / t)) ** (-p)


# ---------------------------------------------------------------------------
# First-passage tail probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailProbeResult:
    slope: float
    ci_halfwidth: float
    expected_slope: float
    neg_log_tails: tuple[tuple[float, ...], ...]  # per delta, per t


def tail_decay_probe(
    beta: float,
    deltas,
    t_grid,
    n_samples: int,
    seed: int,
) -> TailProbeResult:
    """Fit the exponent of -ln P(E_t > delta) ~ c t^(-beta/(1-beta)).

    Estimates the tails by Monte Carlo with the exact inverse-stable
    sampler and regresses ln(-ln p) on ln t per delta; slopes are
    averaged over deltas and the CI is propagated from the binomial
    counting error.  Slowly varying factors are not modeled, so the
    fitted slope carries a known mild bias toward zero; choose the
    grid so tails stay resolved (p >= 10 / n_samples).
    """
    deltas = [float(d) for d in np.atleast_1d(deltas)]
    ts = np.asarray(t_grid, dtype=float)
    if ts.size < 3:
        raise ValidationError("need at least 3 grid points")
    if n_samples < 100:
        raise ValidationError("need n_samples >= 100")
    rng = derive_rng(seed)
    slopes, variances, tails = [], [], []
    x = np.log(ts)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    for d in deltas:
        neg_log, var_y = [], []
        for t in ts:
            e = sample_inverse_stable(beta, float(t), rng, n_samples)
            hits = int(np.count_nonzero(e > d))
            if hits == 0:
                raise UnresolvedTailError(
                    f"no exceedances of delta={d} at t={t}; enlarge n_samples or t"
                )
            p = hits / n_samples
            neg_log.append(-math.log(p))
            # var of ln(-ln p) via the delta method on the binomial p
            var_y.append((1.0 - p) / (n_samples * p) / (math.log(p) ** 2))
        y = np.log(neg_log)
        slope = float(np.sum(xc * (y - y.mean())) / sxx)
        slopes.append(slope)
        variances.append(float(np.sum(xc * xc * np.asarray(var_y)) / sxx ** 2))
        tails.append(tuple(neg_log))
    mean_slope = float(np.mean(slopes))
    ci = 1.96 * math.sqrt(sum(variances)) / len(deltas)
    return TailProbeResult(
        slope=mean_slope,
        ci_halfwidth=ci,
        expected_slope=-beta / (1.0 - beta),
        neg_log_tails=tuple(tails),
    )
