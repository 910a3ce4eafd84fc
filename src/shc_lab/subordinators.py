"""Laplace exponents and inverse-subordinator evaluation.

The supported Laplace exponents are the three concrete families the
analysis needs (stable, tempered stable, sum of two stables) plus the
pure drift, D_t = E_t = t: the identity time change, which
``time_change=None`` means in the Monte Carlo.  Each knows its
regular-variation indices at 0+ and at infinity, which drive the
asymptotic laws downstream, and owns its increment sampler (one delta
for all paths or one per path) with the longest piece it draws cheaply,
its Laplace functional E[exp(-a E_t)] of the inverse
E_t = inf{u : D_u > t}, and an exact E_t sampler (``inverse_times``)
where it has one: the stable family (E_t =d (t / D_1)^beta) and the
drift.  The stable exponent also counts #{E_1 > level} over the same
draws (``inverse_exceedances``), evaluating E_1 only where Kanter's bound
E_1 <= W^(1-beta) / k0 lets a draw reach a level.  Every stable draw
goes through one Kanter ratio r = delta K(U) / W^(1-beta) (``_kanter``):
a forward draw is r^(1/beta), an inverse one t^beta / r.  The base's
``inverse_steps`` counts the fixed-dt step budgets
#{k >= 1 : D_{k dt} <= t} = floor(E_t / dt) on the grid, all paths grown
together, for the exponents without that sampler;
``heat_content._step_budgets`` floors the exact E_t of the others.  The
functional takes a whole array of a (one per eigenvalue): the base
inverts phi(s) / (s (phi(s) + a)) on one Talbot contour, evaluating phi
once per node; only the drift (exp(-a t)) overrides it.
Expectations E[g(E_t)] for the stable family come from one tanh-sinh
(double-exponential) product rule over the Kanter representation
E_t =d t^beta (W / A(U))^(1-beta), U ~ Uniform(0, pi), W ~ Exp(1),
which evaluates g once on an array of E_t values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InversionError, RejectionBudgetError, ValidationError
from .special import _VARIATE_BLOCK, _blocks, _half_angle_sine, _tanh_sinh_nodes, laplace_invert

__all__ = [
    "StableExponent",
    "TemperedStableExponent",
    "SumOfStablesExponent",
    "DriftExponent",
    "LaplaceExponent",
    "sample_positive_stable",
    "sample_increments",
    "inverse_time_transform",
    "expected_laplace",
    "QuadratureResult",
    "expected_functional",
]

_REJECTION_CAP = 1_000_000
# kappa^beta times the longest tempered piece: acceptance about exp(-0.7)
_TILT_BUDGET = 0.7
# most tempered pieces one increment may take, each one pass over the
# paths (at this count about 0.1 s for one path, 3 s for 8,192); the test
# suite reaches 58 pieces, its increment property strategy at most 128
_PIECE_CAP = 1_000
# increments per block of the base inverse_steps (one column past that many paths)
_STEP_BLOCK = 16_384


# ---------------------------------------------------------------------------
# Laplace exponents
# ---------------------------------------------------------------------------


def _check_stable_index(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ValidationError(f"stable index must be in (0, 1), got {beta}")


class LaplaceExponent:
    """Base of the exponents: subclasses define phi (``__call__``), its two
    indices and :meth:`increments`, and override the numerical fallbacks
    for E_t where they have a closed form."""

    # longest increment drawn at the cost of one variate per path
    piece_length = math.inf
    # exact E_t per (t, path), coupled along the grid: a method
    # inverse_times(ts, size, rng) where the exponent has one (the stable
    # family and the drift), None where it has not
    inverse_times = None

    def increments(self, delta, size, rng: np.random.Generator) -> np.ndarray:
        """Independent increments D_delta, exact in distribution; ``delta``
        is one float for all paths or an array with one entry per path."""
        raise NotImplementedError

    def laplace_functional(self, a, t: float, tol: float):
        """E[exp(-a E_t)] for each entry of ``a``, by numerical inversion of
        the double Laplace transform; a scalar ``a`` gives a scalar."""
        value = laplace_invert(inverse_time_transform(self, a), t, tol=tol)
        # the exact value lies in [0, 1] and the inversion agrees with it to
        # tol, so a value in [-tol, 0) is round-off of an underflowing weight
        value = np.where((-tol <= value) & (value < 0.0), 0.0, value)
        if np.any(value > 1.0 + tol):
            raise InversionError(f"E[exp(-a E_t)] inverted to {value.max()!r} > 1 at t={t}")
        return value[()]

    def inverse_steps(self, ts, dt: float, size: int, rng) -> np.ndarray:
        """Step budgets #{k >= 1 : D_{k dt} <= t} = floor(E_t / dt) per
        (t, path), int64 of shape (len(ts), size), coupled across the grid:
        the fixed-dt budgets of the exponents without ``inverse_times``.

        E_t >= k dt exactly when D_{k dt} <= t.  Every path grows on the grid
        k * dt together, ``_STEP_BLOCK`` increments per block shared among the
        paths whose level is still <= max(ts); a tie D_{k dt} = D_{(k-1) dt}
        cannot change the count.
        """
        ts = np.asarray(ts, dtype=float)
        steps = np.zeros((ts.size, size), dtype=np.int64)
        horizon = float(ts.max(initial=0.0))
        level = np.zeros(size)
        # D_dt > 0 almost surely, so t = 0 needs no draws
        live = np.arange(size if horizon > 0.0 else 0)
        while live.size:
            cols = max(1, _STEP_BLOCK // live.size)
            inc = sample_increments(self, dt, live.size * cols, rng).reshape(live.size, cols)
            path = level[live, None] + np.cumsum(inc, axis=1)
            steps[:, live] += np.count_nonzero(path <= ts[:, None, None], axis=2)
            level[live] = path[:, -1]
            live = live[path[:, -1] <= horizon]
        return steps


@dataclass(frozen=True)
class StableExponent(LaplaceExponent):
    """phi(lam) = lam^beta, the beta-stable subordinator.

    Its inverse has an exact sampler, E_t =d (t / D_1)^beta
    (``inverse_times``), finite and positive for t > 0 at every beta, and
    the tail counts of E_1 at many levels come from the same draws without
    the array of E_1 (``inverse_exceedances``)."""

    beta: float

    def __post_init__(self):
        _check_stable_index(self.beta)

    def __call__(self, lam):
        return lam ** self.beta

    @property
    def index_at_zero(self) -> float:
        return self.beta

    @property
    def index_at_infinity(self) -> float:
        return self.beta

    def increments(self, delta, size, rng):
        return _scaled_stable(rng, self.beta, delta, size)

    def inverse_times(self, ts, size, rng):
        """Exact E_t =d (t / D_1)^beta per (t, path), one D_1 per path
        (self-similarity), so each path's E_t is nondecreasing along ``ts``;
        D_1 takes the draws of ``sample_positive_stable``."""
        u = _angles(rng, size)
        return _inverse_stable(u, rng.standard_exponential(size), self.beta, ts)

    def inverse_exceedances(self, levels, size, rng):
        """#{E_1 > level} per entry of ``levels``, int64, over the E_1 of
        ``inverse_times([1.0], size, rng)[0]``, bit for bit, leaving ``rng``
        in the same state; the E_1 of only the draws that can pass a level
        are evaluated.

        E_1 = (1 / S)^beta = W^(1-beta) / K(U), with K(u) = sin(beta u)^beta
        sin((1-beta) u)^(1-beta) / sin(u) increasing on (0, pi) from
        K(0+) = k0 = beta^beta (1-beta)^(1-beta) (Kanter, Ann. Probab. 3,
        1975), so E_1 <= W^(1-beta) / k0, which the evaluated E_1 keeps to
        1e-12 relative.  A draw with W^(1-beta) <= k0 m (1 - 1e-9) cannot
        pass the least level m.  U is drawn whole, then W block by block,
        which consumes the generator as one call does.  The candidates of
        successive blocks are gathered into batches of
        ``special._VARIATE_BLOCK`` pairs, each evaluated in one call as it
        fills, and the rest once at the end.
        """
        beta = self.beta
        levels = np.asarray(levels, dtype=float)
        counts = np.zeros(levels.shape, dtype=np.int64)
        k0 = beta ** beta * (1.0 - beta) ** (1.0 - beta)
        # a NaN level is passed by no draw and leaves every draw a candidate
        reach = k0 * levels.min(initial=math.inf) * (1.0 - 1e-9)
        with np.errstate(over="ignore"):
            w_min = np.power(reach, 1.0 / (1.0 - beta)) if reach > 0.0 else -math.inf
        for cand_u, cand_w in _candidates(_angles(rng, size), w_min, rng):
            e1 = _inverse_stable(cand_u, cand_w, beta, [1.0])[0]
            counts += np.count_nonzero(e1 > levels[..., None], axis=-1)
        return counts


@dataclass(frozen=True)
class TemperedStableExponent(LaplaceExponent):
    """phi(lam) = (lam + kappa)^beta - kappa^beta, tempered stable."""

    beta: float
    kappa: float

    def __post_init__(self):
        _check_stable_index(self.beta)
        if not 0.0 < self.kappa < math.inf:
            raise ValidationError(f"tempering rate must be finite and > 0, got {self.kappa}")

    def __call__(self, lam):
        return (lam + self.kappa) ** self.beta - self.kappa ** self.beta

    @property
    def index_at_zero(self) -> float:
        return 1.0

    @property
    def index_at_infinity(self) -> float:
        return self.beta

    @property
    def piece_length(self) -> float:
        return _TILT_BUDGET / self.kappa ** self.beta

    def increments(self, delta, size, rng):
        """Exponential tilting by rejection.

        Propose stable increments, accept with probability
        exp(-kappa * X).  Overall acceptance is exp(-delta * kappa^beta),
        so a large delta is chopped into pieces with acceptance around
        exp(-0.7) each; the result is exact in distribution by infinite
        divisibility.  Chunk k draws for the paths with more than k pieces;
        when every path takes it, its first round draws for all paths with
        the unindexed piece and adds the accepted candidates in place, and
        only the retry rounds index.  The cost grows linearly in delta, so
        a call that needs more than ``_PIECE_CAP`` pieces on a path raises
        before drawing, and so does a path rejected more than
        ``_REJECTION_CAP`` times on one piece, however many paths there are.
        """
        beta, kappa = self.beta, self.kappa
        budget = np.multiply(delta, kappa ** beta)
        n_chunks = np.maximum(1, np.ceil(budget / _TILT_BUDGET)).astype(np.int64)
        if n_chunks.max(initial=0) > _PIECE_CAP:
            raise RejectionBudgetError(
                f"tempered increment over delta={np.max(delta)} needs "
                f"{n_chunks.max()} pieces per path, more than {_PIECE_CAP}"
            )
        # the chunks every path takes
        shared = int(n_chunks.min(initial=_PIECE_CAP))
        piece = delta / n_chunks
        path_piece = np.broadcast_to(piece, size)
        n_chunks = np.broadcast_to(n_chunks, size)
        out = np.zeros(size)
        for k in range(int(n_chunks.max(initial=0))):
            if k < shared:
                cand = _scaled_stable(rng, beta, piece, size)
                accept = rng.uniform(size=size) <= np.exp(-kappa * cand)
                np.add(out, cand, out=out, where=accept)
                pending = np.flatnonzero(~accept)
                rejections = 1
            else:
                pending = np.flatnonzero(n_chunks > k)
                rejections = 0
            # every pending path was rejected in each round of this chunk
            while pending.size:
                if rejections > _REJECTION_CAP:
                    raise RejectionBudgetError(
                        f"tempering rejection cap exceeded: {rejections} rejections of "
                        f"one piece (kappa={kappa}, delta={np.max(delta)})"
                    )
                cand = _scaled_stable(rng, beta, path_piece[pending], pending.size)
                accept = rng.uniform(size=pending.size) <= np.exp(-kappa * cand)
                out[pending[accept]] += cand[accept]
                rejections += 1
                pending = pending[~accept]
        return out


@dataclass(frozen=True)
class SumOfStablesExponent(LaplaceExponent):
    """phi(lam) = lam^a + lam^b, sum of independent stable subordinators.

    Requires 0 < a < b <= 1.  (a = 0 would force phi(0+) = 1, breaking
    the defining property phi(0+) = 0 of a subordinator without
    killing.)  b = 1 contributes a unit drift.
    """

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < self.b <= 1.0:
            raise ValidationError(f"need 0 < a < b <= 1, got a={self.a}, b={self.b}")

    def __call__(self, lam):
        return lam ** self.a + lam ** self.b

    @property
    def index_at_zero(self) -> float:
        return self.a

    @property
    def index_at_infinity(self) -> float:
        return self.b

    def increments(self, delta, size, rng):
        first = _scaled_stable(rng, self.a, delta, size)
        if self.b == 1.0:
            return first + delta
        return first + _scaled_stable(rng, self.b, delta, size)


@dataclass(frozen=True)
class DriftExponent(LaplaceExponent):
    """phi(lam) = lam: deterministic time D_t = E_t = t.

    The identity time change (the Levy measure is zero, not infinite):
    ``InverseTime(DriftExponent())`` is what ``time_change=None`` means
    in the Monte Carlo, and every formula collapses to the plain motion's.
    """

    def __call__(self, lam):
        return lam

    @property
    def index_at_zero(self) -> float:
        return 1.0

    @property
    def index_at_infinity(self) -> float:
        return 1.0

    def increments(self, delta, size, rng):
        return np.full(size, delta)

    def laplace_functional(self, a, t, tol):
        return np.exp(-np.asarray(a, dtype=float) * t)[()]

    def inverse_times(self, ts, size, rng):
        """E_t = t per (t, path), the same for every path; no draw."""
        return np.repeat(np.asarray(ts, dtype=float)[:, None], size, axis=1)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def sample_positive_stable(rng: np.random.Generator, beta: float, size) -> np.ndarray:
    """One-sided beta-stable variates with Laplace transform exp(-lam^beta).

    Kanter's form of the Chambers-Mallows-Stuck construction:
    with U ~ Uniform(0, pi) and W ~ Exp(1),

        S = sin(beta U) / sin(U)^(1/beta)
            * (sin((1-beta) U) / W)^((1-beta)/beta)
          = (sin(beta U)^beta sin((1-beta) U)^(1-beta) / (sin(U) W^(1-beta)))^(1/beta),

    evaluated in the second form, as r^(1/beta) with r = S^beta from
    :func:`_kanter`.  All U are drawn first, U = pi R from R =
    ``rng.random()``, then all W; the draws are those of
    ``rng.uniform(0, pi, size)`` followed by ``rng.exponential(1.0, size)``,
    bit for bit.  A variate past the float range is inf.
    """
    return _scaled_stable(rng, beta, 1.0, size)


def _scaled_stable(rng: np.random.Generator, beta: float, delta, size) -> np.ndarray:
    """delta^(1/beta) S = r^(1/beta), one S per path as in
    :func:`sample_positive_stable`; only the result leaves the float range."""
    _check_stable_index(beta)
    u = _angles(rng, size)
    w = np.empty(u.shape)
    rng.standard_exponential(size, out=w)
    r = _kanter(u, w, beta, delta)
    with np.errstate(over="ignore", under="ignore"):
        r **= 1.0 / beta
    return r[()]


def _angles(rng: np.random.Generator, size) -> np.ndarray:
    """U = pi R from R = ``rng.random(size)``: the draws of
    ``rng.uniform(0, pi, size)``, bit for bit."""
    u = np.empty(() if size is None else size)
    rng.random(size, out=u)
    u *= math.pi
    return u


def _kanter(u: np.ndarray, w: np.ndarray, beta: float, delta) -> np.ndarray:
    """Kanter's ratio r = delta K(U) / W^(1-beta) = (delta^(1/beta) S)^beta,
    K(u) = sin(beta u)^beta sin((1-beta) u)^(1-beta) / sin(u), from the
    angles ``u`` and exponentials ``w`` (left intact), in place over blocks
    of ``special._VARIATE_BLOCK`` variates, each sine by its half-angle
    tangent (``special._half_angle_sine``).  U = 0 (probability 2^-53 per
    draw) takes the limit delta k0 / W^(1-beta), k0 = K(0+)."""
    out = np.empty(u.shape)
    flat_u, flat_w, flat_out = u.reshape(-1), w.reshape(-1), out.reshape(-1)
    with np.errstate(all="ignore"):
        for block, (a, b) in _blocks(flat_out.size, 2):
            r, ub = flat_out[block], flat_u[block]
            # sin(beta U)^beta
            np.multiply(ub, 0.5 * beta, out=a)
            np.tan(a, out=a)
            _half_angle_sine(a, r)
            a **= beta
            # times (sin((1 - beta) U) / W)^(1 - beta)
            np.multiply(ub, 0.5 * (1.0 - beta), out=b)
            np.tan(b, out=b)
            _half_angle_sine(b, r)
            b /= flat_w[block]
            b **= 1.0 - beta
            a *= b
            # over sin(U)
            np.multiply(ub, 0.5, out=b)
            np.tan(b, out=b)
            _half_angle_sine(b, r)
            np.divide(a, b, out=r)
        out *= delta
        zero = u == 0.0
        k0 = beta ** beta * (1.0 - beta) ** (1.0 - beta)
        out[zero] = k0 * np.broadcast_to(delta, u.shape)[zero] / w[zero] ** (1.0 - beta)
    return out


def _inverse_stable(u: np.ndarray, w: np.ndarray, beta: float, ts) -> np.ndarray:
    """E_t = (t / S)^beta = t^beta / r per (t, path), r = S^beta from
    :func:`_kanter`, for the draws ``u``, ``w`` of S = D_1: finite and positive
    for t, W > 0, as k0 / W^(1-beta) <= r < inf.  (t / S)^beta, the bits of a
    power of ``sample_positive_stable``, is kept where S and t / S are normal
    floats; t^beta / r takes the rest (at beta near 0.01 and below, for t = 1)."""
    ts = np.asarray(ts, dtype=float)[:, None]
    r = _kanter(u, w, beta, 1.0)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    with np.errstate(all="ignore"):
        s = r ** (1.0 / beta)
        q = ts / s
    e = q ** beta
    odd = ~((tiny <= q) & (q <= huge) & (tiny <= s) & (s <= huge))
    if odd.any():
        e[odd] = np.broadcast_to(ts, e.shape)[odd] ** beta / np.broadcast_to(r, e.shape)[odd]
    return e


def _candidates(u: np.ndarray, w_min, rng: np.random.Generator):
    """The pairs (U, W) with W > ``w_min``, in draw order, one W drawn per
    U block by block as one ``rng.standard_exponential(u.size)`` call
    draws them: in batches of ``special._VARIATE_BLOCK`` pairs, the last
    one shorter.  Until a batch fills, the pairs are kept as each block's
    few; ``u`` is released before the last batch, which is formed and
    evaluated in its place, so that a batch adds little to the caller's
    peak memory."""
    kept, filled = [], 0
    for block, (w,) in _blocks(u.size, 1):
        rng.standard_exponential(out=w)
        keep = w > w_min
        kept.append(np.stack([u[block][keep], w[keep]]))
        filled += kept[-1].shape[1]
        # a block adds at most one batch's worth, so one batch at most fills
        if filled >= _VARIATE_BLOCK:
            pairs = np.concatenate(kept, axis=1)
            yield pairs[:, :_VARIATE_BLOCK]
            kept, filled = [pairs[:, _VARIATE_BLOCK:]], filled - _VARIATE_BLOCK
    del u
    if filled:
        yield np.concatenate(kept, axis=1)


def sample_increments(
    spec: LaplaceExponent, delta, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Independent increments D_{delta} for the given exponent, exact in
    distribution; ``delta`` is one float or an array with one entry per path."""
    # NaN fails every comparison, so the check asks for the good case
    d = np.asarray(delta)
    bad = d[~((0.0 < d) & (d < math.inf))]
    if bad.size:
        raise ValidationError(f"delta must be finite and > 0, got {bad[0]}")
    return spec.increments(delta, size, rng)


# ---------------------------------------------------------------------------
# Laplace functionals of the inverse process
# ---------------------------------------------------------------------------


def inverse_time_transform(spec: LaplaceExponent, a) -> Callable:
    """Laplace transform (in t) of t -> E[exp(-a E_t)]:

        F(s) = phi(s) / (s (phi(s) + a)),  Re s > 0 and on the Talbot contour.

    For an array ``a`` the transform of nodes ``s`` has shape
    ``a.shape + s.shape``: phi is evaluated once per node and broadcast
    over every ``a``.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0):
        raise ValidationError(f"a must be > 0, got {a.min()!r}")

    def transform(s):
        ph = spec(s)
        return ph / (s * np.add.outer(a, ph))

    return transform


def expected_laplace(spec: LaplaceExponent, a, t: float, tol: float = 1.0e-9):
    """E[exp(-a E_t)] for the inverse subordinator of ``spec``, for each
    entry of ``a`` (a scalar ``a`` gives a scalar).

    The exponent evaluates its own functional: exp(-a t) for the drift,
    Talbot inversion of the double Laplace transform otherwise.
    """
    if np.any(np.asarray(a) <= 0.0) or t <= 0.0:
        raise ValidationError("a and t must be > 0")
    return spec.laplace_functional(a, t, tol)


# ---------------------------------------------------------------------------
# E[g(E_t)] by deterministic quadrature (stable family)
# ---------------------------------------------------------------------------

# exp(-w) contributes nothing representable beyond this width
_W_SUPPORT = 800.0


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature value and its error estimate: the gap to the rule of
    twice the step plus a bound on the terms truncated at the edges."""

    value: float
    error: float


def expected_functional(
    beta: float,
    t: float,
    g: Callable[[np.ndarray], np.ndarray],
    lower: float = 0.0,
    upper: float = math.inf,
) -> QuadratureResult:
    """E[g(E_t); lower < E_t <= upper] for the inverse beta-stable time change.

    One tanh-sinh (double-exponential) product rule, 289 x 289 nodes, over
    the Kanter variables of E_t = t^beta (W / A(U))^(1-beta), U uniform on
    (0, pi), W ~ Exp(1): u in (0, pi) and v = W - wlo(u) in
    (0, min(whi - wlo, ``_W_SUPPORT``)), where (wlo, whi] are the exact
    W-limits of the region at each u node, so an indicator is never a jump.
    The rule resolves algebraic singularities at the ends of both axes.

    ``g`` is called once, on a 1-D ndarray of the E_t (all > 0) at the kept
    nodes, and returns an array of that shape or a scalar.  Nodes where
    e^-W is below the least double (W > 745) or where the weight or E_t
    underflows to 0 are dropped, with g's mass there.  ``error`` is
    |I_h - I_2h|, I_2h from the even nodes of the same evaluation, plus a
    bound on the terms past the edges, so that a truncated tail (g = x^p
    near p = -1) shows in it.  A non-finite sum raises ``ValidationError``.
    """
    _check_stable_index(beta)
    if t <= 0.0:
        raise ValidationError(f"t must be > 0, got {t}")
    if not 0.0 <= lower < upper:
        raise ValidationError(f"need 0 <= lower < upper, got [{lower}, {upper}]")
    x, y, rule = _tanh_sinh_nodes()
    pw = 1.0 - beta
    inv = 1.0 / pw
    log_tb = beta * math.log(t)
    # ln A(u) at u = pi x, with sin(u) from the nearer end
    log_a = (beta * inv) * np.log(np.sin(beta * math.pi * x)) + np.log(np.sin(pw * math.pi * x))
    log_a -= inv * np.log(np.sin(math.pi * np.minimum(x, y)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # W = A(u) (E_t / t^beta)^(1/(1-beta)) at E_t = lower and upper
        wlo, whi = np.exp(log_a + inv * (np.log([[lower], [upper]]) - log_tb))
        rows = wlo <= 745.0
        wlo, width, log_a = wlo[rows], np.minimum(whi - wlo, _W_SUPPORT)[rows], log_a[rows]
        # x ascends, so the columns with W <= 745 in some row are a prefix
        cols = int(np.searchsorted(x, np.max((745.0 - wlo) / width, initial=0.0), side="right"))
        w_node = width[:, None] * x[:cols] + wlo[:, None]
        weight = rule[rows, None] * rule[:cols] * width[:, None] * np.exp(-w_node)
        e = np.exp(log_tb + pw * (np.log(w_node) - log_a[:, None]))
    weight[e == 0.0] = 0.0
    keep = weight > 0.0
    weight[keep] *= g(e[keep])
    terms = np.zeros((x.size, x.size))
    terms[rows, :cols] = weight
    value = float(terms.sum())
    if not math.isfinite(value):
        raise ValidationError("integrand is not integrable for this g")
    a = np.abs(terms)
    sums = np.stack([a.sum(axis=1), a.sum(axis=0)])
    last, inner = sums[:, [0, -1]], sums[:, [1, -2]]
    with np.errstate(divide="ignore", invalid="ignore"):
        # past an edge the terms shrink by a ratio r = last / inner that only
        # falls, so with the edge's own they sum to at most last / (1 - r)
        tail = np.where(last < inner, last * inner / (inner - last), math.inf)
    tail[last == 0.0] = 0.0
    coarse = 4.0 * float(terms[::2, ::2].sum())
    return QuadratureResult(value=value, error=abs(value - coarse) + float(tail.sum()))
