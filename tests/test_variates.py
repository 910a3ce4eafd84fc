"""The two stable variate kernels against the textbook formulas, and
against their whole-array forms bit for bit.

``sample_positive_stable`` (Kanter) and ``sample_symmetric_stable``
(Chambers-Mallows-Stuck) evaluate their formulas from tangents, in place,
block by block.  The oracle is the textbook formula on the same (U, W)
draws, evaluated in extended precision from the same float64 angles and
exponents, so only the kernels' own rounding separates the two.  A second
oracle draws through ``rng.uniform`` and ``rng.exponential`` and evaluates
the same formulas on whole arrays with numpy's allocating operators: the
in-place samplers must give every variate the same bits.
"""

import math

import numpy as np
import pytest

from shc_lab import ValidationError, sample_positive_stable, sample_symmetric_stable
from shc_lab.seeding import derive_rng
from shc_lab.special import _VARIATE_BLOCK
from shc_lab.stable_motion import _cms
from shc_lab.subordinators import _kanter

LD = np.longdouble
TOL = 1e-13
TINY = np.finfo(float).tiny
HUGE = np.finfo(float).max

pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps >= np.finfo(float).eps,
    reason="the oracle needs a long double wider than float64",
)

ALPHAS = [0.3, 0.7, 1.2, 1.5, 1.9]
BETAS = [0.01, 0.3, 0.5, 0.9]
SIZES = [None, 2 * _VARIATE_BLOCK + 123, (3, 5_000)]


def kanter_oracle(u, w, beta):
    """sin(beta U) / sin(U)^(1/beta) * (sin((1-beta) U) / W)^((1-beta)/beta)."""
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    return (
        np.sin((beta * u).astype(LD))
        / np.sin(u.astype(LD)) ** LD(1.0 / beta)
        * (np.sin(((1.0 - beta) * u).astype(LD)) / w.astype(LD)) ** LD((1.0 - beta) / beta)
    )


def cms_oracle(u, w, alpha):
    """sin(alpha U) / cos(U)^(1/alpha) * (cos((1-alpha) U) / W)^((1-alpha)/alpha)."""
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    return (
        np.sin((alpha * u).astype(LD))
        / np.cos(u.astype(LD)) ** LD(1.0 / alpha)
        * (np.cos(((1.0 - alpha) * u).astype(LD)) / w.astype(LD)) ** LD((1.0 - alpha) / alpha)
    )


def assert_matches(x, oracle):
    """Relative error <= TOL where the oracle is a normal float; inf past
    the float range and at most TINY below it."""
    x = np.asarray(x)
    assert x.shape == oracle.shape
    size = np.abs(oracle)
    normal = (TINY <= size) & (size <= HUGE)
    rel = np.abs((x[normal] - oracle[normal]) / oracle[normal])
    assert rel.max(initial=0.0) <= TOL
    assert np.all(np.isinf(x[size > HUGE]))
    assert np.all(np.abs(x[size < TINY]) <= TINY)


def draws(seed, low, high, size):
    """The U and W a kernel draws, and the generator state after them."""
    rng = derive_rng(seed)
    u = rng.uniform(low, high, size)
    w = rng.exponential(1.0, size)
    return u, w, rng.bit_generator.state


@pytest.mark.parametrize("size", SIZES, ids=["none", "ragged", "2d"])
@pytest.mark.parametrize("beta", BETAS)
def test_kanter_matches_textbook(beta, size):
    rng = derive_rng(7001)
    x = sample_positive_stable(rng, beta, size)
    u, w, state = draws(7001, 0.0, math.pi, size)
    assert rng.bit_generator.state == state
    assert_matches(x, kanter_oracle(u, w, beta))


@pytest.mark.parametrize("size", SIZES, ids=["none", "ragged", "2d"])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_cms_matches_textbook(alpha, size):
    rng = derive_rng(7002)
    x = sample_symmetric_stable(rng, alpha, size)
    u, w, state = draws(7002, -math.pi / 2.0, math.pi / 2.0, size)
    assert rng.bit_generator.state == state
    assert_matches(x, cms_oracle(u, w, alpha))


def steps_from(x, toward, n):
    """x and the n floats after it in the direction of ``toward``."""
    out = [x]
    for _ in range(n):
        out.append(float(np.nextafter(out[-1], toward)))
    return out


# the smallest angles uniform(0, pi) returns, and the floats just below pi
KANTER_EDGES = [k * math.pi * 2.0 ** -53 for k in (1, 2, 3)] + steps_from(math.pi, 0.0, 3)
# the floats at and just inside -pi/2 and pi/2, and 0
CMS_EDGES = steps_from(-math.pi / 2.0, 0.0, 3) + [0.0] + steps_from(math.pi / 2.0, 0.0, 3)
EDGE_W = [1e-6, 0.5, 1.0, 5.0, 30.0]


def edge_grid(edges):
    u, w = np.meshgrid(edges, EDGE_W, indexing="ij")
    return u.ravel(), w.ravel()


def cms_in_place(u, w, alpha):
    """The arithmetic sample_symmetric_stable runs on one block, fed the
    given angles and exponentials directly (uniform draws cannot reach
    every float next to -pi/2 and pi/2)."""
    x = np.array(u, dtype=float)
    _cms(x, np.array(w, dtype=float), np.empty_like(x), np.empty_like(x), alpha)
    return x


@pytest.mark.parametrize("beta", BETAS)
def test_kanter_edge_angles(beta):
    u, w = edge_grid(KANTER_EDGES)
    x = _kanter(u, w, beta, 1.0, 1.0)
    assert not np.any(np.isnan(x))
    assert np.all(x > 0.0)
    assert_matches(x, kanter_oracle(u, w, beta))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_cms_edge_angles(alpha):
    # at alpha = 0.3, U one float inside -pi/2 or pi/2 gives |X| near 1e54
    u, w = edge_grid(CMS_EDGES)
    x = cms_in_place(u, w, alpha)
    assert np.all(np.isfinite(x))
    assert np.array_equal(np.sign(x), np.sign(u))
    assert_matches(x, cms_oracle(u, w, alpha))


@pytest.mark.parametrize("beta", BETAS)
def test_kanter_zero_angle(beta):
    # uniform(0, pi) returns 0.0 with probability 2^-53; the variate is the
    # limit U -> 0, which the textbook formula at U = 1e-9 matches to O(U^2)
    w = np.array(EDGE_W)
    x = _kanter(np.zeros_like(w), w, beta, 1.0, 1.0)
    assert_matches(x, kanter_oracle(np.full_like(w, 1e-9), w, beta))


# ---------------------------------------------------------------------------
# Bit identity with the whole-array kernels
# ---------------------------------------------------------------------------


def _half_angle_sine(tau):
    return 2.0 * tau / (1.0 + tau * tau)


def kanter_whole_array(rng, beta, size):
    """sample_positive_stable as it was before it drew and evaluated in place."""
    u = rng.uniform(0.0, math.pi, size)
    w = rng.exponential(1.0, size)
    shape = np.shape(u)
    # the formula ran on flat arrays, never on numpy scalars, whose ** differs
    # from the array loop's in the last bit for about one argument in twenty
    u, w = np.atleast_1d(u).reshape(-1), np.atleast_1d(w).reshape(-1)
    with np.errstate(all="ignore"):
        ratio = (
            _half_angle_sine(np.tan(0.5 * beta * u)) ** beta
            * (_half_angle_sine(np.tan(0.5 * (1.0 - beta) * u)) / w) ** (1.0 - beta)
            / _half_angle_sine(np.tan(0.5 * u))
        )
        return (ratio ** (1.0 / beta)).reshape(shape)


def cms_whole_array(rng, alpha, size):
    """sample_symmetric_stable as it was before it drew and evaluated in place."""
    if alpha == 2.0:
        return math.sqrt(2.0) * rng.standard_normal(size)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    if alpha == 1.0:
        return np.tan(u)
    w = rng.exponential(1.0, size)
    shape = np.shape(u)
    u, w = np.atleast_1d(u).reshape(-1), np.atleast_1d(w).reshape(-1)
    rest = 1.0 - alpha
    tan_u = np.tan(u)
    tan_rest = np.tan(rest * u)
    return (
        _half_angle_sine(np.tan(0.5 * alpha * u))
        * (1.0 + tan_u * tan_u) ** (0.5 / alpha)
        * (np.sqrt(1.0 + tan_rest * tan_rest) * w) ** (-rest / alpha)
    ).reshape(shape)


def assert_same_bits(sampler, oracle, param, size, seed):
    rng, twin = derive_rng(seed), derive_rng(seed)
    x = sampler(rng, param, size)
    expected = oracle(twin, param, size)
    assert np.shape(x) == np.shape(expected)
    assert np.array_equal(x, expected)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("size", SIZES, ids=["none", "ragged", "2d"])
@pytest.mark.parametrize("beta", BETAS)
def test_kanter_same_bits(beta, size):
    # at beta = 0.01 some variates lie past the float range: the log path
    # gives inf there, as the whole-array formula does
    assert_same_bits(sample_positive_stable, kanter_whole_array, beta, size, 7003)


@pytest.mark.parametrize("size", SIZES, ids=["none", "ragged", "2d"])
@pytest.mark.parametrize("alpha", ALPHAS + [1.0, 2.0])
def test_cms_same_bits(alpha, size):
    assert_same_bits(sample_symmetric_stable, cms_whole_array, alpha, size, 7004)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
def test_cms_fills_out(alpha):
    # one buffer, reused: each call overwrites it with the draws a fresh
    # array would hold, and returns it
    size = (3, 5_000)
    out = np.full(size, np.nan)
    rng, twin = derive_rng(7005), derive_rng(7005)
    for _ in range(2):
        assert sample_symmetric_stable(rng, alpha, size, out=out) is out
        assert np.array_equal(out, cms_whole_array(twin, alpha, size))
    row = out[0]
    assert sample_symmetric_stable(rng, alpha, out=row) is row
    assert np.array_equal(row, cms_whole_array(twin, alpha, 5_000))


@pytest.mark.parametrize(
    "out", [np.empty((5_000, 3)).T, np.empty(5, dtype=np.float32)], ids=["strided", "float32"]
)
def test_cms_rejects_bad_out(out):
    with pytest.raises(ValidationError, match="C-contiguous float64"):
        sample_symmetric_stable(derive_rng(0), 1.5, out=out)
