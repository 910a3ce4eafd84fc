"""The two stable variate kernels against the textbook formulas.

``sample_positive_stable`` (Kanter) and ``sample_symmetric_stable``
(Chambers-Mallows-Stuck) evaluate their formulas from tangents, block by
block.  The oracle is the textbook formula on the same (U, W) draws,
evaluated in extended precision from the same float64 angles and
exponents, so only the kernels' own rounding separates the two.
"""

import math

import numpy as np
import pytest

from shc_lab import sample_positive_stable, sample_symmetric_stable
from shc_lab.seeding import derive_rng
from shc_lab.special import _VARIATE_BLOCK

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


class StubGenerator:
    """Stands in for a Generator: returns the given U and W."""

    def __init__(self, u, w):
        self.u, self.w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)

    def uniform(self, low, high, size):
        assert np.shape(self.u) == np.shape(np.empty(size))
        return self.u

    def exponential(self, scale, size):
        return self.w


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


@pytest.mark.parametrize("beta", BETAS)
def test_kanter_edge_angles(beta):
    u, w = edge_grid(KANTER_EDGES)
    x = sample_positive_stable(StubGenerator(u, w), beta, u.size)
    assert not np.any(np.isnan(x))
    assert np.all(x > 0.0)
    assert_matches(x, kanter_oracle(u, w, beta))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_cms_edge_angles(alpha):
    # at alpha = 0.3, U one float inside -pi/2 or pi/2 gives |X| near 1e54
    u, w = edge_grid(CMS_EDGES)
    x = sample_symmetric_stable(StubGenerator(u, w), alpha, u.size)
    assert np.all(np.isfinite(x))
    assert np.array_equal(np.sign(x), np.sign(u))
    assert_matches(x, cms_oracle(u, w, alpha))


@pytest.mark.parametrize("beta", BETAS)
def test_kanter_zero_angle(beta):
    # uniform(0, pi) returns 0.0 with probability 2^-53; the variate is the
    # limit U -> 0, which the textbook formula at U = 1e-9 matches to O(U^2)
    w = np.array(EDGE_W)
    x = sample_positive_stable(StubGenerator(np.zeros_like(w), w), beta, w.size)
    assert_matches(x, kanter_oracle(np.full_like(w, 1e-9), w, beta))
