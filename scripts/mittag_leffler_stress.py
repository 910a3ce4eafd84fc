"""Stress check of ``shc_lab.special.mittag_leffler``, outside the test suite.

Every warning is an error.  Seven parts, each printing what it checked:

1. the bounded-and-monotone property of ``tests/test_properties.py``
   with |x| widened to [1e-3, 1e6], over many hypothesis examples;
2. randomized monotone pairs, with beta drawn near 1/2, near 1 and
   across (0, 1), and |x| in [1e-4, 1e10];
3. tiny |x| in [5e-324, 1e-6], where the integral's step lies far out in
   the kernel's tail, against 1 - |x| / Gamma(1 + beta) + x^2 / Gamma(1 + 2 beta);
4. huge |x| in [1e10, 1e300], relative to three terms of the
   asymptotic series sum_k -x^-k / Gamma(1 - beta k), for beta <= 0.999;
5. agreement with Talbot inversion (``expected_laplace`` at t = 1) for
   beta in [0.05, 0.999] and |x| in [1e-2, 1e3];
6. the absolute error against an independent 40-digit evaluation:
   mpmath's power series for |x| <= 1/2 and its Talbot inversion of
   s^(beta-1) / (s^beta + a) at t = 1 above;
7. the same at |x| within ulps of e^(-40 beta), where the integral's
   knot t0 - 40 beta, t0 = -log|x|, crosses the kernel's peak at t = 0.

Needs hypothesis and mpmath (the ``test`` and ``bench`` extras).  Run from
the repository root:

    PYTHONPATH=src python scripts/mittag_leffler_stress.py [n_examples]
"""

import math
import sys
import warnings

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rgamma

from shc_lab import StableExponent, expected_laplace, mittag_leffler

warnings.simplefilter("error")


def property_examples(n_examples: int) -> None:
    @settings(max_examples=n_examples, deadline=None, database=None)
    @given(
        beta=st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
        log_a=st.floats(min_value=-3.0, max_value=6.0),
        step=st.floats(min_value=1e-6, max_value=1.0),
    )
    def prop(beta, log_a, step):
        a = 10.0 ** log_a
        near = mittag_leffler(beta, -a)
        far = mittag_leffler(beta, -a * (1.0 + step))
        assert 0.0 < far <= near <= 1.0

    prop()
    print(f"property: {n_examples} examples passed")


def randomized_pairs(rng, n_cases: int) -> None:
    third = n_cases // 3
    betas = np.concatenate([
        0.5 + rng.uniform(-1e-12, 1e-12, third),
        1.0 - rng.uniform(2.0 ** -52, 1e-12, third),
        rng.uniform(1e-3, 1.0, n_cases - 2 * third),
    ])
    xs = 10.0 ** rng.uniform(-4.0, 10.0, n_cases)
    steps = 10.0 ** rng.uniform(-6.0, 0.0, n_cases)
    for beta, a, step in zip(betas, xs, steps):
        near = mittag_leffler(float(beta), -float(a))
        far = mittag_leffler(float(beta), -float(a * (1.0 + step)))
        assert 0.0 < far <= near <= 1.0, (beta, a, step, near, far)
    print(f"randomized: {n_cases} monotone pairs passed")


def tiny_arguments(rng, n_cases: int) -> None:
    betas = rng.uniform(1e-3, 1.0, n_cases)
    xs = 10.0 ** rng.uniform(-323.0, -6.0, n_cases)
    betas, xs = np.append(betas, 0.5), np.append(xs, 5e-324)
    worst = 0.0
    for beta, a in zip(betas, xs):
        expected = 1.0 - a / math.gamma(1.0 + beta) + a * a / math.gamma(1.0 + 2.0 * beta)
        worst = max(worst, abs(mittag_leffler(float(beta), -float(a)) - expected))
    print(f"tiny: {len(xs)} arguments, max abs error = {worst:.3g}")
    assert worst <= 1e-15


def huge_arguments(rng, n_cases: int) -> None:
    worst = 0.0
    for beta, log_a in zip(rng.uniform(1e-3, 0.999, n_cases), rng.uniform(10.0, 300.0, n_cases)):
        a, r = 10.0 ** log_a, 10.0 ** -log_a
        terms = [rgamma(1.0 - beta * k) * (-r) ** (k - 1) for k in (1, 2, 3)]
        expected = r * sum(terms)
        worst = max(worst, abs(mittag_leffler(float(beta), -a) / expected - 1.0))
    print(f"huge: {n_cases} arguments, max rel error = {worst:.3g}")
    assert worst <= 1e-12


def talbot_agreement(rng, n_betas: int) -> None:
    a = np.logspace(-2, 3, 41)
    worst = 0.0
    for beta in rng.uniform(0.05, 0.999, n_betas):
        ref = expected_laplace(StableExponent(float(beta)), a, 1.0)
        vals = np.array([mittag_leffler(float(beta), -float(x)) for x in a])
        worst = max(worst, float(np.max(np.abs(vals - ref))))
    print(f"talbot: {n_betas} betas x {a.size} arguments, max |diff| = {worst:.3g}")
    assert worst <= 1e-11


def reference(beta, a):
    b, x = mpmath.mpf(beta), mpmath.mpf(a)
    if x <= 0.5:
        return mpmath.nsum(lambda k: (-x) ** k / mpmath.gamma(b * k + 1), [0, mpmath.inf])
    return mpmath.invertlaplace(lambda s: s ** (b - 1) / (s ** b + x), 1, method="talbot")


def high_precision(betas, a) -> None:
    mpmath.mp.dps = 40
    worst = 0.0
    for beta in betas:
        for x in a:
            worst = max(worst, float(abs(mittag_leffler(beta, -x) - reference(beta, x))))
    print(f"mpmath: {len(betas)} betas x {len(a)} arguments, max abs error = {worst:.3g}")


def knot_crossings() -> None:
    mpmath.mp.dps = 40
    worst, n_cases = 0.0, 0
    for beta in (1e-3, 0.3, 0.7, 0.999, 1.0 - 2.0 ** -52):
        for k in range(-4, 5):
            a = math.exp(-40.0 * beta) * (1.0 + k * 2.0 ** -52)
            worst = max(worst, float(abs(mittag_leffler(beta, -a) - reference(beta, a))))
            n_cases += 1
    print(f"knot crossings: {n_cases} arguments, max abs error = {worst:.3g}")
    assert worst <= 1e-15


def main() -> None:
    n_examples = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    rng = np.random.default_rng(20021)
    property_examples(n_examples)
    randomized_pairs(rng, 24_000)
    tiny_arguments(rng, 20_000)
    huge_arguments(rng, 20_000)
    talbot_agreement(rng, 200)
    high_precision(
        [1e-3, 0.01, 0.1, 0.25 + 1e-9, 0.3, 0.5, 0.5 + 1e-12, 0.7, 0.9, 0.999,
         1.0 - 2.0 ** -45, 1.0 - 2.0 ** -52],
        [1e-300, 1e-100, 1e-40] + np.logspace(-20, 10, 61).tolist(),
    )
    knot_crossings()


if __name__ == "__main__":
    main()
