"""Property tests: config round-trip, increment samplers, series certificate,
Mittag-Leffler range and monotonicity, and the exit walk's budget layout."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shc_lab import (
    DriftExponent,
    ExperimentConfig,
    IntervalDomain,
    StableExponent,
    SumOfStablesExponent,
    TemperedStableExponent,
    ValidationError,
    bm_interval_eigensystem,
    mittag_leffler,
    parse_config_file,
    sample_increments,
    weighted_series,
)
from shc_lab.experiments import _EIGEN, _FIT_POINTS, _MAX_BASIS, _STABLE_ONLY, EXPERIMENTS
from shc_lab.seeding import derive_rng
from shc_lab.stable_motion import _unit_extremes

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)
index = st.floats(min_value=0.05, max_value=0.95)
# values survive the key=value format: no comment marker, no line break,
# no surrounding blanks
word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-/", min_size=1, max_size=12)


@st.composite
def configs(draw) -> ExperimentConfig:
    t_min = draw(positive)
    a = draw(index)
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))
    # the parser rejects what a law lacks: small_time_mc needs alpha < 2 and
    # phi's index at infinity below 1 (so no drift, and b < 1 for a sum),
    # large_time phi's index at 0+ below 1 (so no drift, no tempered)
    small_time = experiment == "small_time_mc"
    phis = ["stable", "tempered", "sum", "drift"]
    if experiment in _STABLE_ONLY:
        phis = ["stable"]
    elif small_time:
        phis = ["stable", "tempered", "sum"]
    elif experiment == "large_time":
        phis = ["stable", "sum"]
    phi = draw(st.sampled_from(phis))
    alpha = draw(st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=small_time))
    # below alpha = 2 an eigen series caps its Galerkin basis
    capped = experiment in _EIGEN and alpha < 2.0
    domain_a, domain_b = draw(st.lists(finite, min_size=2, max_size=2, unique=True).map(sorted))
    assume(math.isfinite(domain_b - domain_a))  # an overflowing length is rejected
    # a fitting experiment needs a grid of distinct points
    points = _FIT_POINTS.get(experiment, 1)
    t_max = t_min * draw(st.floats(min_value=1.0, max_value=1e6))
    assume(math.isfinite(t_max))
    assume(experiment not in _FIT_POINTS or t_max > t_min)
    b_below_one = small_time and phi == "sum"  # a sum's index at infinity is b
    bs = st.floats(min_value=a, max_value=1.0, exclude_min=True, exclude_max=b_below_one)
    try:
        return ExperimentConfig(
            experiment=experiment,
            seed=draw(st.integers(min_value=0, max_value=2 ** 70)),
            t_min=t_min,
            t_max=t_max,
            t_points=draw(st.integers(min_value=points, max_value=10 ** 6)),
            alpha=alpha,
            phi=phi,
            beta=draw(index),
            kappa=draw(positive),
            a=a,
            b=draw(bs if b_below_one else st.one_of(st.just(1.0), bs)),
            domain_a=domain_a,
            domain_b=domain_b,
            n_paths=draw(st.integers(min_value=1, max_value=10 ** 12)),
            n_steps=draw(st.integers(min_value=1, max_value=10 ** 6)),
            truncation=draw(st.integers(min_value=1, max_value=_MAX_BASIS if capped else 10 ** 6)),
            tolerance=draw(positive),
            delta=draw(finite),
            out=draw(word),
        )
    except ValidationError as exc:
        # the parser evaluates the experiment's law at t_max, which depends on
        # the whole exponent and domain: at alpha = 1 the critical law needs
        # s = 1/phi(1/t_max) < 1, the other regimes a phi(1/t_max) that does
        # not round to 0, and the large-time constant L^(1 + alpha) must not
        # overflow: draw again
        assume(not any(m in str(exc) for m in ("critical rate", "is infinite", "overflows")))
        raise


@settings(max_examples=200, deadline=None)
@given(cfg=configs())
def test_config_round_trip(tmp_path_factory, cfg):
    # every field written as key = value
    lines = [
        f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
        for k, v in vars(cfg).items()
    ]
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert parse_config_file(path) == cfg


exponents = st.one_of(
    st.builds(StableExponent, index),
    st.builds(TemperedStableExponent, index, st.floats(min_value=0.1, max_value=10.0)),
    index.flatmap(
        lambda a: st.builds(
            SumOfStablesExponent,
            st.just(a),
            st.one_of(st.just(1.0), st.floats(min_value=a, max_value=1.0, exclude_min=True)),
        )
    ),
    st.just(DriftExponent()),
)


@settings(max_examples=100, deadline=None)
@given(
    spec=exponents,
    delta=st.floats(min_value=1e-4, max_value=10.0),
    size=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
def test_increments_finite_positive(spec, delta, size, seed):
    inc = sample_increments(spec, delta, size, derive_rng(seed))
    assert inc.shape == (size,)
    assert np.all(np.isfinite(inc))
    assert np.all(inc > 0.0)


# masses 8L/(n pi)^2 on odd n: far past any truncation below
_FAR = np.arange(1, 200_001, dtype=float)


@settings(max_examples=100, deadline=None)
@given(
    length=st.floats(min_value=0.5, max_value=5.0),
    n_modes=st.integers(min_value=1, max_value=300),
    kind=st.sampled_from(["exp", "power"]),
    scale=st.floats(min_value=1e-3, max_value=10.0),
)
def test_series_bracket_contains_longer_sum(length, n_modes, kind, scale):
    # the exact sum lies in [value, value + tail_bound]; so does any longer
    # partial sum, which is a lower bound of the exact sum
    if kind == "exp":
        weights = lambda lam: np.exp(-lam * scale)
    else:
        weights = lambda lam: (1.0 + lam) ** -scale
    eig = bm_interval_eigensystem(IntervalDomain(0.0, length), n_modes)
    sv = weighted_series(eig, weights)
    lam = (_FAR * math.pi / length) ** 2
    msq = np.where(_FAR % 2 == 1, 8.0 * length / (_FAR ** 2 * math.pi ** 2), 0.0)
    longer = float(np.sum(weights(lam) * msq))
    slack = 1e-12 * length
    assert sv.value - slack <= longer <= sv.value + sv.tail_bound + slack


@settings(max_examples=300, deadline=None)
@given(
    beta=st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
    log_a=st.floats(min_value=-3.0, max_value=4.0),
    step=st.floats(min_value=1e-6, max_value=1.0),
)
def test_mittag_leffler_bounded_and_monotone(beta, log_a, step):
    # |x| from 1e-3 to 1e4 moves the integral's knots (the weight's step
    # at t0 = -log(a) and t0 - 40 beta below it) past the kernel's peak.  Steps
    # stay above the rounding of the value (an ulp step can go either way),
    # and beta = 1 is exp(x), which underflows to 0 past |x| = 745.
    a = 10.0 ** log_a
    near = mittag_leffler(beta, -a)
    far = mittag_leffler(beta, -a * (1.0 + step))
    assert 0.0 < far <= near <= 1.0


@st.composite
def permuted_budgets(draw):
    budgets = draw(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=30, unique=True))
    return np.array(budgets), np.array(draw(st.permutations(range(len(budgets)))))


@settings(max_examples=100, deadline=None)
@given(
    case=permuted_budgets(),
    alpha=st.sampled_from([0.7, 1.0, 1.5, 2.0]),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
def test_walk_permutation_equivariant(case, alpha, seed):
    # with distinct budgets the budget order fixes which variates each path
    # sees, so relabelling the paths relabels their extremes and exits
    budgets, perm = case
    rng = derive_rng(seed)
    x0 = rng.uniform(0.0, 1.0, budgets.size)
    scale = rng.uniform(0.01, 0.2)

    def walk(x0, budgets):
        top, bottom = _unit_extremes(alpha, budgets[None, :], 1.0 / scale, derive_rng(seed, 1))
        return top, bottom, (x0 + scale * top < 1.0) & (x0 + scale * bottom > 0.0)

    walked = walk(x0, budgets)
    for got, want in zip(walk(x0[perm], budgets[perm]), walked):
        assert np.array_equal(got, want[:, perm])
