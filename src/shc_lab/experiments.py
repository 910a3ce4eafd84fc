"""Experiment runner: configs, ratio tables, slope fits, and outputs.

A config is a flat key=value text file (plus command-line overrides);
each experiment produces a CSV table with the fixed header

    t,computed,reference,ratio,error_bound,method

and a JSON sidecar carrying the config echo, per-row data, and a
summary (fitted slope/intercept/R^2 where applicable).  Reruns of the
same config are byte-identical in both; the run's wall clock and the
python/numpy/scipy versions go to a separate ``<exp>.run.json``.
"""

from __future__ import annotations

import json
import math
import platform
import time
import typing
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .asymptotics import (
    Regime,
    classify_regime,
    large_time_asymptote,
    _large_time_index,
    small_time_asymptote,
    _small_time_indices,
    small_time_rate,
    subordinate_log_rate,
    moment_asymptote,
    tail_decay_probe,
)
from .errors import ValidationError
from .heat_content import (
    InverseTime,
    SubordinatorTime,
    heat_content,
    monte_carlo_heat_content_grid,
)
from .seeding import _check_integer
from .spectral import IntervalDomain, bm_interval_eigensystem, stable_interval_eigensystem
from .special import laplace_invert, mittag_leffler
from .subordinators import (
    DriftExponent,
    StableExponent,
    SumOfStablesExponent,
    TemperedStableExponent,
    expected_functional,
    inverse_time_transform,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "ExperimentResult",
    "FitResult",
    "fit_loglog",
    "run_experiment",
    "EXPERIMENTS",
    "parse_config_file",
    "write_outputs",
]

EXPERIMENTS = {
    "large_time": "inverse-time-changed heat content vs the polynomial large-time law",
    "subordinate_rate": "subordinate heat content log-rate vs -phi(lambda_1)",
    "small_time_mc": "Monte Carlo small-time deficit slope vs the three-regime law",
    "transform_consistency": "Talbot inversion of the double Laplace transform vs the Mittag-Leffler oracle",
    "moment_laws": "quadrature moments of E_t vs the exact stable moment formula",
    "tail_probe": "first-passage tail exponent -beta/(1-beta) by Monte Carlo regression",
}

# experiments whose references are closed forms of the stable exponent
_STABLE_ONLY = ("transform_consistency", "moment_laws", "tail_probe")
# experiments on an eigen series, whose Galerkin build below alpha = 2 costs O(truncation^3)
_EIGEN = ("large_time", "subordinate_rate")
_MAX_BASIS = 1000
# experiments that fit across the t grid, with the grid points each fit needs
_FIT_POINTS = {"large_time": 2, "subordinate_rate": 2, "small_time_mc": 2, "tail_probe": 3}
_MOMENT_PS = (1.0 / 1.5, 1.0, 2.0)
_TRANSFORM_AS = (0.5, 1.0, 5.0)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    t_min: float
    t_max: float
    t_points: int = 9
    alpha: float = 2.0
    phi: str = "stable"
    beta: float = 0.5
    kappa: float = 1.0
    a: float = 0.3
    b: float = 0.9
    domain_a: float = 0.0
    domain_b: float = math.pi
    n_paths: int = 100_000
    n_steps: int = 128
    truncation: int = 2001
    tolerance: float = 1e-8
    delta: float = 1.0
    out: str = "."

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}"
            )
        _check_integer("seed", self.seed)  # mandatory: no entropy default
        bad = [k for k, v in vars(self).items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise ValidationError(f"config values must be finite: {', '.join(bad)}")
        if not 0.0 < self.alpha <= 2.0:
            raise ValidationError(f"alpha must be in (0, 2], got {self.alpha}")
        if not self.t_min > 0.0 or not self.t_max >= self.t_min:
            raise ValidationError("need 0 < t_min <= t_max")
        if self.t_points < 1:
            raise ValidationError("t grid must be nonempty")
        points = _FIT_POINTS.get(self.experiment, 1)
        if points > 1 and not (self.t_max > self.t_min and self.t_points >= points):
            raise ValidationError(f"{self.experiment} needs t_max > t_min, t_points >= {points}")
        if not self.tolerance > 0.0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        if self.n_paths < 1 or self.n_steps < 1 or self.truncation < 1:
            raise ValidationError("n_paths, n_steps, truncation must be >= 1")
        self.exponent  # a bad phi or exponent parameter fails here, not mid-run
        self.domain  # so does an empty or unordered domain
        # and so do an alpha or an exponent that the experiment's law lacks
        if self.experiment == "small_time_mc":
            _small_time_indices(self.alpha, self.exponent)
        if self.experiment == "large_time":
            _large_time_index(self.exponent)
        if self.experiment in _STABLE_ONLY and self.phi != "stable":
            raise ValidationError(f"{self.experiment} needs phi = stable, got {self.phi!r}")
        if self.experiment in _EIGEN and self.alpha < 2.0 and self.truncation > _MAX_BASIS:
            raise ValidationError(f"below alpha = 2 truncation must be <= {_MAX_BASIS}, "
                                  f"got {self.truncation}: the basis costs O(truncation^3)")

    @property
    def domain(self) -> IntervalDomain:
        return IntervalDomain(self.domain_a, self.domain_b)

    @property
    def exponent(self):
        if self.phi == "stable":
            return StableExponent(self.beta)
        if self.phi == "tempered":
            return TemperedStableExponent(self.beta, self.kappa)
        if self.phi == "sum":
            return SumOfStablesExponent(self.a, self.b)
        if self.phi == "drift":
            return DriftExponent()
        raise ValidationError(f"unknown phi variant {self.phi!r}")

    @property
    def t_grid(self) -> np.ndarray:
        if self.t_points == 1:
            return np.array([self.t_min])
        return np.logspace(math.log10(self.t_min), math.log10(self.t_max), self.t_points)


_SCHEMA: dict[str, type] = typing.get_type_hints(ExperimentConfig)


def _parse_int(v: str) -> int:
    """An integral value; spellings such as '1e5' parse, '1.5' does not."""
    try:
        return int(v)
    except ValueError:
        x = float(v)
    if not x.is_integer():
        raise ValueError(f"{v!r} is not integral")
    return int(x)


def parse_config_file(path: str | Path, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Flat key=value config with '#' comments, then --set overrides."""
    pairs: dict[str, str] = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{ln}: expected key=value, got {line!r}")
        k, v = (s.strip() for s in line.split("=", 1))
        pairs[k] = v
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"--set needs key=value, got {item!r}")
        k, v = (s.strip() for s in item.split("=", 1))
        pairs[k] = v
    kwargs = {}
    for k, v in pairs.items():
        if k not in _SCHEMA:
            raise ValidationError(f"unknown config key {k!r}")
        typ = _SCHEMA[k]
        try:
            kwargs[k] = _parse_int(v) if typ is int else typ(v)
        except ValueError as exc:
            raise ValidationError(f"config key {k}={v!r} is not a valid {typ.__name__}") from exc
    for k in ("experiment", "seed", "t_min", "t_max"):
        if k not in kwargs:
            raise ValidationError(f"config must set '{k}'")
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRow:
    t: float
    computed: float
    reference: float
    error_bound: float
    method: str

    @property
    def ratio(self) -> float:
        return self.computed / self.reference if self.reference != 0.0 else math.nan


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    low_confidence: bool = False


def fit_loglog(rows: Sequence[tuple[float, float]]) -> FitResult:
    """Ordinary least squares of ln y on ln t.

    Requires positive ordinates and at least two points; exactly two
    points give the finite-difference slope flagged low-confidence.
    """
    if len(rows) < 2:
        raise ValidationError("need at least 2 points to fit")
    t = np.array([r[0] for r in rows], dtype=float)
    y = np.array([r[1] for r in rows], dtype=float)
    if np.any(t <= 0.0) or np.any(y <= 0.0):
        raise ValidationError("log-log fit needs positive t and y")
    x = np.log(t)
    z = np.log(y)
    xc = x - x.mean()
    zc = z - z.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise ValidationError("degenerate abscissa (all t equal)")
    slope = float(np.sum(xc * zc) / sxx)
    intercept = float(z.mean() - slope * x.mean())
    ss_res = float(np.sum((z - slope * x - intercept) ** 2))
    ss_tot = float(np.sum(zc * zc))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=slope, intercept=intercept, r_squared=r2,
                     low_confidence=len(rows) == 2)


def _json_number(x: float) -> float | None:
    """JSON has no NaN: a ratio without a nonzero reference is written as null."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class ExperimentResult:
    config: dict
    rows: tuple[ExperimentRow, ...]
    summary: dict
    wall_clock: float

    def to_json(self) -> str:
        summary = dict(self.summary)
        if "final_ratio" in summary:
            summary["final_ratio"] = _json_number(summary["final_ratio"])
        payload = {
            "config": self.config,
            "rows": [{**asdict(r), "ratio": _json_number(r.ratio)} for r in self.rows],
            "summary": summary,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)

    def to_csv(self) -> str:
        lines = ["t,computed,reference,ratio,error_bound,method"]
        for r in self.rows:
            lines.append(
                f"{float(r.t)!r},{float(r.computed)!r},{float(r.reference)!r},"
                f"{float(r.ratio)!r},{float(r.error_bound)!r},{r.method}"
            )
        return "\n".join(lines) + "\n"


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``<exp>.csv`` and ``<exp>.json`` (deterministic results) and
    ``<exp>.run.json`` (wall clock and versions); returns the first two."""
    import scipy

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = result.config["experiment"]
    csv_path = out / f"{name}.csv"
    json_path = out / f"{name}.json"
    csv_path.write_text(result.to_csv())
    json_path.write_text(result.to_json())
    record = {
        "experiment": name,
        "wall_clock": result.wall_clock,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    (out / f"{name}.run.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return csv_path, json_path


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _eigensystem(config: ExperimentConfig):
    # exact sine modes at alpha = 2; below it the Galerkin build on N = truncation
    if config.alpha == 2.0:
        return bm_interval_eigensystem(config.domain, config.truncation)
    return stable_interval_eigensystem(config.domain, config.alpha, config.truncation)


def _run_large_time(config: ExperimentConfig, workers: int) -> tuple[list, dict]:
    eig = _eigensystem(config)
    spec = config.exponent
    rows = []
    for t in config.t_grid:
        hv = heat_content(eig, float(t), InverseTime(spec), tol=config.tolerance)
        ref = large_time_asymptote(config.alpha, config.domain, spec, float(t))
        rows.append(ExperimentRow(float(t), hv.value, ref, hv.error, hv.method))
    fit = fit_loglog([(r.t, r.computed) for r in rows])
    summary = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "expected_slope": -spec.index_at_zero,
        "final_ratio": rows[-1].ratio,
    }
    return rows, summary


def _run_subordinate_rate(config: ExperimentConfig, workers: int) -> tuple[list, dict]:
    eig = _eigensystem(config)
    spec = config.exponent
    lam1 = float(eig.lambdas[0])
    ref = -subordinate_log_rate(spec, lam1)
    rows = []
    logq = []
    for t in config.t_grid:
        hv = heat_content(eig, float(t), SubordinatorTime(spec), tol=config.tolerance)
        if hv.value <= 0.0:
            raise ValidationError(f"heat content underflowed at t={t}; shrink t_max")
        computed = -math.log(hv.value) / float(t)
        rows.append(ExperimentRow(float(t), computed, ref, hv.error, hv.method))
        logq.append((float(t), math.log(hv.value)))
    # two-point log-derivative at the grid end: the intercept-free rate
    (t1, l1), (t2, l2) = logq[-2], logq[-1]
    summary = {
        "final_ratio": rows[-1].ratio,
        "log_derivative": -(l2 - l1) / (t2 - t1),
        "expected_rate": ref,
    }
    return rows, summary


def _run_small_time_mc(config: ExperimentConfig, workers: int) -> tuple[list, dict]:
    """Monte Carlo deficit |D| - Q(t) over the t grid against the small-time law.

    One grid call at ``config.seed``: every row shares the same paths
    (in adaptive mode one unit walk per path serves the whole grid), so
    the deficits are exactly nondecreasing in t and the fitted slope is
    that of one coupled sample, not of independent points.
    """
    domain = config.domain
    spec = config.exponent
    regime = classify_regime(config.alpha)
    ts = [float(t) for t in config.t_grid]
    # the law first: a config it rejects fails before any path is walked
    refs = [small_time_asymptote(config.alpha, spec, domain, t) for t in ts]
    abscissae = ts
    if regime is Regime.CRITICAL:
        abscissae = [small_time_rate(config.alpha, 1.0 / float(spec(1.0 / t))) for t in ts]
    values = monte_carlo_heat_content_grid(
        config.alpha,
        domain,
        InverseTime(spec),
        config.t_grid,
        n_paths=config.n_paths,
        n_steps=config.n_steps,
        seed=config.seed,
        workers=workers,
    )
    rows = [
        ExperimentRow(hv.t, domain.volume - hv.value, ref, hv.error, hv.method)
        for hv, ref in zip(values, refs)
    ]
    fit = fit_loglog([(x, r.computed) for x, r in zip(abscissae, rows)])
    if regime is Regime.CRITICAL:
        expected = 1.0
    elif regime is Regime.SUPERCRITICAL:
        expected = spec.index_at_infinity / config.alpha
    else:
        expected = spec.index_at_infinity
    summary = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "expected_slope": expected,
        "abscissa": "rate" if regime is Regime.CRITICAL else "t",
    }
    return rows, summary


def _run_transform_consistency(config: ExperimentConfig, workers: int) -> tuple[list, dict]:
    spec = config.exponent
    rows = []
    worst = 0.0
    for a in _TRANSFORM_AS:
        transform = inverse_time_transform(spec, a)
        for t in config.t_grid:
            inv = laplace_invert(transform, float(t), tol=config.tolerance)
            ref = mittag_leffler(spec.beta, -a * float(t) ** spec.beta)
            worst = max(worst, abs(inv - ref))
            rows.append(
                ExperimentRow(float(t), inv, ref, config.tolerance, f"talbot[a={a:g}]")
            )
    summary = {"max_abs_diff": worst}
    return rows, summary


def _run_moment_laws(config: ExperimentConfig, workers: int) -> tuple[list, dict]:
    spec = config.exponent
    rows = []
    worst = 0.0
    for p in _MOMENT_PS:
        for t in config.t_grid:
            est = expected_functional(spec.beta, float(t), lambda x: x ** p)
            ref = moment_asymptote(p, spec, float(t))
            worst = max(worst, abs(est.value / ref - 1.0))
            rows.append(
                ExperimentRow(float(t), est.value, ref, est.error, f"quadrature[p={p:g}]")
            )
    summary = {"max_rel_err": worst}
    return rows, summary


def _run_tail_probe(config: ExperimentConfig, workers: int) -> tuple[list, dict]:
    spec = config.exponent
    probe = tail_decay_probe(spec.beta, config.delta, config.t_grid, config.n_paths, config.seed)
    neg_log = probe.neg_log_tails
    t0, y0 = float(config.t_grid[0]), neg_log[0]
    rows = []
    # a row's error_bound is the 95% half-width of its own -ln p_hat; the
    # slope's CI goes to the summary only
    for t, y, half in zip(config.t_grid, neg_log, probe.neg_log_halfwidths):
        ref = y0 * (float(t) / t0) ** probe.expected_slope
        rows.append(ExperimentRow(float(t), y, ref, half, "mc_tail"))
    summary = {
        "slope": probe.slope,
        "ci_halfwidth": probe.ci_halfwidth,
        "expected_slope": probe.expected_slope,
    }
    return rows, summary


_RUNNERS = {
    "large_time": _run_large_time,
    "subordinate_rate": _run_subordinate_rate,
    "small_time_mc": _run_small_time_mc,
    "transform_consistency": _run_transform_consistency,
    "moment_laws": _run_moment_laws,
    "tail_probe": _run_tail_probe,
}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run one experiment; deterministic for a fixed config and any workers."""
    start = time.perf_counter()
    rows, summary = _RUNNERS[config.experiment](config, workers)
    return ExperimentResult(
        config=asdict(config),
        rows=tuple(rows),
        summary=summary,
        wall_clock=time.perf_counter() - start,
    )
