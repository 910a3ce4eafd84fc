"""The public API surface: every exported name resolves, and the package,
the shipped configs through ``shc-lab run``, the Galerkin build and every
law run in an interpreter where SciPy cannot be imported."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import shc_lab

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_all_names_resolve():
    # a stale __all__ entry would otherwise surface only at import time
    modules = [shc_lab] + [
        importlib.import_module(f"shc_lab.{m.name}") for m in pkgutil.iter_modules(shc_lab.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
    namespace = {}
    exec("from shc_lab import *", namespace)
    assert "heat_content" in namespace


_NO_SCIPY = """
import json, math, sys, traceback
from pathlib import Path

sys.modules["scipy"] = None  # every import of scipy or scipy.* now raises

import shc_lab, shc_lab.cli as cli
from shc_lab import (
    InverseTime, IntervalDomain, StableExponent, asymptotics as law, bm_interval_eigensystem,
    expected_functional, heat_content_inverse, mittag_leffler, monte_carlo_heat_content_grid,
    parse_config_file, stable_interval_eigensystem,
)

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
domain, spec = IntervalDomain(0.0, math.pi), StableExponent(0.5)

def stage(name):
    # run one stage; print "ok <name>" if it returns, its traceback if not
    def run(body):
        try:
            body()
        except BaseException:
            traceback.print_exc()
            print("failed", name, file=sys.stderr)
        else:
            print("ok", name)
    return run

@stage("runs")
def _():
    change = InverseTime(spec)
    monte_carlo_heat_content_grid(2.0, domain, change, [0.1, 0.5], 300, dt=1e-2, seed=1)
    monte_carlo_heat_content_grid(2.0, domain, change, [0.1, 0.5], 300, n_steps=64, seed=2)
    heat_content_inverse(bm_interval_eigensystem(domain, 1001), spec, 1.0, tol=1e-6)
    stable_interval_eigensystem(domain, 1.5, 100)
    law.frac_perimeter_numeric(domain, 0.5)

@stage("quadrature")
def _():
    expected_functional(0.5, 1.0, lambda x: x)
    for beta in (0.3, 0.5, 0.9):
        mittag_leffler(beta, -2.0)
    law.classify_regime(1.5)
    law.small_time_rate(1.5, 0.1)
    law.jump_kernel_constant(0.5)
    law.frac_perimeter_interval(0.5, 1.0)
    law.expected_supremum(1.5)
    for alpha in (0.5, 1.0, 1.5):
        law.small_time_constant(alpha, domain)
        law.small_time_asymptote(alpha, spec, domain, 1e-3)
    law.large_time_constant(1.5, domain, 0.5)
    law.large_time_asymptote(2.0, domain, spec, 10.0)
    law.subordinate_log_rate(spec, 1.0)
    law.monotonized_xlog(0.1)
    law.expected_xlog(0.5, 1e-3)
    law.xlog_asymptote(0.5, 1e-3)
    law.moment_asymptote(2.0, spec, 1.0)
    law.tail_decay_probe(0.5, 1.0, [1.0, 2.0, 4.0], 1000, 1)

paths = sorted(configs.glob("*.cfg"))

@stage("parse")
def _():
    for path in paths:
        parse_config_file(path)

for path in paths:
    @stage(path.name)
    def _():
        assert cli.main(["run", str(path), "--out", str(out)]) == 0, path
        record = json.loads((out / f"{path.stem}.run.json").read_text())
        assert "scipy" not in record, record
"""


@pytest.fixture(scope="module")
def no_scipy_run(tmp_path_factory):
    # one fresh interpreter for every test below: the test session itself
    # has imported SciPy, and in that interpreter no import of it succeeds
    src = str(Path(shc_lab.__file__).resolve().parent.parent)
    out = tmp_path_factory.mktemp("no_scipy")
    return subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(CONFIGS), str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )


def _assert_stage(run, name):
    assert f"ok {name}" in run.stdout.splitlines(), run.stderr


def test_scipy_loaded_only_on_first_use(no_scipy_run):
    # SciPy is never used: the import, both Monte Carlo modes, the series on
    # the alpha = 2 eigen data, the Galerkin build and frac_perimeter_numeric
    # all run where it cannot be imported
    _assert_stage(no_scipy_run, "runs")


def test_quadrature_loads_no_scipy(no_scipy_run):
    # the tanh-sinh rule (expected_functional, mittag_leffler) and every law
    _assert_stage(no_scipy_run, "quadrature")


def test_config_parse_loads_no_scipy(no_scipy_run):
    # the parser checks each experiment's law on every shipped config
    _assert_stage(no_scipy_run, "parse")


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_cli_run_loads_no_scipy(config, no_scipy_run):
    # each shipped config runs through the CLI, and its run.json records no
    # SciPy version
    _assert_stage(no_scipy_run, config)
