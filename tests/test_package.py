"""The public API surface: every exported name resolves, and neither the
import nor parsing the shipped configs loads SciPy, while ``shc-lab run``
loads it before the experiment's clock starts."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import shc_lab


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


_IMPORT_BOUNDARY = """
import math, sys
import shc_lab, shc_lab.cli
from shc_lab import (
    InverseTime, IntervalDomain, StableExponent, bm_interval_eigensystem,
    heat_content_inverse, mittag_leffler, monte_carlo_heat_content_grid,
)

HEAVY = ("scipy.integrate", "scipy.special", "scipy.linalg", "scipy.optimize", "scipy.sparse")

def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)

assert loaded() == [], ("import", loaded())
domain, change = IntervalDomain(0.0, math.pi), InverseTime(StableExponent(0.5))
monte_carlo_heat_content_grid(2.0, domain, change, [0.1, 0.5], 300, dt=1e-2, seed=1)
monte_carlo_heat_content_grid(2.0, domain, change, [0.1, 0.5], 300, n_steps=64, seed=2)
heat_content_inverse(bm_interval_eigensystem(domain, 1001), StableExponent(0.5), 1.0, tol=1e-6)
assert loaded() == [], ("Monte Carlo and series", loaded())

from scipy.special import erfcx
assert abs(mittag_leffler(0.5, -1.0) - erfcx(1.0)) <= 1e-14
"""


def test_scipy_loaded_only_on_first_use():
    # a fresh interpreter: the test session itself has imported SciPy
    src = str(Path(shc_lab.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


_QUADRATURE_BOUNDARY = """
import sys
from shc_lab import expected_functional

expected_functional(0.5, 1.0, lambda x: x)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [], loaded
"""


def test_quadrature_loads_no_scipy():
    # the tanh-sinh rule is numpy alone
    src = str(Path(shc_lab.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _QUADRATURE_BOUNDARY],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


_PARSE_BOUNDARY = """
import sys
from pathlib import Path
from shc_lab import parse_config_file

for path in sorted(Path(sys.argv[1]).glob("*.cfg")):
    parse_config_file(path)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [], loaded
"""


def test_config_parse_loads_no_scipy():
    # the parser checks each experiment's law without the laws' SciPy constants
    src = str(Path(shc_lab.__file__).resolve().parent.parent)
    configs = str(Path(__file__).resolve().parents[1] / "configs")
    out = subprocess.run(
        [sys.executable, "-c", _PARSE_BOUNDARY, configs],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


_CLI_BOUNDARY = """
import sys
import shc_lab.cli as cli
from shc_lab import ValidationError

HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.special")
seen = []

def run_experiment(config, workers=1):
    seen.append(sorted(m for m in HEAVY if m in sys.modules))
    raise ValidationError("stop before the run")

cli.run_experiment = run_experiment
assert [m for m in HEAVY if m in sys.modules] == []
assert cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 2
assert seen == [list(HEAVY)], seen
"""


def test_cli_imports_scipy_before_the_clock(tmp_path):
    # run.json's wall clock starts inside run_experiment, so SciPy's first
    # import must already be paid when main calls it
    src = str(Path(shc_lab.__file__).resolve().parent.parent)
    config = str(Path(__file__).resolve().parents[1] / "configs" / "tail_probe.cfg")
    out = subprocess.run(
        [sys.executable, "-c", _CLI_BOUNDARY, config, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert not (tmp_path / "out").exists()
