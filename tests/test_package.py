"""The public API surface: every exported name resolves, and neither the
import, parsing the shipped configs, the quadratures, the asymptotic laws
nor ``shc-lab run`` on a shipped config loads SciPy."""

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
import math, sys
from shc_lab import (
    IntervalDomain, StableExponent, asymptotics as law, expected_functional, mittag_leffler,
)

expected_functional(0.5, 1.0, lambda x: x)
for beta in (0.3, 0.5, 0.9):
    mittag_leffler(beta, -2.0)
domain, spec = IntervalDomain(0.0, math.pi), StableExponent(0.5)
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
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [], loaded
"""


def test_quadrature_loads_no_scipy():
    # the tanh-sinh rule (expected_functional, mittag_leffler) is numpy
    # alone, and every law but frac_perimeter_numeric takes Gamma from math
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
    out = subprocess.run(
        [sys.executable, "-c", _PARSE_BOUNDARY, str(CONFIGS)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


_CLI_BOUNDARY = """
import json, sys
from pathlib import Path
import shc_lab.cli as cli

config, out = Path(sys.argv[1]), Path(sys.argv[2])
assert cli.main(["run", str(config), "--out", str(out)]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [], loaded
record = json.loads((out / f"{config.stem}.run.json").read_text())
print(record["scipy"])
"""


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_cli_run_loads_no_scipy(config, tmp_path):
    # every shipped config runs, through the CLI, in a fresh interpreter
    # that never imports SciPy, and run.json still records SciPy's version
    import scipy

    src = str(Path(shc_lab.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _CLI_BOUNDARY, str(CONFIGS / config), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == scipy.__version__
