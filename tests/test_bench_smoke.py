"""Smoke test of the benchmark: one pass of each workload in
``bench/workloads.py``, checked against ``bench/references.json`` as
``bench/run.py`` checks a run.

It fails when a public name the workloads call is renamed (the three
series evaluators, the ``dt`` and ``workers`` arguments of the Monte
Carlo grid) or when a value moves off its reference.  The bench modules
are imported without writing bytecode, so no file appears under bench/.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("shipped_configs", "spectral_sweep", "mc_walk", "mc_first_passage")


def _import_bench(name: str):
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


@pytest.fixture(scope="module")
def bench():
    return _import_bench("workloads")


@pytest.fixture(scope="module")
def tracing():
    return _import_bench("tracing")


# tracing.BINDINGS entries whose name the package no longer has, each with
# the change that removed it; the tracer skips them, so their layers read 0
# or count through the entry's other bindings
UNRESOLVED_BINDINGS = {
    "special.gaver_stehfest": "Gaver-Stehfest inversion deleted; Talbot is the one inversion",
    "subordinators.mittag_leffler": "subordinators no longer imports mittag_leffler",
    "asymptotics.weighted_series": "heat_content is the only caller of weighted_series",
    "heat_content.walk_exit_steps": "walk_exit_steps deleted; _unit_extremes is the one walk",
    "stable_motion.walk_exit_steps": "walk_exit_steps deleted; _unit_extremes is the one walk",
    "experiments.monte_carlo_heat_content": "experiments call monte_carlo_heat_content_grid",
    "heat_content.sample_positive_stable": "heat_content draws E_t through inverse_times",
    "asymptotics.sample_inverse_stable": "tail_decay_probe counts E_1 by StableExponent.inverse_exceedances",
    "experiments.laplace_invert": "transform_consistency inverts through expected_laplace",
}


def test_unresolved_bindings_are_listed(tracing):
    # a deletion that silently zeroes a traced layer fails here until it is
    # listed above, and a binding that resolves again must leave the list
    unresolved = {
        f"{mod}.{attr}"
        for bindings in tracing.BINDINGS.values()
        for mod, attr in bindings
        if getattr(tracing.module(mod), attr, None) is None
    }
    assert unresolved == set(UNRESOLVED_BINDINGS)


def test_workload_names(bench):
    assert bench.WORKLOADS == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_pass_matches_references(bench, name):
    check = bench.Check(bench.load_references())
    bench.build(name, ROOT, None).run_pass(check, 0)
    assert check.attempted > 0
    assert check.correct, check.wrong
    assert check.failed == 0, check.raised


def test_traced_walk_pass(bench, tracing):
    # one traced mc_walk pass, as ``bench/run.py --trace 1`` takes it: the
    # tracer skips bindings the package no longer has, puts every other one
    # back, and counts the walk's variates through the sampler's binding
    bound = {
        (mod, attr): getattr(tracing.module(mod), attr, None)
        for bindings in tracing.BINDINGS.values()
        for mod, attr in bindings
    }
    check = bench.Check(bench.load_references())
    workload = bench.build("mc_walk", ROOT, None)
    with tracing.Tracer() as tracer:
        workload.run_pass(check, 0)
    assert check.correct and check.failed == 0, (check.wrong, check.raised)
    assert all(getattr(tracing.module(mod), attr, None) is fn for (mod, attr), fn in bound.items())
    assert tracing.layer_metrics(tracer)["stable_motion.sample_symmetric_stable.variates"] > 0
