"""Smoke test of the benchmark: one pass of each workload in
``bench/workloads.py``, checked against ``bench/references.json`` as
``bench/run.py`` checks a run.

It fails when a public name the workloads call is renamed (the three
series evaluators, the ``dt`` and ``workers`` arguments of the Monte
Carlo grid) or when a value moves off its reference.  The bench modules
are imported without writing bytecode, so no file appears under bench/.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("shipped_configs", "spectral_sweep", "mc_walk", "mc_first_passage")


@pytest.fixture(scope="module")
def bench():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return workloads


def test_workload_names(bench):
    assert bench.WORKLOADS == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_pass_matches_references(bench, name):
    check = bench.Check(bench.load_references())
    bench.build(name, ROOT, None).run_pass(check, 0)
    assert check.attempted > 0
    assert check.correct, check.wrong
    assert check.failed == 0, check.raised
