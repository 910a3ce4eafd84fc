"""Benchmark driver for shc_lab.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see README.md) from the checkout this file sits in,
with ``workers=1`` and no threads, for about ``--seconds`` of repeated
passes, checks every output against ``references.json``, and prints the
metrics: a readable table, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the package's
public bindings and reports the per-layer metrics instead.  A run
record with versions and timings goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
# Typical seconds of calibrate() on the machine the benchmark was written
# on (2 vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4).
CALIBRATION_REF_S = 0.20
WORKLOADS = ("shipped_configs", "spectral_sweep", "mc_walk", "mc_first_passage")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed; shipped_configs keeps each config's own seed without it")
    p.add_argument("--seconds", type=float, default=10.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def measure_setup(workload: str, seed) -> list[float]:
    """Seconds to import shc_lab and build the inputs, each in a fresh process."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, "none" if seed is None else str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def calibrate() -> float:
    """Seconds for a fixed kernel that never calls shc_lab.

    Half of it is a walk over 8,192-element numpy vectors, half scalar
    math in the interpreter: the two kinds of work the workloads do.
    The benchmark was written on a shared virtual machine whose speed
    drifts by 20% or more within minutes; timings are scaled by
    CALIBRATION_REF_S / calibrate() so that drift cancels, while a change
    to the package cannot move the kernel.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    x = np.zeros(8192)
    alive = np.ones(8192, dtype=bool)
    for _ in range(600):
        z = rng.standard_normal(8192)
        x[alive] += 0.05 * z[alive]
        alive &= (x > -3.0) & (x < 3.0)
    s = 0.0
    for i in range(1, 300_000):
        s += math.exp(i * 1e-5 - math.lgamma(0.3 * i + 1.0))
    return time.perf_counter() - t0


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the calibrations either side."""
    return seconds * CALIBRATION_REF_S * 2.0 / (before + after)


def run_passes(workload, check, seconds: float, trace: bool):
    """Time passes; returns (pass times, calibrated pass times, layer
    metrics, untraced pass time).

    Untraced: passes 0, 1, ... until the next one would end after
    ``seconds``, at least two, with calibrate() after every pass.  Traced:
    pass 0 untraced, which warms caches and gives the tracing overhead,
    then pass 0 again traced.
    """
    import tracing
    from workloads import CONFIGS

    def timed(pass_index: int) -> float:
        t0 = time.perf_counter()
        workload.run_pass(check, pass_index)
        return time.perf_counter() - t0

    if trace:
        untraced_s = timed(0)
        with tracing.Tracer() as tracer:
            traced_s = timed(0)
        metrics = tracing.layer_metrics(tracer)
        wall = getattr(workload, "wall_s", {})
        metrics.update({f"experiments.{name}.wall_s": wall.get(name, 0.0) for name in CONFIGS})
        return [traced_s], [], (metrics, tracer.missing), untraced_s
    times, scaled = [], []
    start = time.perf_counter()
    before = calibrate()
    while True:
        times.append(timed(len(times)))
        after = calibrate()
        scaled.append(calibrated(times[-1], before, after))
        before = after
        elapsed = time.perf_counter() - start
        if len(times) >= 2 and elapsed + statistics.median(times) > seconds:
            return times, scaled, None, None


def versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "shc_lab" / "__init__.py").is_file():
        print(f"bench: no shc_lab sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import shc_lab

    if Path(shc_lab.__file__).resolve().parent != (src / "shc_lab").resolve():
        print(f"bench: imported shc_lab from {shc_lab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    calibrate()  # the first call pays one-time costs
    before = calibrate()
    setup = measure_setup(args.workload, args.seed)
    setup_s = calibrated(statistics.median(setup), before, calibrate())
    workload = workloads.build(args.workload, ROOT, args.seed)
    check = workloads.Check(workloads.load_references())
    times, scaled, layers, untraced_s = run_passes(workload, check, args.seconds, bool(args.trace))

    raw_wall_s = statistics.median(times)
    summary = {
        "fail_frac": check.failed / check.attempted,
        "time_to_ci_s": raw_wall_s * (check.max_ci / 0.01) ** 2 if check.max_ci else None,
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": statistics.median(setup),
        "max_ci": check.max_ci,
    }
    if args.trace:
        metrics, unbound = layers
        metrics.update(tracing.mittag_leffler_branch_timings())
        metrics["heat_content.mc_abs_err_alpha2"] = check.alpha2_err
        units = {name: tracing.unit_of(name) for name in metrics}
        summary["tracing_overhead_s"] = raw_wall_s - untraced_s
        summary["untraced_pass_s"] = untraced_s
        summary["unbound"] = unbound
    else:
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    for name, value in metrics.items():
        print(f"{name:58s} {value:>16.6g} {units[name]}")
    print(f"{'raw_wall_s':58s} {raw_wall_s:>16.6g} s")
    print(f"{'raw_setup_s':58s} {summary['raw_setup_s']:>16.6g} s")
    print(f"{'fail_frac':58s} {check.failed:>9d} / {check.attempted:<5d}")
    if summary["time_to_ci_s"] is not None:
        print(f"{'time_to_ci_s':58s} {summary['time_to_ci_s']:>16.6g} s")
    if args.trace:
        print(f"{'tracing_overhead_s':58s} {summary['tracing_overhead_s']:>16.6g} s")
    for line in dict.fromkeys(check.raised + check.wrong):
        print(f"  {line}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "versions": versions(),
        "pass_s": times,
        "calibrated_pass_s": scaled,
        "setup_probe_s": setup,
        "metrics": metrics,
        **summary,
        "attempted": check.attempted,
        "failed": check.failed,
        "raised": check.raised,
        "wrong": check.wrong,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    seed = "none" if args.seed is None else args.seed
    (out_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
