"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py [--workload NAME]... [--seed N]

For each workload, builds the inputs twice and makes one traced pass on
each build.  Passes when every count metric (calls, terms, nodes,
path-steps, variates, replicas) is exactly equal between the two passes,
and when after each pass every wrapped binding is the original function
again.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_counts(name: str, seed: int) -> dict[str, float]:
    workload = workloads.build(name, BENCH.parent, seed)
    check = workloads.Check(workloads.load_references())
    with tracing.Tracer() as tracer:
        workload.run_pass(check)
    metrics = tracing.layer_metrics(tracer)
    return {k: v for k, v in metrics.items() if tracing.unit_of(k) == "count"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    originals = {
        (mod, attr): getattr(tracing.module(mod), attr)
        for bindings in tracing.BINDINGS.values()
        for mod, attr in bindings
    }
    ok = True
    for name in args.workload or workloads.WORKLOADS:
        first = traced_counts(name, args.seed)
        second = traced_counts(name, args.seed)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        changed = [f"{m}.{a}" for (m, a), fn in originals.items() if getattr(tracing.module(m), a) is not fn]
        nonzero = {k: v for k, v in first.items() if v}
        print(f"{name}: {len(nonzero)} nonzero counts, differing {differ or 'none'}, "
              f"bindings not restored {changed or 'none'}")
        ok &= not differ and not changed
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
