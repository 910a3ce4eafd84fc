"""Time one fresh-process set-up: import shc_lab and build a workload's inputs.

    python3 bench/setup_probe.py <workload> <seed|none>

Prints the seconds from before the first package import to the end of
the workload's set-up.  run.py calls this several times per run.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

name, seed = sys.argv[1], sys.argv[2]
workloads.build(name, BENCH.parent, None if seed == "none" else int(seed))
print(repr(time.perf_counter() - t0))
