"""Regenerate references.json: the values every benchmark check compares with.

    python3 bench/make_references.py

Run this only at the commit whose outputs define "correct" (the seed
commit of the benchmark); at any later commit it would turn that
commit's outputs, right or wrong, into the reference.  Takes a few
minutes on one core.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracing import module  # noqa: E402

REFERENCE_SEED = 20260810
ALPHA15_REFERENCE_PATHS = 65536
# path counts for measuring the alpha = 2 Euler bias against the series
BIAS_PATHS = {"stable(0.5)": 131072, "tempered(0.5,2)": 8192, "sum(0.3,0.9)": 16384}

# The inverse tempered-stable weights at t = 1e2 and 1e6 come back from
# Gaver-Stehfest as -9.5e-17 and -1.3e-16, which weighted_series rejects.
# The exact values are positive but below 1e-79: the Laplace transform
# phi(s) / (s (phi(s) + lambda)) of t -> E[exp(-lambda E_t)] has its
# rightmost singularity at phi(s) = -lambda, s = -1.83 for lambda = 1,
# so every weight decays at least like exp(-1.83 t).
KNOWN_DEFECTS = ("inverse/tempered(0.5,2)/t=100", "inverse/tempered(0.5,2)/t=1e+06")


def main() -> None:
    root = BENCH.parent
    rec = workloads.Recorder()
    workloads.build("shipped_configs", root, None).run_pass(rec)
    workloads.build("spectral_sweep", root, None).run_pass(rec)
    values = dict(rec.refs)
    for key in KNOWN_DEFECTS:
        values[key] = {"value": 0.0, "error": 0.0}

    hc, spectral = module("heat_content"), module("spectral")
    domain = spectral.IntervalDomain(0.0, math.pi)
    eig = spectral.bm_interval_eigensystem(domain, 4001)
    exponents = workloads.exponents()
    bias = {}
    for name, n_paths in BIAS_PATHS.items():
        spec = exponents[name]
        mc = hc.monte_carlo_heat_content_grid(
            2.0, domain, hc.InverseTime(spec), workloads.T_GRID, n_paths, workloads.DT,
            seed=REFERENCE_SEED, workers=1,
        )
        rows = []
        for hv in mc:
            exact = hc.heat_content_inverse(eig, spec, hv.t, tol=workloads.TOL)
            values[f"exact/{name}/t={hv.t:g}"] = {"value": exact.value, "error": exact.error}
            rows.append({"t": hv.t, "bias": hv.value - exact.value, "ci": hv.error})
        bias[name] = {"n_paths": n_paths, "rows": rows}
        print(name, rows, flush=True)

    for label, alpha, name, _ in workloads.MC_CASES["mc_walk"]:
        if alpha == 2.0:
            continue
        mc = hc.monte_carlo_heat_content_grid(
            alpha, domain, hc.InverseTime(exponents[name]), workloads.T_GRID,
            ALPHA15_REFERENCE_PATHS, workloads.DT, seed=REFERENCE_SEED, workers=1,
        )
        for hv in mc:
            values[f"{label}/t={hv.t:g}"] = {"value": hv.value, "ci": hv.error}

    out = {
        "meta": {
            "reference_seed": REFERENCE_SEED,
            "alpha1.5_reference_paths": ALPHA15_REFERENCE_PATHS,
            "known_defects": {key: "raises ValidationError at the seed commit; exact value < 1e-79"
                              for key in KNOWN_DEFECTS},
            "raised_while_recording": rec.raised,
        },
        "alpha2_bias": bias,
        "values": values,
    }
    workloads.REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} references to {workloads.REFERENCES}")


if __name__ == "__main__":
    main()
