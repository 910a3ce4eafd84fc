"""Outside-in layer tracing for the benchmark.

A :class:`Tracer` replaces public ``shc_lab`` functions *where their
callers look them up*: ``heat_content_inverse`` resolves
``expected_laplace`` in the ``shc_lab.heat_content`` namespace, so that
is the binding wrapped, not the defining one in ``shc_lab.subordinators``.
Nothing inside the package changes and nothing is wrapped unless a
tracer is active; on exit every binding is restored and checked.

Each wrapper records calls, wall time, self time (wall time minus the
time of wrapped calls made inside it) and a work count taken from the
call's arguments or result.  Spans live only in memory.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

PACKAGE = "shc_lab"

# layer -> consumer bindings (module, attribute) that callers resolve at
# call time.  Note that ``shc_lab.heat_content`` as a package attribute is
# the *function* heat_content; modules are reached with import_module.
BINDINGS: dict[str, tuple[tuple[str, str], ...]] = {
    "special.laplace_invert": (("subordinators", "laplace_invert"), ("experiments", "laplace_invert")),
    "special.gaver_stehfest": (("special", "gaver_stehfest"),),
    "special.mittag_leffler": (("subordinators", "mittag_leffler"), ("experiments", "mittag_leffler")),
    "spectral.weighted_series": (("heat_content", "weighted_series"), ("asymptotics", "weighted_series")),
    "subordinators.expected_laplace": (("heat_content", "expected_laplace"),),
    "stable_motion.walk_exit_steps": (("heat_content", "walk_exit_steps"), ("stable_motion", "walk_exit_steps")),
    "stable_motion.sample_symmetric_stable": (("stable_motion", "sample_symmetric_stable"),),
    "heat_content.monte_carlo": (
        ("experiments", "monte_carlo_heat_content"),
        ("heat_content", "monte_carlo_heat_content_grid"),
    ),
    # each Monte Carlo replica derives its own stream exactly once
    "heat_content.replica_stream": (("heat_content", "derive_rng"),),
    "subordinators.sample_increments": (("heat_content", "sample_increments"), ("subordinators", "sample_increments")),
    "subordinators.sample_positive_stable": (
        ("heat_content", "sample_positive_stable"),
        ("subordinators", "sample_positive_stable"),
    ),
    "subordinators.sample_inverse_stable": (("asymptotics", "sample_inverse_stable"),),
    "subordinators.expected_functional": (("experiments", "expected_functional"), ("asymptotics", "expected_functional")),
    "asymptotics.tail_decay_probe": (("experiments", "tail_decay_probe"),),
}

WALK = "stable_motion.walk_exit_steps"
STABLE = "stable_motion.sample_symmetric_stable"


def module(name: str):
    """The ``shc_lab.<name>`` module (never the same-named package attribute)."""
    return importlib.import_module(f"{PACKAGE}.{name}")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0  # terms, nodes or variates, per layer
    live: int = 0  # walk only: path-steps on paths still inside the domain


def _size(args, kwargs, result) -> int:
    return int(np.size(result))


# layer -> work count of one successful call
_ITEMS = {
    "spectral.weighted_series": lambda args, kwargs, result: result.n_terms,
    # gaver_stehfest(transform, t, order) evaluates the transform `order` times
    "special.gaver_stehfest": lambda args, kwargs, result: kwargs["order"] if "order" in kwargs else args[2],
    "stable_motion.sample_symmetric_stable": _size,
    "subordinators.sample_increments": _size,
    "subordinators.sample_positive_stable": _size,
    "subordinators.sample_inverse_stable": _size,
}


def _live_path_steps(args, kwargs, result) -> int:
    """Path-steps a walk spent on paths still inside the domain.

    walk_exit_steps(alpha, a, b, x0, scales, n_steps, rng) returns each
    path's exit step, n_steps + 1 for paths that never left; the walk
    stops early once every path has left.
    """
    n_steps = kwargs["n_steps"] if "n_steps" in kwargs else args[5]
    exit_step = np.asarray(result)
    walked = n_steps if np.any(exit_step > n_steps) else int(exit_step.max(initial=0))
    return int(np.minimum(exit_step, walked).sum())


class Tracer:
    """Context manager that wraps every binding in :data:`BINDINGS`.

    Bindings that no longer exist in the package are skipped and listed
    in ``missing``; their layers then report zero calls.
    """

    def __init__(self):
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.missing: list[str] = []
        self._child_s: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for layer, bindings in BINDINGS.items():
            for mod_name, attr in bindings:
                mod = module(mod_name)
                original = getattr(mod, attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        left = [f"{m.__name__}.{a}" for m, a, o in self._saved if getattr(m, a) is not o]
        self._saved.clear()
        if left:
            raise RuntimeError(f"tracer failed to restore {left}")

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        count = _ITEMS.get(layer)
        child_s = self._child_s

        def traced(*args, **kwargs):
            drawn0 = self.stats[STABLE].items
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = child_s.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - inner
                if child_s:
                    child_s[-1] += dt
            if layer == WALK:
                # a walk's path-steps are the stable variates it drew
                stats.items += self.stats[STABLE].items - drawn0
                stats.live += _live_path_steps(args, kwargs, result)
            elif count is not None:
                stats.items += int(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from the end of its name."""
    last = name.rsplit(".", 1)[-1]
    if last.startswith("ns_per_"):
        return "ns"
    for suffix, unit in (("_s", "s"), ("ms_per_call", "ms"), ("_us", "us"), ("us_per_call", "us"),
                         ("us_per_term", "us"), ("_frac", "ratio"), ("_alpha2", "abs")):
        if last.endswith(suffix):
            return unit
    return "count"


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    s = tracer.stats
    li, gs, ml = s["special.laplace_invert"], s["special.gaver_stehfest"], s["special.mittag_leffler"]
    ws, el = s["spectral.weighted_series"], s["subordinators.expected_laplace"]
    walk, z = s[WALK], s[STABLE]
    mc, inc = s["heat_content.monte_carlo"], s["subordinators.sample_increments"]
    pos, inv = s["subordinators.sample_positive_stable"], s["subordinators.sample_inverse_stable"]
    ef, tp = s["subordinators.expected_functional"], s["asymptotics.tail_decay_probe"]
    return {
        "special.laplace_invert.calls": li.calls,
        "special.laplace_invert.ms_per_call": _per(li.total_s, li.calls, 1e3),
        "special.gaver_stehfest.calls": gs.calls,
        "special.gaver_stehfest.nodes": gs.items,
        "special.mittag_leffler.calls": ml.calls,
        "special.mittag_leffler.us_per_call": _per(ml.total_s, ml.calls, 1e6),
        "spectral.weighted_series.calls": ws.calls,
        "spectral.weighted_series.terms": ws.items,
        "spectral.weighted_series.self_s": ws.self_s,
        "spectral.us_per_term": _per(ws.total_s, ws.items, 1e6),
        "subordinators.expected_laplace.calls": el.calls,
        "subordinators.expected_laplace.self_s": el.self_s,
        "stable_motion.walk_exit_steps.path_steps": walk.items,
        "stable_motion.walk_exit_steps.ns_per_path_step": _per(walk.total_s, walk.items, 1e9),
        "stable_motion.walk_exit_steps.live_frac": _per(walk.live, walk.items),
        "stable_motion.walk_exit_steps.total_s": walk.total_s,
        "stable_motion.sample_symmetric_stable.variates": z.items,
        "stable_motion.sample_symmetric_stable.ns_per_variate": _per(z.total_s, z.items, 1e9),
        "heat_content.monte_carlo.self_s": mc.self_s,
        "heat_content.monte_carlo.replicas": s["heat_content.replica_stream"].calls,
        "subordinators.sample_increments.calls": inc.calls,
        "subordinators.sample_increments.variates": inc.items,
        "subordinators.sample_increments.ns_per_variate": _per(inc.total_s, inc.items, 1e9),
        "subordinators.sample_positive_stable.calls": pos.calls,
        "subordinators.sample_positive_stable.variates": pos.items,
        "subordinators.sample_positive_stable.ns_per_variate": _per(pos.total_s, pos.items, 1e9),
        "subordinators.sample_inverse_stable.variates": inv.items,
        "subordinators.sample_inverse_stable.ns_per_variate": _per(inv.total_s, inv.items, 1e9),
        "subordinators.expected_functional.calls": ef.calls,
        "subordinators.expected_functional.total_s": ef.total_s,
        "asymptotics.tail_decay_probe.total_s": tp.total_s,
    }


# Fixed Mittag-Leffler arguments, one per branch of special.mittag_leffler
# at the seed commit (series while the series peak stays <= 1e6, then the
# asymptotic series if its smallest term is <= 1e-12, else the integral).
ML_BRANCH_ARGS = {
    0.3: {"series": -1.0, "integral": -3.5, "asymptotic": -100.0},
    0.5: {"series": -1.0, "integral": -4.75, "asymptotic": -100.0},
}


def mittag_leffler_branch_timings(batches: int = 7, min_batch_s: float = 0.02) -> dict[str, float]:
    """Median microseconds per call at each fixed branch argument."""
    ml = module("special").mittag_leffler
    out = {}
    for beta, args in ML_BRANCH_ARGS.items():
        for branch, x in args.items():
            n = 1
            while True:
                t0 = time.perf_counter()
                for _ in range(n):
                    ml(beta, x)
                if time.perf_counter() - t0 >= min_batch_s:
                    break
                n *= 2
            samples = []
            for _ in range(batches):
                t0 = time.perf_counter()
                for _ in range(n):
                    ml(beta, x)
                samples.append((time.perf_counter() - t0) / n * 1e6)
            out[f"special.mittag_leffler.b{beta:g}.{branch}_us"] = float(np.median(samples))
    return out
