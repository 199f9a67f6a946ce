"""In-memory span recorder for the traced benchmark run.

:func:`install` wraps public functions of the ``hnmaxwell`` modules in every
module namespace that holds them, so a call is recorded whichever module
makes it (``stepper`` calls ``assemble_edge_load`` through its own import of
it).  Each call becomes a span ``(name, start, end, parent)``; all spans of
one repetition share the tracer's run id.  Nothing is written until
:meth:`Tracer.dump`, after the run.

A layer's self time is its spans' durations minus the parts covered by their
child spans, so the self times of all spans add up to the root spans' time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

__all__ = [
    "Tracer",
    "TARGETS",
    "install",
    "self_times",
    "percentile",
    "tail_ratio",
    "layer_metrics",
    "ndarray_bytes",
]


class Tracer:
    """Records nested spans and named counters of one repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with each call recorded as a span called ``name``.

        ``on_result(tracer, result)`` runs after the span closes and may
        update counters.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans and counters as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(record))


def ndarray_bytes(obj) -> int:
    """Bytes of the arrays a (possibly nested) dataclass instance holds."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(ndarray_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    nbytes = getattr(obj, "nbytes", None)
    return nbytes if isinstance(nbytes, int) else 0


def _max_history_mb(tracer: Tracer, state) -> None:
    mb = ndarray_bytes(state) / 2**20
    tracer.counters["stepper.history_mb"] = max(tracer.counters["stepper.history_mb"], mb)


def _count_weights(tracer: Tracer, weights) -> None:
    tracer.counters["quadrature.weights_generated"] += weights.weights.size


def _count_cells(tracer: Tracer, results) -> None:
    tracer.counters["monotonicity.cells"] += len(results)


# (span name, module, attribute or Class.method, counter hook)
TARGETS = [
    ("cli.run", "hnmaxwell.cli", "main", None),
    ("stepper.driver", "hnmaxwell.stepper", "run_energy", None),
    ("stepper.driver", "hnmaxwell.stepper", "run_convergence", None),
    ("stepper.init_state", "hnmaxwell.stepper", "init_state", _max_history_mb),
    ("stepper.step", "hnmaxwell.stepper", "step", None),
    ("stepper.factorize", "hnmaxwell.stepper", "StepOperator.__init__", None),
    ("stepper.solve", "hnmaxwell.stepper", "StepOperator.solve", None),
    ("stepper.solve_mass", "hnmaxwell.stepper", "StepOperator.solve_mass", None),
    ("stepper.energy_components", "hnmaxwell.stepper", "energy_components", None),
    ("fem.assemble", "hnmaxwell.fem", "assemble", None),
    ("fem.assemble_edge_load", "hnmaxwell.fem", "assemble_edge_load", None),
    ("fem.assemble_cell_load", "hnmaxwell.fem", "assemble_cell_load", None),
    ("fem.interpolate", "hnmaxwell.fem", "interpolate_E", None),
    ("fem.interpolate", "hnmaxwell.fem", "interpolate_H", None),
    ("quadrature.generate_weights", "hnmaxwell.quadrature", "generate_weights", _count_weights),
    ("series.series_pow", "hnmaxwell.series", "series_pow", None),
    ("series.series_mul", "hnmaxwell.series", "series_mul", None),
    ("monotonicity.sweep_grid", "hnmaxwell.monotonicity", "sweep_grid", _count_cells),
    ("prabhakar.integral_monomial", "hnmaxwell.prabhakar", "prabhakar_integral_monomial", None),
]


def install(tracer: Tracer, targets=TARGETS, package: str = "hnmaxwell") -> list[str]:
    """Wrap every target where its callers look it up; returns the targets not found.

    A module-level function is replaced in each loaded module of ``package``
    that holds it; a method is replaced on its class.
    """
    missing = []
    for name, module_name, attr, on_result in targets:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(name, original, on_result)
        if owner_name:
            setattr(owner, method, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    return missing


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_ratio(durations) -> float:
    """Mean of the last tenth of ``durations`` over the mean of the first tenth."""
    if not durations:
        return 0.0
    tenth = max(1, len(durations) // 10)
    return sum(durations[-tenth:]) / sum(durations[:tenth])


# Reported statistics per layer (span name).
LAYER_STATS = {
    "stepper.step": ("calls", "self_s"),
    "stepper.solve": ("calls", "busy_s"),
    "stepper.solve_mass": ("calls", "busy_s"),
    "stepper.factorize": ("busy_s",),
    "stepper.energy_components": ("calls", "busy_s"),
    "stepper.driver": ("self_s",),
    "fem.assemble": ("busy_s",),
    "fem.assemble_edge_load": ("calls", "busy_s"),
    "fem.assemble_cell_load": ("calls", "busy_s"),
    "fem.interpolate": ("busy_s",),
    "quadrature.generate_weights": ("calls", "busy_s", "self_s"),
    "series.series_pow": ("calls", "busy_s"),
    "series.series_mul": ("busy_s",),
    "monotonicity.sweep_grid": ("self_s",),
    "prabhakar.integral_monomial": ("calls", "busy_s"),
    "cli.run": ("self_s",),
}
COUNTERS = ("stepper.history_mb", "quadrature.weights_generated", "monotonicity.cells")


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Step-time percentiles cover every ``stepper.step`` span; the tail ratio
    covers the longest trajectory, a trajectory being the steps after one
    ``stepper.init_state`` call.
    """
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    trajectories: dict[int, list[float]] = defaultdict(list)
    trajectory = -1
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        stats[name]["calls"] += 1
        stats[name]["busy_s"] += end - start
        stats[name]["self_s"] += own
        if name == "stepper.init_state":
            trajectory += 1
        elif name == "stepper.step":
            trajectories[trajectory].append(end - start)
    metrics = {
        f"{layer}.{stat}": int(stats[layer][stat]) if stat == "calls" else stats[layer][stat]
        for layer, wanted in LAYER_STATS.items()
        for stat in wanted
    }
    steps = [d for run in trajectories.values() for d in run]
    metrics["stepper.step.p50_ms"] = 1e3 * percentile(steps, 50)
    metrics["stepper.step.p99_ms"] = 1e3 * percentile(steps, 99)
    longest = max(trajectories.values(), key=len, default=[])
    metrics["stepper.step.tail_ratio"] = tail_ratio(longest)
    for counter in COUNTERS:
        metrics[counter] = counters.get(counter, 0.0)
    return metrics
