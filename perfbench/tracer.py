"""In-memory span and counter recorder for the traced benchmark run.

The tracer wraps loiterpack functions from outside the package: it replaces a
module attribute at the place where the caller looks the name up (for
example ``loiterpack.fleet.plan_transition``, which ``super_agent_recover``
calls) and restores it afterwards. A wrapped name that a later version of the
package no longer has is recorded as absent; the run goes on without it and
every metric derived from it is reported as absent. So is a counter whose
arguments or result no longer have the expected shape.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _n_pairs(args, kwargs, result):
    plans = list(args[0]) if args else list(kwargs.get("plans", ()))
    loitering = args[1] if len(args) > 1 else kwargs.get("loitering", ())
    n = len(plans) + len(loitering)
    return n * (n - 1) // 2


# (module, attribute, span name, counter name, counter increment). The
# attribute is the name the caller looks up: cli calls the fleet workflow
# through its own imports, fleet calls the dubins/packing/optimize functions
# through its own imports, and coverage_report calls ``kernels.<name>``.
SPANS = (
    ("loiterpack.cli", "load_config", "cli.load_config", None, None),
    ("loiterpack.cli", "render_fleet", "cli.render", "render.svg_bytes",
     lambda a, k, r: len(r.encode())),
    ("loiterpack.cli", "deploy", "fleet.deploy", "fleet.uavs", lambda a, k, r: len(r.uavs)),
    ("loiterpack.cli", "inject_failure", "fleet.inject_failure", None, None),
    ("loiterpack.cli", "detect_failures", "fleet.detect_failures", None, None),
    ("loiterpack.cli", "super_agent_recover", "fleet.recover", "fleet.transitions",
     lambda a, k, r: len(r.transitions)),
    ("loiterpack.cli", "apply_recovery", "fleet.apply_recovery", None, None),
    ("loiterpack.cli", "coverage_report", "fleet.coverage_report", None, None),
    ("loiterpack.fleet", "linear_sum_assignment", "fleet.assign", None, None),
    ("loiterpack.fleet", "plan_transition", "dubins.plan_transition", None, None),
    ("loiterpack.fleet", "closest_approach", "dubins.closest_approach",
     "dubins.separation_pairs", _n_pairs),
    ("loiterpack.fleet", "solve_radius", "optimize.solve_radius", None, None),
    ("loiterpack.fleet", "pack", "packing.pack", None, None),
    ("loiterpack.fleet", "grid_points", "packing.grid_points", "packing.grid_points",
     lambda a, k, r: len(r[0])),
    ("loiterpack.kernels", "cycle_cover_count", "kernels.cycle_cover_count", "kernels.evals",
     lambda a, k, r: len(a[0]) * len(a[2])),
    ("loiterpack.kernels", "min_instant_fraction", "kernels.min_instant_fraction",
     "kernels.evals", lambda a, k, r: len(a[0]) * len(a[2]) * len(a[6])),
)

# High-frequency calls are counted without a span, to keep the overhead low.
COUNTED = (
    ("loiterpack.dubins", "shortest_path", "dubins.shortest_path"),
    ("loiterpack.optimize", "uav_count", "optimize.uav_count"),
)


class Tracer:
    """Spans (name, start, end, parent, iteration) and call counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, iteration]
        self.calls: dict[tuple[int, str], int] = defaultdict(int)
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.absent: set[str] = set()
        self.iteration = 0
        self._stack: list[int] = []

    def _span_wrapper(self, fn, name, counter, increment):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent, self.iteration]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            self.calls[self.iteration, name] += 1
            if counter is not None and counter not in self.absent:
                try:
                    self.counters[self.iteration, counter] += increment(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.absent.add(counter)  # the function's signature or result changed
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            self.calls[self.iteration, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, iteration: int):
        """Wrap every listed function for the duration of the block."""
        self.iteration = iteration
        patches = []
        wanted = [(m, a, self._span_wrapper, (n, c, inc)) for m, a, n, c, inc in SPANS]
        wanted += [(m, a, self._count_wrapper, (n,)) for m, a, n in COUNTED]
        for module_name, attr, make, extra in wanted:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(extra[0])
                continue
            patches.append((module, attr, fn))
            setattr(module, attr, make(fn, *extra))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(patches):
                setattr(module, attr, fn)

    def iteration_totals(self, iteration: int) -> dict[str, float]:
        """Busy time ``<name>_s``, self time ``<name>_self_s``, ``<name>_calls``
        and counters of one traced iteration."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, it in self.spans:
            if it == iteration and parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, it) in enumerate(self.spans):
            if it != iteration:
                continue
            out[name + "_s"] += end - start
            out[name + "_self_s"] += end - start - child_time[index]
        for (it, name), n in self.calls.items():
            if it == iteration:
                out[name + "_calls"] += n
        for (it, name), n in self.counters.items():
            if it == iteration:
                out[name] += n
        return dict(out)

    def write_spans(self, path) -> None:
        """Write every recorded span as CSV (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["index,name,start_s,end_s,parent,iteration"]
        for index, (name, start, end, parent, it) in enumerate(self.spans):
            lines.append(f"{index},{name},{start - t0:.9f},{end - t0:.9f},{parent},{it}")
        path.write_text("\n".join(lines) + "\n")
