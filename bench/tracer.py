"""Span tracer that times the library's public functions from outside.

``Tracer.install`` replaces every binding of each layer module's
``__all__`` functions, in every loaded ``poissonridge`` module (the
package re-exports included), with one timing wrapper per function, so
a span follows a call wherever the library routes it. ``uninstall`` puts
the original objects back. Spans are recorded only while ``active`` is
set, which the worker does for the timed part of each op, so input
generation never shows up in the per-layer numbers.
"""

import contextlib
import functools
import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "poissonridge"
LAYERS = ("radon", "wavelet", "spd", "shrinkage", "ridgelet", "harness",
          "phantoms", "seeding")

# offset bins each pixel deposits into per angle, by interpolation mode
ROTATION_TAPS = {"nearest": 1, "linear": 2, "area": 5}

# a sum of child spans may exceed its parent by float rounding only
_ROUNDING_S = 1e-9


def _rotation_deposits(bound, result):
    angles = bound.arguments["angles"]
    n_angles = int(angles) if np.ndim(angles) == 0 else len(angles)
    return (np.size(bound.arguments["img"]) * n_angles
            * ROTATION_TAPS[bound.arguments["interp"]])


def _threshold_grid_evals(bound, result):
    policy = bound.arguments["policy"]
    if policy.selector == "fixed":
        return 0
    return np.size(bound.arguments["band"]) * policy.grid_points


def _gof_tested(bound, result):
    return result[0].gof_tested


# computed work counts: function key -> (count name, counter)
COUNTERS = {
    "radon.drt_rotation": ("radon.drt_rotation.deposits", _rotation_deposits),
    "shrinkage.select_threshold": ("shrinkage.select_threshold.grid_evals",
                                   _threshold_grid_evals),
    "harness.run_distribution_experiment": ("harness.gof_tested", _gof_tested),
}


class Tracer:
    """Records (name, start, end, parent) spans around wrapped calls."""

    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._bindings = []      # (module, attribute, original object)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one op."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, key, fn):
        tracer = self
        counter = COUNTERS.get(key)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counts[counter[0]] += counter[1](bound, result)
            return result

        traced.bench_traced = True
        return traced

    def install(self):
        """Wrap every binding of the layer modules' public functions."""
        wrappers = {}            # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        """Restore every binding; returns a list of problems found."""
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        problems = [f"{module.__name__}.{attr} not restored"
                    for module, attr, original in self._bindings
                    if getattr(module, attr) is not original]
        for module in _package_modules():
            problems += [f"{module.__name__}.{attr} still traced"
                         for attr, value in vars(module).items()
                         if getattr(value, "bench_traced", False)]
        self._bindings = []
        return problems

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def check_nesting(self, self_s):
        """Problems where siblings' self times exceed their parent's span."""
        sibling_self = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                sibling_self[span[3]] += self_s[i]
        problems = []
        for parent, total in sibling_self.items():
            name, start, end, _ = self.spans[parent]
            if total > end - start + _ROUNDING_S:
                problems.append(f"children of {name} have {total:.9f} s of "
                                f"self time in a {end - start:.9f} s span")
        problems += [f"{self.spans[i][0]} has negative self time"
                     for i, s in enumerate(self_s) if s < -_ROUNDING_S]
        return problems

    def aggregate(self, self_s):
        """Totals per span name: calls, inclusive seconds, self seconds."""
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = totals[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s[i]
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in totals.items()}


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]
