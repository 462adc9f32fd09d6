"""Span tracing of calls into hoffman's modules, installed from outside.

``Tracer.install`` replaces every public function of every ``hoffman.*``
namespace that holds it (``fourier_radial`` in both ``hoffman.euclidean``
and ``hoffman``, ``numerical_range`` in ``hoffman.graphs`` and
``hoffman.spectral``, ...) with one wrapper that records a span: function,
parent span, start, end, request and, for the kernels that take arrays, the
number of points it was handed.  Calls that resolve a name through a
module's globals go through the wrapper, so a module's self time is the
time spent in its own code, private helpers included.  ``uninstall`` puts
the original functions back.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import types
from time import perf_counter

import numpy as np


# Work units recorded per call, by the function's "module.name": the product
# of the sizes of these arguments, where an integer degree k counts k + 1.
_POINTS = {
    "specfun.omega": ("t",),
    "specfun.bessel_j": ("x",),
    "specfun.jacobi_sequence": ("kmax", "t"),
    "simplex.solve_matrix_game": ("payoff",),
    "euclidean.fourier_radial": ("r",),
}


def _points_counter(fn, names):
    """A (args, kwargs) -> points function, or None if fn lacks those parameters."""
    params = list(inspect.signature(fn).parameters)
    if not all(n in params for n in names):
        return None
    where = [(params.index(n), n) for n in names]

    def count(args, kwargs):
        total = 1
        for index, name in where:
            value = args[index] if index < len(args) else kwargs[name]
            total *= int(value) + 1 if isinstance(value, (int, np.integer)) else int(np.size(value))
        return total

    return count


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, parent index, start, end, points, request]
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (namespace, attribute, original, wrapper)
        wrappers = {}
        for ns in self._namespaces(package):
            for attr, fn in list(vars(ns).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith(package.__name__ + "."):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._patches.append((ns, attr, fn, wrappers[fn]))

    @staticmethod
    def _namespaces(package):
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            yield importlib.import_module(f"{package.__name__}.{info.name}")

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        fid = len(self.names)
        self.names.append(name)
        points = _points_counter(fn, _POINTS[name]) if name in _POINTS else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, stack[-1] if stack else -1, 0.0, 0.0, 0, self.request]
            if points is not None:
                span[4] = points(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def totals(self) -> dict:
        """Per function and per module: calls, points and self seconds."""
        child = [0.0] * len(self.spans)
        for fid, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (fid, _, start, end, points, _) in enumerate(self.spans):
            name = self.names[fid]
            own = end - start - child[i]
            for key in (name, name.split(".", 1)[0]):
                agg = out.setdefault(key, {"calls": 0, "points": 0, "self_s": 0.0})
                agg["self_s"] += own
            out[name]["calls"] += 1
            out[name]["points"] += points
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "parent", "start", "end", "points", "request"], "spans": self.spans}, fh)
