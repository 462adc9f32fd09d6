"""Fixed calibration kernels that measure how fast the host runs right now.

The benchmark's host is shared: the same request runs up to twice as slowly
for seconds to minutes while other tenants are busy, and CPU time slows with
wall time, so neither clock alone repeats.  A kernel does a fixed amount of
the kinds of work a workload's requests do and returns its duration.  The
worker runs the workload's kernel before every timed request, and ``run.py``
divides each request's time by the kernel's local time, then multiplies by
the kernel's ``REFERENCE_S``: a request's time is reported in seconds at the
host's reference speed, the speed at which the kernel takes ``REFERENCE_S``.

Two kernels, because slow spells do not slow all code alike: interpreted
Python slows more than a large LAPACK call.

- ``mixed`` (radial, sphere): argparse, json and text parsing from the
  standard library, many numpy calls on small arrays, a 24 x 24 eigen-solve.
- ``dense`` (finite): edge-list parsing, dense adjacency assembly and a
  320 x 320 symmetric eigen-solve.

The kernels use nothing that hoffman does not already import (numpy and the
standard library) and keep under 2 MB of arrays, so they add next to nothing
to the timed process's memory.  They are the benchmark's own code: a change
to hoffman never changes their cost, so a faster or slower hoffman moves
every scaled time by the same factor as the raw one.
"""

from __future__ import annotations

import argparse
import gc
import json
from time import perf_counter

import numpy as np

_X = np.linspace(0.0, 3.0, 64)
_SYM = np.add.outer(np.arange(24.0), np.arange(24.0)) % 7.0
_VALUES = [float(v) for v in np.linspace(-1.0, 1.0, 48)]
_EDGES = [f"{i} {(7 * i + 3) % 200}" for i in range(200)]
_DENSE_N = 320
_DENSE_BASE = np.add.outer(np.arange(float(_DENSE_N)), np.arange(float(_DENSE_N))) % 13.0
_DENSE_EDGES = [f"{i % _DENSE_N} {(7 * i + 3) % _DENSE_N}" for i in range(3000)]


def _mixed_unit() -> float:
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        sp = sub.add_parser(name)
        sp.add_argument("path", nargs="?")
        sp.add_argument("-n", type=int, default=3)
        sp.add_argument("--tol", type=float, default=1e-8)
    ns = parser.parse_args(["b", "file", "-n", "5"])
    json.loads(json.dumps({"values": _VALUES, "n": ns.n}, indent=2))
    edges = [tuple(map(int, line.split())) for line in _EDGES]
    acc = float(len(edges))
    for k in range(24):
        acc += float(np.cos(_X * (k + 1)) @ np.sin(_X))
    return acc + float(np.linalg.eigvalsh(_SYM)[0])


def _dense_unit() -> float:
    edges = np.array([line.split() for line in _DENSE_EDGES], dtype=np.int64)
    adj = np.zeros((_DENSE_N, _DENSE_N))
    adj[edges[:, 0], edges[:, 1]] = 1.0
    return float(np.linalg.eigvalsh(adj + adj.T + _DENSE_BASE)[0])


UNITS = {"mixed": _mixed_unit, "dense": _dense_unit}

# Each kernel's median duration on the reference host (2-core Xeon VM at
# 2.0 GHz, Python 3.11, numpy 2.4 on OpenBLAS pinned to one thread) in a calm
# period.  They only set the scale of the reported times; the ratio between
# two commits does not depend on them.
REFERENCE_S = {"mixed": 0.0010, "dense": 0.0085}


def kernel(name: str) -> float:
    """Seconds taken by one fixed unit of the named kernel's work.

    The unit runs twice and only the second run is timed, so the caches hold
    the kernel's own code and data, whatever the request before it left.
    The garbage collector is held off meanwhile: a collection's cost depends
    on hoffman's heap, which would tie the kernel's time to the workload.
    """
    unit = UNITS[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        unit()
        start = perf_counter()
        if not np.isfinite(unit()):  # keeps the work observable
            raise ArithmeticError(f"calibration kernel {name} produced a non-finite value")
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_speed(samples: list[float], halfwidth: int) -> list[float]:
    """Each sample replaced by the median of the samples within halfwidth of it."""
    out = []
    for j in range(len(samples)):
        window = sorted(samples[max(0, j - halfwidth) : j + halfwidth + 1])
        mid = len(window) // 2
        out.append(window[mid] if len(window) % 2 else 0.5 * (window[mid - 1] + window[mid]))
    return out
