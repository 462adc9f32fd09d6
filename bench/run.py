"""hoffman benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload radial|sphere|finite --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are drawn from the seed into
bench/work/ (ignored by git); a fresh worker process runs them in a closed
loop with one client, calling hoffman.cli.run in-process; a separate checker
process verifies every output with scipy afterwards.  The last line of
standard output is one JSON object with "correct", "attempted", "failed" and
"metrics": the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads anywhere: every process of the run inherits it.
THREAD_PINS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from calibrate import REFERENCE_S, local_speed  # noqa: E402

SETUP_STARTS = 6  # fresh interpreters per run, half before and half after the loop
TAIL_BEYOND = 10  # the tail percentile keeps at least this many executions above it
TAIL_CAP = 0.9  # and is never above p90: beyond it the host's hiccups, not hoffman, set the value
SPEED_HALFWIDTH = 2  # a request's host speed: median of the 5 kernel runs around it
WORKER_TIMEOUT_S = 150

# name: (unit, traced "module.function" or "module", total it reads); values are per request
PER_LAYER = {
    "specfun.omega.calls": ("count", "specfun.omega", "calls"),
    "specfun.omega.points": ("count", "specfun.omega", "points"),
    "specfun.omega.self_ms": ("ms", "specfun.omega", "self_s"),
    "specfun.bessel_j.points": ("count", "specfun.bessel_j", "points"),
    "specfun.bessel_j.self_ms": ("ms", "specfun.bessel_j", "self_s"),
    "specfun.jacobi_sequence.cells": ("count", "specfun.jacobi_sequence", "points"),
    "specfun.jacobi_sequence.self_ms": ("ms", "specfun.jacobi_sequence", "self_s"),
    "euclidean.global_extrema.calls": ("count", "euclidean.global_extrema", "calls"),
    "euclidean.fourier_radial.calls": ("count", "euclidean.fourier_radial", "calls"),
    "euclidean.fourier_radial.self_ms": ("ms", "euclidean.fourier_radial", "self_s"),
    "euclidean.self_ms": ("ms", "euclidean", "self_s"),
    "simplex.solve_matrix_game.calls": ("count", "simplex.solve_matrix_game", "calls"),
    "simplex.payoff_cells": ("count", "simplex.solve_matrix_game", "points"),
    "simplex.self_ms": ("ms", "simplex", "self_s"),
    "sphere.operator_range.calls": ("count", "sphere.operator_range", "calls"),
    "sphere.eigenvalue_sequence.calls": ("count", "sphere.eigenvalue_sequence", "calls"),
    "sphere.self_ms": ("ms", "sphere", "self_s"),
    "spectral.numerical_range.calls": ("count", "spectral.numerical_range", "calls"),
    "spectral.self_ms": ("ms", "spectral", "self_s"),
    "graphs.read_graph.self_ms": ("ms", "graphs.read_graph", "self_s"),
    "graphs.parse_graph.self_ms": ("ms", "graphs.parse_graph", "self_s"),
    "graphs.adjacency_matrix.self_ms": ("ms", "graphs.adjacency_matrix", "self_s"),
    "graphs.self_ms": ("ms", "graphs", "self_s"),
    "cli.self_ms": ("ms", "cli", "self_s"),
}


class BenchError(Exception):
    pass


def _python(*args, timeout):
    proc = subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(manifest_path, starts: int) -> list[tuple[float, float]]:
    """(seconds from spawning a fresh interpreter to its first finished
    request, the mixed calibration kernel's time just after) per start."""
    samples = []
    for _ in range(starts):
        start = time.monotonic()
        ready, kernel_s = map(float, _python(BENCH / "worker.py", "setup", manifest_path, timeout=60).split()[-2:])
        samples.append((ready - start, kernel_s))
    return samples


def tail_index(n: int) -> int:
    """Index in n sorted times of the highest percentile up to TAIL_CAP with
    TAIL_BEYOND beyond it."""
    return min(n - TAIL_BEYOND - 1, math.ceil(TAIL_CAP * n) - 1)


def scaled_times(results, manifest) -> list[float]:
    """Every execution's time at the reference speed, in execution order.

    The speed of an execution is the median of the calibration kernel run
    just before it (or before its group of calibrate_every requests) and the
    kernels around that one; its time is multiplied by the kernel's
    REFERENCE_S / that speed.  A run in the shared host's slow spells then
    reads like a run in its calm ones (see calibrate.py).
    """
    speed = local_speed(results["calibration_s"], SPEED_HALFWIDTH)
    every, reference = manifest["calibrate_every"], REFERENCE_S[manifest["kernel"]]
    return [t * reference / speed[j // every] for j, t in enumerate(results["latencies_s"])]


def end_to_end(results, manifest, setup) -> dict:
    scaled = scaled_times(results, manifest)
    count = len(manifest["requests"])
    # each distinct request's time: the median over the passes that ran it
    per_request = [statistics.median(scaled[i::count]) for i in range(count)]
    executions = sorted(scaled)
    return {
        "setup_s": (statistics.median(t * REFERENCE_S["mixed"] / k for t, k in setup), "s"),
        "throughput_rps": (count / sum(per_request), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(per_request), "ms"),
        "latency_tail_ms": (1000.0 * executions[tail_index(len(executions))], "ms"),
        "peak_rss_mb": (results["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(results) -> dict:
    totals, count = results["layers"], results["traced_requests"]
    metrics = {}
    for name, (unit, key, field) in PER_LAYER.items():
        value = totals.get(key, {}).get(field, 0)  # a function that no longer exists reads 0
        scale = 1000.0 if field == "self_s" else 1.0
        metrics[name] = (scale * value / count, unit)
    overhead = 100.0 * (results["traced_s"] / results["plain_s"] - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hoffman" / "__init__.py").is_file():
        print(f"bench: no hoffman sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    # a traced run runs every round twice (untraced, then traced): half the rounds
    seconds = args.seconds / 2 if args.trace else args.seconds
    manifest = workloads.build(args.workload, args.seed, seconds, work / "inputs")
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    results_path = work / "results.json"

    try:
        starts = 0 if args.trace else SETUP_STARTS // 2
        setup = measure_setup(manifest_path, starts)
        _python(BENCH / "worker.py", "run", manifest_path, results_path, args.trace, timeout=WORKER_TIMEOUT_S)
        setup += measure_setup(manifest_path, starts)
        verdict = json.loads(_python(BENCH / "check.py", manifest_path, results_path, timeout=120).strip().splitlines()[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    with open(results_path, encoding="utf-8") as fh:
        results = json.load(fh)
    shutil.rmtree(work / "inputs", ignore_errors=True)

    metrics = per_layer(results) if args.trace else end_to_end(results, manifest, setup)
    n = len(manifest["requests"])
    print(
        f"# {args.workload} seed {args.seed}: {manifest['passes']} passes over {n} requests; "
        f"threads in worker: {results['threads']}"
    )
    if not args.trace:
        runs = len(results["latencies_s"])
        raw = sorted(min(results["latencies_s"][i::n]) for i in range(n))
        print(
            f"# latency tail = p{100.0 * (tail_index(runs) + 1) / runs:.1f} of {runs} executions; "
            f"unscaled: fastest-pass p50 {1000.0 * statistics.median(raw):.4g} ms; "
            f"calibration kernel median {1000.0 * statistics.median(results['calibration_s']):.4g} ms "
            f"(reference {1000.0 * REFERENCE_S[manifest['kernel']]:.4g} ms); "
            f"set-up samples (s, mixed kernel ms): {[(round(t, 4), round(1000.0 * k, 4)) for t, k in setup]}"
        )
    for line in verdict["problems"]:
        print(f"# check: {line}")
    print(
        json.dumps(
            {
                "correct": verdict["correct"],
                "attempted": results["executions"],
                "failed": verdict["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
