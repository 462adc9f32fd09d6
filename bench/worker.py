"""The measured process: one client calling hoffman.cli.run in a closed loop.

    python3 bench/worker.py setup MANIFEST
        import hoffman, load the request list, finish the first warm-up
        request, then print the monotonic clock (the end of set-up) and the
        median time of the mixed calibration kernel run just after it.
    python3 bench/worker.py run MANIFEST RESULTS TRACE
        run the warm-up requests, then make the manifest's passes over its
        request list, one request after another, and write timings and every
        output to RESULTS.  With TRACE 0 the workload's calibration kernel
        runs, untimed, before every request (every k-th for short ones).
        With TRACE 1 each round is run untraced and then traced, so the same
        requests give the tracing overhead.

run.py starts this process with BLAS/OpenMP pools pinned to one thread.
hoffman is imported from the checkout's src/, never from site-packages.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_KERNELS = 9  # mixed calibration kernels run after each set-up (set-up is interpreted Python)


def import_hoffman():
    sys.path.insert(0, str(SRC))
    import hoffman
    import hoffman.cli

    if Path(hoffman.__file__).resolve().parent != (SRC / "hoffman").resolve():
        raise SystemExit(f"hoffman was imported from {hoffman.__file__}, not from {SRC}")
    return hoffman


def call(cli, argv) -> list:
    """[exit code, stdout, stderr] of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a traceback is a failed request, not a dead benchmark
        return [-1, out.getvalue(), f"{type(exc).__name__}: {exc}"]
    return [rc, out.getvalue(), err.getvalue()]


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(manifest_path) -> int:
    hoffman = import_hoffman()
    manifest = _load(manifest_path)
    rc, _, err = call(hoffman.cli, manifest["warmup"][0]["argv"])
    ready = time.monotonic()
    if rc != 0:
        print(f"warm-up request failed: {err.strip()}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(BENCH))
    from calibrate import kernel

    kernels = sorted(kernel("mixed") for _ in range(SETUP_KERNELS))
    print(repr(ready), repr(kernels[SETUP_KERNELS // 2]))
    return 0


def _thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def run(manifest_path, results_path, trace: bool) -> int:
    hoffman = import_hoffman()
    manifest = _load(manifest_path)
    warm = [call(hoffman.cli, req["argv"]) for req in manifest["warmup"]]
    threads = _thread_count()
    argvs = [req["argv"] for req in manifest["requests"]]
    size = manifest["round_size"]
    rounds = [range(i, i + size) for i in range(0, len(argvs), size)]
    sys.path.insert(0, str(BENCH))
    from calibrate import kernel

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(hoffman)

    first = [None] * len(argvs)
    latencies: list[float] = []
    calibration: list[float] = []
    counter = {"mismatches": 0, "executions": 0}

    def run_round(indices, record: bool) -> float:
        cli = hoffman.cli
        total = 0.0
        for i in indices:
            if tracer is not None:
                tracer.request = counter["executions"]
            elif counter["executions"] % manifest["calibrate_every"] == 0:
                calibration.append(kernel(manifest["kernel"]))
            t0 = time.perf_counter()
            res = call(cli, argvs[i])
            elapsed = time.perf_counter() - t0
            total += elapsed
            counter["executions"] += 1
            if record:
                latencies.append(elapsed)
            if first[i] is None:
                first[i] = res
            elif res != first[i]:
                counter["mismatches"] += 1
        return total

    plain_s = traced_s = 0.0
    for _ in range(manifest["passes"]):
        for indices in rounds:
            plain_s += run_round(indices, record=True)
            if tracer is not None:
                tracer.install()
                try:
                    traced_s += run_round(indices, record=False)
                finally:
                    tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = {
        "latencies_s": latencies,
        "calibration_s": calibration,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "executions": counter["executions"],
        "runs_per_request": manifest["passes"] * (2 if trace else 1),
        "mismatches": counter["mismatches"],
        "peak_rss_kb": peak_kb,
        "threads": threads,
        "outputs": first,
        "warmup_outputs": warm,
    }
    if tracer is not None:
        results["layers"] = tracer.totals()
        results["traced_requests"] = len(latencies)
        tracer.dump(Path(results_path).with_name("spans.json"))
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        return setup(argv[1])
    if argv[:1] == ["run"] and len(argv) == 4:
        return run(argv[1], argv[2], argv[3] == "1")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
