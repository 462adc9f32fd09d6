"""Seeded request lists for the three benchmark workloads.

A request is a dict with the argv that the worker hands to
``hoffman.cli.run``, a ``kind`` that tells the checker how to verify the
output, the ``facts`` the checker needs (what the benchmark drew, never what
hoffman computed), and ``fault``: the name of a known program fault when the
request is kept to fail every time, else None.

Every workload is built from *rounds*: a round is a fixed composition of
request slots whose inputs are drawn from the seed.  A run makes a whole
number of passes over a fixed number of distinct rounds, so every run
attempts the same composition and the share of known-fault requests is the
same in every run, whatever the seed.  The number of passes depends only on
``--seconds``, never on the clock, so a run's work is fixed.  Each request
runs once per pass, so its time can be taken over many repetitions spread
across the whole run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("radial", "sphere", "finite")
_DIGITS = 6  # drawn values are rounded, so files and argv carry them exactly

# Share of --seconds that the timed loop should last at the reference speed.
# A busy host runs the same passes up to twice as slowly; the rest covers
# that, drawing inputs, set-up starts, warm-up and the checker.
WORK_SHARE = 0.5
MIN_PASSES = 5  # every workload then makes at least 40 executions, enough for a tail


@dataclass(frozen=True)
class Plan:
    rounds: int  # distinct rounds, whatever the run's length
    pass_seconds: float  # one pass over them, calibration included, at the reference speed
    kernel: str  # the calibration kernel that scales this workload's times (calibrate.py)
    calibrate_every: int  # requests per kernel run


# pass_seconds is one pass's time, single-threaded on a 2-core Xeon VM at
# the reference speed, rounded.  Rounds are few enough that every request
# repeats at least MIN_PASSES times, and many enough that p50 is taken over
# all of a round's slots.
PLANS = {
    "radial": Plan(rounds=1, pass_seconds=2.5, kernel="mixed", calibrate_every=1),
    "sphere": Plan(rounds=4, pass_seconds=0.31, kernel="mixed", calibrate_every=4),
    "finite": Plan(rounds=2, pass_seconds=2.5, kernel="dense", calibrate_every=1),
}


def plan_rounds(workload: str, seconds: float) -> tuple[int, int]:
    """(distinct rounds, passes) for a run of the given nominal length."""
    plan = PLANS[workload]
    return plan.rounds, max(MIN_PASSES, round(WORK_SHARE * seconds / plan.pass_seconds))


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def _num(x: float) -> str:
    """A float as argv text.  argparse takes "-4.5e-05" for an option, so
    exponent notation is never used."""
    text = repr(float(x))
    return f"{float(x):.17f}" if "e" in text else text


def _request(argv, kind, facts=None, fault=None) -> dict:
    return {"argv": [str(a) for a in argv], "kind": kind, "facts": facts or {}, "fault": fault}


def _sorted_distinct(rng, k, lo, hi, gap) -> list[float]:
    """k values in [lo, hi], sorted, at least gap apart after rounding."""
    while True:
        vals = np.sort(np.round(rng.uniform(lo, hi, k), _DIGITS))
        if k == 1 or np.diff(vals).min() >= gap:
            return [float(v) for v in vals]


def _jittered_grid(rng, k, lo, hi) -> list[float]:
    """One point drawn from the middle 60% of each of k equal cells of [lo, hi].

    Supports with clustered points make optimize --mode sphere fail to
    certify (see CHANGES.md), which would fail a seed-dependent number of
    requests; cells keep points at least 0.4 cell widths apart.
    """
    width = (hi - lo) / k
    pos = lo + width * (np.arange(k) + rng.uniform(0.2, 0.8, k))
    return [float(v) for v in np.round(pos, _DIGITS)]


def _weights(rng, k, signed: bool) -> list[float]:
    """Weights normalised to total variation 1; signed ones mix both signs."""
    w = rng.uniform(0.2, 1.0, k)
    if signed:
        neg = rng.choice(k, size=max(1, k // 3), replace=False)
        w[neg] = -w[neg]
    return [float(x) for x in np.round(w / np.abs(w).sum(), _DIGITS)]


# --------------------------------------------------------------------- radial
# Eight slots, each a template that the seed perturbs: radii move by up to
# RADIAL_JITTER and weights by up to 10% before renormalising, so a slot's
# cost stays in a narrow band whatever the seed.  Scan length and the number
# of refined basins, and so the cost, depend on the radii and weights; with
# freely drawn ones the one-round workload's throughput moved by +-10% between
# seeds.  Nonnegative measures make three global_extrema calls per request,
# signed ones two.
RADIAL_JITTER = 0.02
RADIAL_SLOTS = (  # (dimension, radii, weights); weights have total variation 1
    (2, (1.25, 1.65), (0.5, 0.5)),
    (3, (1.45, 1.9), (0.45, 0.55)),
    (4, (1.3, 1.6, 1.9), (0.2, 0.6, 0.2)),
    (5, (1.15, 1.75), (-0.55, 0.45)),
    (6, (1.05, 1.3, 1.6), (-0.35, 0.35, 0.3)),
    (2, (1.05, 1.2, 1.35, 1.5, 1.7, 1.9), (-0.23, 0.22, -0.11, 0.24, 0.07, 0.13)),
)
ODD_DISTANCE_BETA = (1.55, 1.75)
OPTIMIZE_RADIAL_DIM, OPTIMIZE_RADIAL_SECOND = 2, (1.41, 1.49)


def _radial_round(rng, r: int, root: Path) -> list[dict]:
    reqs = []
    for j, (dim, radii, weights) in enumerate(RADIAL_SLOTS):
        radii = np.round(np.array(radii) + rng.uniform(-RADIAL_JITTER, RADIAL_JITTER, len(radii)), _DIGITS)
        w = np.array(weights) * rng.uniform(0.9, 1.1, len(weights))
        w = np.round(w / np.abs(w).sum(), _DIGITS)
        mu = {"dim": dim, "atoms": [[float(d), float(x)] for d, x in zip(radii, w)]}
        path = _write_json(root / f"r{r}_{j}.json", mu)
        reqs.append(_request(["euclidean", path], "euclidean", {"measure": mu}))
    beta = float(np.round(rng.uniform(*ODD_DISTANCE_BETA), 4))
    reqs.append(
        _request(
            ["odd-distance", "--beta", _num(beta), "-N", 2],
            "odd-distance",
            {"beta": beta, "terms": 2},
        )
    )
    support = [1.0, float(np.round(rng.uniform(*OPTIMIZE_RADIAL_SECOND), _DIGITS))]
    reqs.append(
        _request(
            ["optimize", "--mode", "radial", "-n", OPTIMIZE_RADIAL_DIM, "--support"] + [_num(x) for x in support],
            "optimize-radial",
            {"dim": OPTIMIZE_RADIAL_DIM, "support": support},
        )
    )
    return reqs


def _radial_warmup(root: Path) -> list[dict]:
    mu = {"dim": 2, "atoms": [[1.0, 1.0]]}
    path = _write_json(root / "warm.json", mu)
    return [
        _request(["euclidean", path], "euclidean", {"measure": mu}),
        _request(["odd-distance", "--beta", "2.0", "-N", 1], "odd-distance", {"beta": 2.0, "terms": 1}),
        _request(
            ["optimize", "--mode", "radial", "-n", 3, "--support", "1.0", "1.8"],
            "optimize-radial",
            {"dim": 3, "support": [1.0, 1.8]},
        ),
    ]


# --------------------------------------------------------------------- sphere
# Named faults, kept as requests that fail every time on seed-free inputs.
FAULT_SPHERE_K = "sphere-file-provenance-K"
FAULT_SPHERE_N2 = "sphere-n2-irrational-scan"
_FAULT_FILE_MEASURE = {"dim": 3, "atoms": [[0.999, 1.0]]}


def _certifies_at(mu: dict, kmax: int) -> bool:
    """True when hoffman's own tail rule certifies mu at kmax without doubling.

    Every request whose range needs K doubling reports the wrong truncation
    (FAULT_SPHERE_K); seeded files are drawn so that their failure count does
    not depend on the seed, and the seed-free fault file exercises doubling.
    """
    from check import certifies, sphere_eigenvalues, truncation_range  # scipy, only when drawing

    ts = [a[0] for a in mu["atoms"]]
    ws = [a[1] for a in mu["atoms"]]
    m, big, tail = truncation_range(sphere_eigenvalues(mu["dim"], ts, ws, 2 * kmax), kmax)
    return m < -1e-6 and certifies(m, big, tail)


def _sphere_round(rng, r: int, root: Path) -> list[dict]:
    reqs = []
    for j in range(6):
        dim = 3 + (j + r) % 6
        kmax = (32, 64, 128)[(j + r) % 3]
        while True:
            k = int(rng.integers(1, 5))
            ts = _sorted_distinct(rng, k, -0.95, 0.9, 0.01)
            mu = {"dim": dim, "atoms": [[t, w] for t, w in zip(ts, _weights(rng, k, j % 2 == 1))]}
            if _certifies_at(mu, kmax):
                break
        path = _write_json(root / f"s{r}_{j}.json", mu)
        reqs.append(_request(["sphere", path, "--kmax", kmax], "sphere-file", {"measure": mu}))
    path = _write_json(root / "fault_k.json", _FAULT_FILE_MEASURE)
    reqs.append(
        _request(["sphere", path], "sphere-file", {"measure": _FAULT_FILE_MEASURE}, FAULT_SPHERE_K)
    )
    for j in range(4):
        dim = 3 + (j + 2 * r) % 6
        t = float(np.round(rng.uniform(-0.95, 0.95), 6))
        reqs.append(_request(["sphere", "-n", dim, "-t", _num(t)], "sphere-t", {"dim": dim, "t": t}))
    # n = 2 with t = cos(pi p/q): theta/pi is rational, so the exact infimum is
    # the minimum over one period.  Irrational angles are the fault request.
    q = int(rng.integers(3, 41))
    p = int(rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1]))
    t = math.cos(math.pi * p / q)
    reqs.append(
        _request(["sphere", "-n", 2, "-t", _num(t)], "sphere-t", {"dim": 2, "t": t, "p": p, "q": q})
    )
    reqs.append(
        _request(
            ["sphere", "-n", 2, "-t", "-0.3"],
            "sphere-t",
            {"dim": 2, "t": -0.3, "irrational": True},
            FAULT_SPHERE_N2,
        )
    )
    for j, points in enumerate((8, 12, 16)):
        dim = 3 + (j + 2 * r) % 6
        kmax = (64, 128, 256, 512)[(j + r) % 4]
        support = _jittered_grid(rng, points, -0.95, 0.8)
        reqs.append(
            _request(
                ["optimize", "--mode", "sphere", "-n", dim, "--kmax", kmax, "--support"]
                + [_num(t) for t in support],
                "optimize-sphere",
                {"dim": dim, "support": support, "kmax": kmax},
            )
        )
    return reqs


def _sphere_warmup(root: Path) -> list[dict]:
    mu = {"dim": 4, "atoms": [[-0.5, 0.5], [0.3, 0.5]]}
    path = _write_json(root / "warm.json", mu)
    support = [-0.9, -0.6, -0.3, 0.0, 0.2, 0.4, 0.6, 0.8]
    return [
        _request(["sphere", "-n", 3, "-t", "-0.5"], "sphere-t", {"dim": 3, "t": -0.5}),
        _request(["sphere", path], "sphere-file", {"measure": mu}),
        _request(
            ["optimize", "--mode", "sphere", "-n", 4, "--support"] + [_num(t) for t in support],
            "optimize-sphere",
            {"dim": 4, "support": support, "kmax": 64},
        ),
    ]


# --------------------------------------------------------------------- finite
# (vertices, average degree, file format).  Dense slots (degree n/5) stress
# the eigen-solves, sparse ones (degree 6) parsing and matrix assembly; the
# sizes keep every request within ~5x of the others.
FINITE_SLOTS = (
    (500, 100, "dimacs"),
    (600, 6, "plain"),
    (700, 40, "dimacs"),
    (800, 160, "plain"),
    (1000, 6, "dimacs"),
)


def _random_edges(rng, n: int, count: int) -> np.ndarray:
    """count distinct undirected edges on n vertices, in random order and orientation."""
    iu, ju = np.triu_indices(n, 1)
    pick = rng.choice(iu.size, size=count, replace=False)
    edges = np.stack([iu[pick], ju[pick]], axis=1)
    flip = rng.random(count) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return edges


def _write_graph(path: Path, n: int, edges: np.ndarray, fmt: str) -> None:
    if fmt == "dimacs":
        lines = [f"c seeded benchmark graph", f"p edge {n} {len(edges)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in edges.tolist()]
    else:
        lines = ["# seeded benchmark graph"] + [f"{u} {v}" for u, v in edges.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _graph_request(root: Path, name: str, n: int, edges: np.ndarray, fmt: str) -> dict:
    if fmt == "plain":  # plain files infer n from the largest endpoint
        n = int(edges.max()) + 1
    path = root / f"{name}.txt"
    _write_graph(path, n, edges, fmt)
    np.save(root / f"{name}.edges.npy", edges)
    return _request(["finite", str(path)], "finite", {"n": n, "edges": str(root / f"{name}.edges.npy")})


def _finite_round(rng, r: int, root: Path) -> list[dict]:
    reqs = []
    for j, (n, degree, fmt) in enumerate(FINITE_SLOTS):
        edges = _random_edges(rng, n, n * degree // 2)
        if fmt == "plain" and not np.any(edges == n - 1):
            # pin the vertex count that the plain format infers
            edges = np.vstack([edges, [[0, n - 1]]])
        reqs.append(_graph_request(root, f"g{r}_{j}", n, edges, fmt))
    return reqs


def _finite_warmup(root: Path) -> list[dict]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = np.array(outer + spokes + inner)
    cycle = np.array([(i, (i + 1) % 60) for i in range(60)])
    return [
        _graph_request(root, "warm_petersen", 10, petersen, "plain"),
        _graph_request(root, "warm_cycle", 60, cycle, "dimacs"),
    ]


_BUILDERS = {
    "radial": (_radial_round, _radial_warmup),
    "sphere": (_sphere_round, _sphere_warmup),
    "finite": (_finite_round, _finite_warmup),
}


def build(workload: str, seed: int, seconds: float, root: Path) -> dict:
    """Draw the inputs of one run into root and return its manifest."""
    distinct, passes = plan_rounds(workload, seconds)
    make_round, make_warmup = _BUILDERS[workload]
    root.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    rounds = [make_round(rng, r, root) for r in range(distinct)]
    return {
        "workload": workload,
        "seed": int(seed),
        "passes": passes,
        "kernel": PLANS[workload].kernel,
        "calibrate_every": PLANS[workload].calibrate_every,
        "round_size": len(rounds[0]),
        "requests": [req for rnd in rounds for req in rnd],
        "warmup": make_warmup(root),
    }
