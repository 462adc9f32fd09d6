"""Output checker: verifies every hoffman output without importing hoffman.

Values are recomputed with scipy (Bessel profiles with ``jv``, Funk-Hecke
eigenvalues with ``eval_jacobi``, adjacency spectra with ``eigvalsh``) from
the inputs the benchmark drew itself, or tested against properties the
method must have.  Outputs carry 10 significant digits, so comparisons
allow a few parts in 1e9.

Usage: python3 bench/check.py MANIFEST RESULTS
prints one JSON object: {"correct", "failed", "problems", "self_test"}.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

import numpy as np
from scipy.linalg import eigvalsh
from scipy.optimize import minimize_scalar
from scipy.special import eval_jacobi, gamma, jv

REL = 1e-8  # relative agreement asked of values that are recomputed exactly


class Mismatch(Exception):
    pass


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# ---------------------------------------------------------------- radial (R^n)
def radial_profile(dim: int, radii, weights, r) -> np.ndarray:
    """sum_i w_i Gamma(n/2) (2/(d_i r))^nu J_nu(d_i r), nu = n/2 - 1; mass at r = 0."""
    x = np.outer(np.atleast_1d(np.asarray(r, dtype=float)), np.asarray(radii, dtype=float))
    nu = dim / 2.0 - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        om = gamma(dim / 2.0) * (2.0 / x) ** nu * jv(nu, x)
    om[x == 0.0] = 1.0
    return om @ np.asarray(weights, dtype=float)


def _envelope_cutoff(dim: int, radii, weights, level: float) -> float:
    """Radius past which sum |w| Gamma(n/2) 2^nu sqrt(2/pi) (d r)^-(n-1)/2 < level."""
    c = math.gamma(dim / 2.0) * 2.0 ** ((dim - 2) / 2.0) * math.sqrt(2.0 / math.pi)
    total = c * float(np.abs(weights).sum())
    return (total / level) ** (2.0 / (dim - 1)) / min(radii)


def _refined_extreme(profile, grid, vals, margin: float, sign: float) -> float:
    """Minimum of sign * profile: each grid-local minimum within margin of the
    best sample is polished with a bounded scalar search."""
    v = sign * vals
    best = float(v.min())
    local = np.ones(v.size, dtype=bool)
    local[1:] &= v[1:] <= v[:-1]
    local[:-1] &= v[:-1] <= v[1:]
    for i in np.flatnonzero(local & (v <= best + margin)):
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        res = minimize_scalar(
            lambda r: sign * float(profile(r)[0]), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        best = min(best, float(res.fun))
    return sign * best


def _check_profile(dim, radii, weights, bound, cutoff, inf_arg=None) -> None:
    """m and M against the extremes of the profile on [0, cutoff].

    The grid is 4x finer than hoffman's scan.  Between grid points the profile
    can pass its samples by at most sum|w| d^2 h^2 / 8 (|Omega_n''| <= 1/n),
    so every basin within that margin is polished before comparing.
    """
    radii = np.asarray(radii, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m, big = bound["m"], bound["M"]
    total = float(np.abs(weights).sum())
    tol = 1e-8 * max(1.0, total)
    step = math.pi / (80.0 * radii.max())
    grid = np.linspace(0.0, cutoff, int(math.ceil(cutoff / step)) + 1)

    def profile(r):
        return radial_profile(dim, radii, weights, r)

    vals = profile(grid)
    margin = total * radii.max() ** 2 * (grid[1] - grid[0]) ** 2 / 8.0
    lo = _refined_extreme(profile, grid, vals, margin, 1.0)
    hi = _refined_extreme(profile, grid, vals, margin, -1.0)
    _require(abs(m - lo) <= tol, f"m={m:.10g}, the profile minimum on [0, cutoff] is {lo:.10g}")
    _require(abs(big - hi) <= tol, f"M={big:.10g}, the profile maximum on [0, cutoff] is {hi:.10g}")
    if inf_arg is not None:
        at = float(profile(inf_arg)[0])
        _require(abs(at - m) <= tol, f"profile at inf_arg is {at:.10g}, reported m={m:.10g}")
    _require(m < 0.0, "m must be negative for a non-vacuous bound")
    _require(_close(bound["value"], (big - m) / (-m)), "chi_lb differs from (M - m)/(-m)")


def _check_density(bounds, mass) -> None:
    chi, alpha = bounds["chi_lb"], bounds["alpha_ratio_ub"]
    m = alpha["m"]
    _require(_close(chi["M"], mass), f"M={chi['M']:.10g} differs from the total mass {mass:.10g}")
    _require(_close(alpha["R"], mass) and alpha["epsilon"] == 0.0, "R must be the mass and eps 0")
    _require(_close(alpha["value"], (-m) / (mass - m)), "alpha_ratio_ub differs from (-m)/(R - m)")
    _require(_close(chi["value"] * alpha["value"], 1.0), "chi_lb * alpha_ratio_ub differs from 1")


def _check_simplex(atoms, support) -> np.ndarray:
    pos = np.array([a[0] for a in atoms])
    w = np.array([a[1] for a in atoms])
    _require(np.allclose(pos, sorted(support), rtol=0, atol=1e-9), "optimized support differs")
    _require(bool(np.all(w >= -1e-10)), "optimized weights must be nonnegative")
    _require(abs(w.sum() - 1.0) <= 1e-8, f"optimized weights sum to {w.sum():.12g}, not 1")
    return w


def check_euclidean(facts, out) -> None:
    mu = facts["measure"]
    radii = [a[0] for a in mu["atoms"]]
    weights = [a[1] for a in mu["atoms"]]
    bounds, prov = out["bounds"], out["provenance"]
    _require(out["measure"] == mu, "echoed measure differs from the input")
    _check_profile(mu["dim"], radii, weights, bounds["chi_lb"], prov["cutoff"], prov["inf_arg"])
    if min(weights) >= 0.0:
        _check_density(bounds, float(sum(weights)))
    else:
        _require("alpha_ratio_ub" not in bounds, "density bound given for a signed measure")


def check_odd_distance(facts, out) -> None:
    beta, terms = facts["beta"], facts["terms"]
    radii = [2.0 * k + 1.0 for k in range(terms + 1)]
    weights = [(beta - 1.0) / beta * beta ** (-k) for k in range(terms + 1)]
    mass = sum(weights)
    chi = out["bounds"]["chi_lb"]
    _require(_close(out["measure_mass"], mass), "measure_mass differs from sum of weights")
    _require(_close(chi["M"], mass), "M differs from the total mass of a nonnegative measure")
    _check_profile(2, radii, weights, chi, out["provenance"]["cutoff"])


def check_optimize_radial(facts, out) -> None:
    dim, support = facts["dim"], facts["support"]
    atoms = out["measure"]["atoms"]
    w = _check_simplex(atoms, support)
    chi = out["bounds"]["chi_lb"]
    _require(_close(chi["M"], 1.0), "M of a probability measure must be 1")
    cutoff = _envelope_cutoff(dim, support, w, 0.5 * abs(chi["m"]))
    _check_profile(dim, sorted(support), w, chi, cutoff)


# ------------------------------------------------------------ sphere S^(n-1)
def sphere_eigenvalues(dim: int, ts, ws, kmax: int) -> np.ndarray:
    """lambda_k = sum_i w_i P_k(t_i) / P_k(1), k = 0..kmax, P_k the (a, a) Jacobi, a = (n-3)/2."""
    a = (dim - 3) / 2.0
    k = np.arange(kmax + 1)  # integer degrees: scipy's float-degree path overflows
    ts = np.asarray(ts, dtype=float)
    table = eval_jacobi(k[:, None], a, a, ts[None, :]) / eval_jacobi(k, a, a, 1.0)[:, None]
    return table @ np.asarray(ws, dtype=float)


def truncation_range(lam: np.ndarray, K: int) -> tuple[float, float, float]:
    """hoffman's tail rule on lambda_0..lambda_2K: the range (m, M) of {0,
    lambda_0..lambda_K} and the probe max |lambda_k| on (K, 2K]."""
    head = lam[: K + 1]
    return min(0.0, head.min()), max(0.0, head.max()), float(np.abs(lam[K + 1 : 2 * K + 1]).max())


def certifies(m: float, big: float, tail: float) -> bool:
    """The rule's verdict, with hoffman's default tolerance 1e-8."""
    return tail <= max(-m, 1e-8) and tail <= max(big, 1e-8)


def _check_sphere_range(dim, ts, ws, m, big, kmax) -> None:
    """m and M must be min(0, min lambda) and max(0, max lambda), attained by some k."""
    keep = np.asarray(ws) != 0.0
    ts, ws = np.asarray(ts)[keep], np.asarray(ws)[keep]
    tol = 1e-8 * max(1.0, float(np.abs(ws).sum()))
    while True:
        lam = sphere_eigenvalues(dim, ts, ws, kmax)
        lo, hi = min(0.0, lam.min()), max(0.0, lam.max())
        if m >= lo - tol or kmax >= 8192:
            break
        kmax = min(4 * kmax, 8192)  # hoffman may have certified at a deeper truncation
    _require(m <= lo + tol, f"m={m:.10g} above the eigenvalue minimum {lo:.10g} (k <= {kmax})")
    _require(m >= lo - tol, f"m={m:.10g} below every eigenvalue up to k = {kmax}")
    _require(abs(big - hi) <= tol, f"M={big:.10g} differs from the eigenvalue maximum {hi:.10g}")


def check_sphere_file(facts, out) -> None:
    mu = facts["measure"]
    dim = mu["dim"]
    ts = np.array([a[0] for a in mu["atoms"]])
    ws = np.array([a[1] for a in mu["atoms"]])
    bounds, prov = out["bounds"], out["provenance"]
    chi = bounds["chi_lb"]
    m, big = chi["m"], chi["M"]
    _require(out["measure"] == mu, "echoed measure differs from the input")
    K = int(prov["K"])
    _check_sphere_range(dim, ts, ws, m, big, 4 * K)
    # the provenance must name a truncation that certifies the reported range
    m_k, big_k, tail = truncation_range(sphere_eigenvalues(dim, ts, ws, 2 * K), K)
    tol = 1e-8 * max(1.0, float(np.abs(ws).sum()))
    _require(abs(prov["tail_bound"] - tail) <= tol, f"tail_bound differs from max|lambda_k| on ({K}, {2 * K}]")
    _require(
        abs(m - m_k) <= tol and abs(big - big_k) <= tol,
        f"reported range is not the range of lambda_0..lambda_{K} (K in provenance)",
    )
    _require(certifies(m_k, big_k, tail), f"tail_bound {tail:.4g} does not certify K={K}")
    _require(m < 0.0, "m must be negative for a non-vacuous bound")
    _require(_close(chi["value"], (big - m) / (-m)), "chi_lb differs from (M - m)/(-m)")
    if ws.min() >= 0.0:
        _check_density(bounds, float(ws.sum()))
    else:
        _require("alpha_ratio_ub" not in bounds, "density bound given for a signed measure")


def _circle_infimum(facts) -> float:
    """Exact inf_k cos(k theta) on S^1 for theta = arccos t.

    theta/pi = p/q in lowest terms repeats with period 2q.  Any other rational
    t outside {0, +-1/2, +-1} has irrational theta/pi (Niven), and then the
    orbit is dense: the infimum is -1.
    """
    if facts.get("irrational"):
        return -1.0
    k = np.arange(2 * facts["q"])
    return float(np.cos(math.pi * k * facts["p"] / facts["q"]).min())


def check_sphere_t(facts, out) -> None:
    dim, t = facts["dim"], facts["t"]
    bounds = out["bounds"]
    chi, alpha = bounds["chi_lb"], bounds["alpha_ratio_ub"]
    m, big = chi["m"], chi["M"]
    _require(out["dimension"] == dim and _close(out["t"], t), "echoed dimension or t differs")
    if dim == 2:
        exact = _circle_infimum(facts)
        chi_exact = (1.0 - exact) / (-exact)
        _require(
            chi["value"] <= chi_exact * (1.0 + 1e-9),
            f"chi_lb={chi['value']:.10g} exceeds the exact bound {chi_exact:.10g}",
        )
        _require(abs(m - exact) <= 1e-8, f"m={m:.10g} differs from the exact infimum {exact:.10g}")
        _require(_close(big, 1.0), "M must be 1")
    else:
        _check_sphere_range(dim, [t], [1.0], m, big, 1024)
    _require(_close(chi["value"], (1.0 - m) / (-m)), "chi_lb differs from (1 - m)/(-m)")
    _require(_close(alpha["value"], (-m) / (1.0 - m)), "alpha_ratio_ub differs from (-m)/(1 - m)")
    _require(_close(chi["value"] * alpha["value"], 1.0), "alpha * chi differs from 1")


def check_optimize_sphere(facts, out) -> None:
    dim, support, kmax = facts["dim"], facts["support"], facts["kmax"]
    w = _check_simplex(out["measure"]["atoms"], support)
    chi = out["bounds"]["chi_lb"]
    m, big = chi["m"], chi["M"]
    _require(_close(big, 1.0), "M of a probability measure must be 1")
    _check_sphere_range(dim, sorted(support), w, m, big, 2 * kmax)
    _require(_close(chi["value"], (big - m) / (-m)), "chi_lb differs from (M - m)/(-m)")


# --------------------------------------------------------------- finite graphs
def check_finite(facts, out) -> None:
    n = facts["n"]
    edges = np.load(facts["edges"])
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    vals = eigvalsh(a)
    m, big = float(vals[0]), float(vals[-1])
    deg = a.sum(axis=1)
    R = 2.0 * len(edges) / n
    eps = math.sqrt(float(np.mean((deg - R) ** 2)))
    _require(out["graph"]["vertices"] == n, "vertex count differs")
    _require(out["graph"]["edges"] == len(edges), "edge count differs")
    b = out["bounds"]
    tol = 1e-9 * max(1.0, big)
    for kind in ("chi_lb", "alpha_ratio_ub", "chi_frac_lb"):
        _require(abs(b[kind]["m"] - m) <= tol, f"{kind}: m={b[kind]['m']:.10g}, eigvalsh gives {m:.10g}")
        _require(abs(b[kind]["M"] - big) <= tol, f"{kind}: M={b[kind]['M']:.10g}, eigvalsh gives {big:.10g}")
    ra, rf = b["alpha_ratio_ub"], b["chi_frac_lb"]
    _require(_close(ra["R"], R) and _close(rf["R"], R), "R differs from the average degree")
    _require(abs(ra["epsilon"] - eps) <= 1e-9 * max(1.0, R), "epsilon differs from the degree spread")
    _require(_close(b["chi_lb"]["value"], (big - m) / (-m)), "chi_lb differs from (M - m)/(-m)")
    _require(_close(ra["value"], (-m + 2.0 * eps) / (R - m - eps)), "alpha_ratio_ub differs from its formula")
    _require(_close(rf["value"], (R - m) / (-m)), "chi_frac_lb differs from (R - m)/(-m)")


CHECKS = {
    "euclidean": check_euclidean,
    "odd-distance": check_odd_distance,
    "optimize-radial": check_optimize_radial,
    "sphere-file": check_sphere_file,
    "sphere-t": check_sphere_t,
    "optimize-sphere": check_optimize_sphere,
    "finite": check_finite,
}


def check_output(req: dict, rc: int, stdout: str, stderr: str) -> str | None:
    """None when the output is right, else the first reason it is not."""
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()[:200]}"
    try:
        out = json.loads(stdout)
        _require(out.get("schema") == 1 and out.get("status") == "ok", "missing schema or ok status")
        _require(out.get("command") == req["argv"][0], "command field differs")
        CHECKS[req["kind"]](req["facts"], out)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    return None


def _perturbed(req: dict, stdout: str):
    """Copies of a correct output with one bound moved in its unsafe direction."""
    out = json.loads(stdout)
    for kind in out["bounds"]:
        moved = json.loads(json.dumps(out))
        mb = moved["bounds"][kind]
        if kind == "alpha_ratio_ub":
            mb["value"] *= 1.0 - 1e-6  # an upper bound reported too small
        else:
            mb["value"] *= 1.0 + 1e-6  # a lower bound reported too large
        yield f"{kind}.value", json.dumps(moved)
    moved = json.loads(json.dumps(out))
    for kind, b in moved["bounds"].items():  # m raised towards 0, values kept consistent
        b["m"] *= 1.0 - 1e-6
        b["value"] = _formula(kind, b)
    yield "m", json.dumps(moved)


def _formula(kind: str, b: dict) -> float:
    m, big = b["m"], b["M"]
    if kind == "chi_lb":
        return (big - m) / (-m)
    if kind == "chi_frac_lb":
        return (b["R"] - m) / (-m)
    return (-m + 2.0 * b["epsilon"]) / (b["R"] - m - b["epsilon"])


def self_test(samples) -> list[str]:
    """Every perturbed copy of a correct output must be rejected."""
    escaped = []
    for req, stdout in samples:
        for what, text in _perturbed(req, stdout):
            if check_output(req, 0, text, "") is None:
                escaped.append(f"{req['kind']}: perturbed {what} accepted")
    return escaped


def check_run(manifest: dict, results: dict) -> dict:
    """Check every distinct output of a run; count failures per executed request."""
    problems: Counter = Counter()
    failed, correct = 0, True
    samples = {}
    for req, (rc, stdout, stderr) in zip(manifest["requests"], results["outputs"]):
        reason = check_output(req, rc, stdout, stderr)
        if reason is None:
            samples.setdefault(req["kind"], (req, stdout))
            if req["fault"]:
                problems[f"known fault {req['fault']} did not show"] += 1
            continue
        failed += results["runs_per_request"]
        if not req["fault"]:
            correct = False
        problems[f"{req['fault'] or 'UNEXPECTED'}: {req['kind']}: {reason}"] += 1
    for req, (rc, stdout, stderr) in zip(manifest["warmup"], results["warmup_outputs"]):
        reason = check_output(req, rc, stdout, stderr)
        if reason is not None:
            correct = False
            problems[f"warm-up {req['kind']}: {reason}"] += 1
    if results["mismatches"]:
        correct = False
        problems["outputs that differ from the first pass"] += results["mismatches"]
    escaped = self_test(samples.values())
    if escaped:
        correct = False
        problems.update(escaped)
    return {
        "correct": correct,
        "failed": failed,
        "problems": [f"{text} (x{count})" for text, count in problems.items()],
        "self_test": not escaped,
    }


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        results = json.load(fh)
    print(json.dumps(check_run(manifest, results)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
