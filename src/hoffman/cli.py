"""Command-line front end: every bound computation as a machine-readable run.

Output is a single JSON object (or a CSV table for the torus scan) with a
"schema" version field, all floats at 10 significant digits, keys sorted, so
identical invocations are byte-identical.  Exit codes: 0 success, 2 vacuous
bound, 1 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass

from .errors import (
    BoundInapplicableError,
    ConvergenceError,
    UncertifiedRangeError,
    VacuousBoundError,
)
from .euclidean import (
    global_extrema,
    optimize_radial_measure,
    radial_measure_from_json,
    radial_measure_to_json,
    radial_range,
    steinhardt_measure,
    unit_distance_bound,
)
from .graphs import adjacency_matrix, read_graph, spectral_range
from .reports import alpha_ratio_ub, chi_frac_lb, chi_lb
from .sphere import (
    operator_range,
    optimize_sphere_measure,
    single_t_bounds,
    sphere_measure_from_json,
    sphere_measure_to_json,
)
from .specfun import bessel_first_zero
from .torus import convergence_csv, convergence_study

SCHEMA_VERSION = 1

_COMMANDS = (
    "finite",
    "unit-distance",
    "euclidean",
    "odd-distance",
    "sphere",
    "optimize",
    "torus",
)

_REPORT_SCHEMA = {
    "type": "object",
    "required": ["kind", "value", "m", "M"],
    "properties": {
        "kind": {"enum": ["chi_lb", "alpha_ratio_ub", "chi_frac_lb"]},
        "value": {"type": "number"},
        "m": {"type": "number"},
        "M": {"type": "number"},
        "R": {"type": "number"},
        "epsilon": {"type": "number"},
    },
}

# Declared shape of every emitted JSON object; tests revalidate output with it.
OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["schema", "command"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "command": {"enum": list(_COMMANDS)},
        "status": {"enum": ["ok", "vacuous"]},
        "bounds": {
            "type": "object",
            "additionalProperties": _REPORT_SCHEMA,
        },
        "provenance": {"type": "object"},
        "measure": {
            "type": "object",
            "required": ["dim", "atoms"],
            "properties": {
                "dim": {"type": "integer"},
                "atoms": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "rows": {"type": "array", "items": {"type": "array"}},
    },
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher has no exponent, so "-4.5e-05" would be
        # taken for an option rather than a value
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )

    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    dimension: int = 2
    tolerance: float = 1e-8
    kmax: int = 64
    grid_points: int = 512
    output_path: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.subcommand not in _COMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        low = 1 if self.subcommand == "torus" else 2
        if not (low <= int(self.dimension) <= 32):
            raise ValueError(
                f"dimension must lie in [{low}, 32], got {self.dimension}"
            )
        if not (1e-12 <= float(self.tolerance) <= 1e-3):
            raise ValueError(
                f"tolerance must lie in [1e-12, 1e-3], got {self.tolerance!r}"
            )
        if not (1 <= int(self.kmax) <= 10_000):
            raise ValueError(f"kmax must lie in [1, 10000], got {self.kmax}")
        if not (16 <= int(self.grid_points) <= 100_000):
            raise ValueError(
                f"grid points must lie in [16, 100000], got {self.grid_points}"
            )
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")


def _round_floats(obj):
    """10 significant digits on every float, recursively."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj!r} in output")
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output_path is not None:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, cfg: RunConfig) -> None:
    _emit(json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n", cfg)


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _bounds(rng, *constructors) -> dict:
    """The named bounds of one range; an inapplicable ratio bound is left out."""
    bounds = {}
    for construct in constructors:
        try:
            rep = construct(rng)
        except BoundInapplicableError:
            continue
        bounds[rep.kind] = rep.as_dict()
    return bounds


def _cmd_finite(cfg: RunConfig, args) -> dict:
    g = read_graph(args.graph)
    rng = spectral_range(adjacency_matrix(g))
    return {
        "graph": {"path": args.graph, "vertices": g.n, "edges": len(g.edges)},
        "bounds": _bounds(rng, chi_lb, alpha_ratio_ub, chi_frac_lb),
    }


def _cmd_unit_distance(cfg: RunConfig, args) -> dict:
    chi, alpha = unit_distance_bound(cfg.dimension)
    z = bessel_first_zero(cfg.dimension / 2.0)
    return {
        "dimension": cfg.dimension,
        "bounds": {"chi_lb": chi.as_dict(), "alpha_ratio_ub": alpha.as_dict()},
        "provenance": {"bessel_first_zero": z},
    }


def _cmd_euclidean(cfg: RunConfig, args) -> dict:
    mu = radial_measure_from_json(_load_json_file(args.measure))
    ext = global_extrema(mu, cfg.tolerance)
    return {
        "measure": radial_measure_to_json(mu),
        "bounds": _bounds(radial_range(mu, ext), chi_lb, alpha_ratio_ub),
        "provenance": {
            "cutoff": ext.cutoff,
            "grid_points": ext.grid_points,
            "inf_arg": ext.inf_arg,
        },
    }


def _cmd_odd_distance(cfg: RunConfig, args) -> dict:
    mu = steinhardt_measure(args.beta, args.terms)
    ext = global_extrema(mu, cfg.tolerance)
    return {
        "beta": float(args.beta),
        "terms": int(args.terms),
        "measure_mass": mu.total_mass(),
        "bounds": _bounds(radial_range(mu, ext), chi_lb),
        "provenance": {"cutoff": ext.cutoff, "grid_points": ext.grid_points},
    }


def _cmd_sphere(cfg: RunConfig, args) -> dict:
    if (args.t is None) == (args.measure is None):
        raise ValueError("sphere needs exactly one of -t or a measure file")
    if args.t is not None:
        alpha, chi = single_t_bounds(cfg.dimension, args.t, K=cfg.kmax, tol=cfg.tolerance)
        return {
            "dimension": cfg.dimension,
            "t": float(args.t),
            "bounds": {"alpha_ratio_ub": alpha.as_dict(), "chi_lb": chi.as_dict()},
            "provenance": {"K": cfg.kmax},
        }
    mu = sphere_measure_from_json(_load_json_file(args.measure))
    rng, seq = operator_range(mu, K=cfg.kmax, tol=cfg.tolerance)
    return {
        "measure": sphere_measure_to_json(mu),
        "bounds": _bounds(rng, chi_lb, alpha_ratio_ub),
        "provenance": {"K": seq.K, "tail_bound": seq.tail_bound},
    }


def _cmd_optimize(cfg: RunConfig, args) -> dict:
    if args.mode == "radial":
        mu, rep = optimize_radial_measure(
            cfg.dimension, args.support, tol=cfg.tolerance, grid=cfg.grid_points
        )
        measure = radial_measure_to_json(mu)
        prov = {"grid_points": cfg.grid_points}
    else:
        mu, rep = optimize_sphere_measure(
            cfg.dimension, args.support, K=cfg.kmax, tol=cfg.tolerance
        )
        measure = sphere_measure_to_json(mu)
        prov = {"K": cfg.kmax}
    return {
        "mode": args.mode,
        "dimension": cfg.dimension,
        "support": [float(s) for s in args.support],
        "measure": measure,
        "bounds": {"chi_lb": rep.as_dict()},
        "provenance": prov,
    }


def _cmd_torus(cfg: RunConfig, args) -> dict | str:
    rows = convergence_study(cfg.dimension, args.radii, args.moduli, tol=args.annulus)
    if cfg.format == "csv":
        return convergence_csv(rows)
    return {
        "dimension": cfg.dimension,
        "radii": [float(d) for d in args.radii],
        "moduli": [int(m) for m in args.moduli],
        "columns": [
            "m",
            "discrete_chi_lb",
            "discrete_alpha_ub",
            "continuous_chi_lb",
            "continuous_alpha_ub",
        ],
        "rows": [list(r) for r in rows],
    }


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and shared by every run()."""
    p = _Parser(prog="hoffman", description="Spectral bounds for distance graphs.")
    sub = p.add_subparsers(dest="subcommand")

    def common(sp, dim_default=2):
        sp.add_argument("-n", "--dimension", type=int, default=dim_default)
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--kmax", type=int, default=64)
        sp.add_argument("--grid", type=int, default=512)
        sp.add_argument("-o", "--output", default=None)
        sp.add_argument("--format", choices=("json", "csv"), default=None)

    sp = sub.add_parser("finite", description="Bounds for a finite graph file.")
    sp.add_argument("graph")
    common(sp)

    sp = sub.add_parser("unit-distance", description="Unit-distance graph of R^n.")
    common(sp)

    sp = sub.add_parser("euclidean", description="Bounds for a radial measure file.")
    sp.add_argument("measure")
    common(sp)

    sp = sub.add_parser("odd-distance", description="Odd-distance divergence measure.")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("-N", "--terms", type=int, required=True)
    common(sp)

    sp = sub.add_parser("sphere", description="Distance graphs on the sphere.")
    sp.add_argument("measure", nargs="?", default=None)
    sp.add_argument("-t", type=float, default=None)
    common(sp, dim_default=3)

    sp = sub.add_parser("optimize", description="Optimize a measure on a support.")
    sp.add_argument("--mode", choices=("radial", "sphere"), required=True)
    sp.add_argument("--support", type=float, nargs="+", required=True)
    common(sp)

    sp = sub.add_parser("torus", description="Circulant convergence study.")
    sp.add_argument("--radii", type=float, nargs="+", required=True)
    sp.add_argument("--moduli", type=int, nargs="+", required=True)
    sp.add_argument("--annulus", type=float, default=0.25)
    common(sp)

    return p


_DISPATCH = {
    "finite": _cmd_finite,
    "unit-distance": _cmd_unit_distance,
    "euclidean": _cmd_euclidean,
    "odd-distance": _cmd_odd_distance,
    "sphere": _cmd_sphere,
    "optimize": _cmd_optimize,
    "torus": _cmd_torus,
}


def run(argv) -> int:
    try:
        args = _parser().parse_args(list(argv))
        if args.subcommand is None:
            raise _UsageError("a subcommand is required")
        default_format = "csv" if args.subcommand == "torus" else "json"
        cfg = RunConfig(
            subcommand=args.subcommand,
            dimension=args.dimension,
            tolerance=args.tol,
            kmax=args.kmax,
            grid_points=args.grid,
            output_path=args.output,
            format=args.format or default_format,
        )
    except _UsageError as exc:
        print(f"hoffman: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"hoffman: {exc}", file=sys.stderr)
        return 1

    try:
        result = _DISPATCH[cfg.subcommand](cfg, args)
    except VacuousBoundError as exc:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": cfg.subcommand,
            "status": "vacuous",
            "detail": str(exc),
        }
        _emit_json(payload, cfg)
        return 2
    except UncertifiedRangeError as exc:
        m, big = exc.range
        print(
            f"hoffman: uncertified range [{m:.10g}, {big:.10g}] "
            f"(K={exc.k_used}, tail={exc.tail_bound:.3g}): {exc}",
            file=sys.stderr,
        )
        return 1
    except (ConvergenceError, ValueError, OSError) as exc:
        print(f"hoffman: {exc}", file=sys.stderr)
        return 1

    if isinstance(result, str):
        _emit(result, cfg)
        return 0
    payload = {"schema": SCHEMA_VERSION, "command": cfg.subcommand, "status": "ok"}
    payload.update(result)
    _emit_json(payload, cfg)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
