"""Command-line front end: every bound computation as a machine-readable run.

Output is a single JSON object (or a CSV table for the torus scan) with a
"schema" version field, all floats at 10 significant digits, keys sorted, so
identical invocations are byte-identical.  Exit codes: 0 success, 2 vacuous
bound, 1 input error.

Options are parsed as plain ints, floats and strings.  The limits of every
value (dimension, tolerance, truncation K, counts) are declared once, by the
library function that uses the value; run() turns its ValueError into one
line on stderr and exit 1.

Each handler imports its case's module when it runs (_case), so a request
loads only the case it asks for, and parsing, --help and a refused option
load no numpy.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from types import ModuleType

from .errors import ConvergenceError, VacuousBoundError, read_text, ten_digits
from .reports import KINDS, alpha_ratio_ub, bounds, chi_frac_lb, chi_lb

SCHEMA_VERSION = 1

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


def _json(obj, indent: str = "") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) of a plain JSON value, in one
    pass, with every float printed by ten_digits; a non-finite float is refused."""
    if isinstance(obj, float):
        rounded = float(ten_digits(obj))  # inf above 1.797693134e308 too
        if not math.isfinite(rounded):
            raise ValueError(f"non-finite value {obj!r} in output")
        return repr(rounded)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json(obj[k], inner)}" for k in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [_json(v, inner) for v in obj]
    elif obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    elif isinstance(obj, int):
        return int.__repr__(obj)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{indent}{brackets[1]}"


def _emit(text: str, path: str | None) -> None:
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json_file(path: str):
    try:  # read_text's ValueError is not a JSONDecodeError
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None


def _given(args, **options) -> dict:
    """{parameter: value} for each {parameter: option} the command line gave.

    An option left out is not passed on, so the library function's own
    default applies and is declared only there.
    """
    return {k: getattr(args, a) for k, a in options.items() if getattr(args, a) is not None}


def _report(rng, *constructors, **echo) -> dict:
    """A range command's payload: the echo fields, the bounds the constructors
    give for rng, and the evidence rng was read from."""
    reports = bounds(rng, *constructors)
    return {
        **echo,
        "bounds": {kind: rep.as_dict() for kind, rep in reports.items()},
        "provenance": rng.provenance,
    }


def _case(name: str) -> ModuleType:
    """hoffman.<name>, imported by the first request that needs it.

    Later requests find it in sys.modules: an import statement in the
    handler took about 8 us per request instead, 2-3 % of a short sphere
    request (Python 3.11, 2-core VM).  Handlers read its functions at each
    call.
    """
    module = f"{__package__}.{name}"
    return sys.modules.get(module) or importlib.import_module(module)


def _cmd_finite(args) -> dict:
    graphs = _case("graphs")
    g = graphs.read_graph(args.graph)
    graph = {"path": args.graph, "vertices": g.n, "edges": len(g.edges)}
    return _report(graphs.spectral_range(g), chi_lb, alpha_ratio_ub, chi_frac_lb, graph=graph)


def _cmd_unit_distance(args) -> dict:
    rng = _case("euclidean").unit_distance_range(args.dimension)
    return _report(rng, chi_lb, alpha_ratio_ub, dimension=args.dimension)


def _cmd_euclidean(args) -> dict:
    euclidean = _case("euclidean")
    mu = euclidean.radial_measure_from_json(_load_json_file(args.measure))
    rng = euclidean.radial_range(mu, **_given(args, tol="tol"))
    return _report(rng, chi_lb, alpha_ratio_ub, measure=euclidean.radial_measure_to_json(mu))


def _cmd_odd_distance(args) -> dict:
    euclidean = _case("euclidean")
    mu = euclidean.steinhardt_measure(args.beta, args.terms)
    rng = euclidean.radial_range(mu, **_given(args, tol="tol"))
    echo = {"beta": float(args.beta), "terms": int(args.terms), "measure_mass": mu.total_mass()}
    return _report(rng, chi_lb, **echo)


def _cmd_sphere(args) -> dict:
    sphere = _case("sphere")
    if (args.t is None) == (args.measure is None):
        raise ValueError("sphere needs exactly one of -t or a measure file")
    if args.t is None:
        if args.dimension is not None:
            raise ValueError("-n does not apply to a measure file, which carries its dimension")
        mu = sphere.sphere_measure_from_json(_load_json_file(args.measure))
        echo = {"measure": sphere.sphere_measure_to_json(mu)}
    else:
        dim = 3 if args.dimension is None else args.dimension
        mu = sphere.SphereMeasure(dim, ((args.t, 1.0),))
        echo = {"dimension": dim, "t": args.t}
    rng = sphere.operator_range(mu, **_given(args, K="kmax", tol="tol"))
    return _report(rng, chi_lb, alpha_ratio_ub, **echo)


def _cmd_optimize(args) -> dict:
    if args.mode == "radial":
        if args.kmax is not None:
            raise ValueError("--kmax applies only to --mode sphere")
        euclidean = _case("euclidean")
        optimize, to_json = euclidean.optimize_radial_measure, euclidean.radial_measure_to_json
    else:
        sphere = _case("sphere")
        optimize, to_json = sphere.optimize_sphere_measure, sphere.sphere_measure_to_json
    mu, rng = optimize(args.dimension, args.support, **_given(args, K="kmax", tol="tol"))
    support = [float(s) for s in args.support]
    return _report(
        rng, chi_lb, mode=args.mode, dimension=args.dimension, support=support, measure=to_json(mu)
    )


def _cmd_torus(args) -> dict | str:
    torus = _case("torus")
    rows = torus.convergence_study(
        args.dimension, args.radii, args.moduli, **_given(args, tol="annulus")
    )
    if args.format == "csv":
        return torus.convergence_csv(rows)
    return {
        "dimension": args.dimension,
        "radii": [float(d) for d in args.radii],
        "moduli": [int(m) for m in args.moduli],
        "columns": list(torus.COLUMNS),
        "rows": [list(r) for r in rows],
    }


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and shared by every run().

    Each subcommand declares only the options its handler reads, so any
    other option is refused as unrecognized.
    """
    p = _Parser(prog="hoffman", description="Spectral bounds for distance graphs.")
    sub = p.add_subparsers(dest="subcommand")
    p.commands = {}  # name -> subparser, for run() to parse a subcommand's argv alone

    def command(name, description):
        sp = p.commands[name] = sub.add_parser(name, description=description)
        sp.add_argument("-o", "--output", default=None)
        return sp

    sp = command("finite", "Bounds for a finite graph file.")
    sp.add_argument("graph")

    sp = command("unit-distance", "Unit-distance graph of R^n.")
    sp.add_argument("-n", "--dimension", type=int, default=2)

    sp = command("euclidean", "Bounds for a radial measure file.")
    sp.add_argument("measure")
    sp.add_argument("--tol", type=float, default=None)

    sp = command("odd-distance", "Odd-distance divergence measure.")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("-N", "--terms", type=int, required=True)
    sp.add_argument("--tol", type=float, default=None)

    # -n defaults to 3 for -t; a measure file carries its own dimension
    sp = command("sphere", "Distance graphs on the sphere.")
    sp.add_argument("measure", nargs="?", default=None)
    sp.add_argument("-t", type=float, default=None)
    sp.add_argument("-n", "--dimension", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--kmax", type=int, default=None)

    # --kmax is read by --mode sphere only
    sp = command("optimize", "Optimize a measure on a support.")
    sp.add_argument("--mode", choices=("radial", "sphere"), required=True)
    sp.add_argument("--support", type=float, nargs="+", required=True)
    sp.add_argument("-n", "--dimension", type=int, default=2)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--kmax", type=int, default=None)

    sp = command("torus", "Circulant convergence study.")
    sp.add_argument("--radii", type=float, nargs="+", required=True)
    sp.add_argument("--moduli", type=int, nargs="+", required=True)
    sp.add_argument("--annulus", type=float, default=None)
    sp.add_argument("-n", "--dimension", type=int, default=2)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")

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


_REPORT_SCHEMA = {
    "type": "object",
    "required": ["kind", "value", "m", "M"],
    "properties": {
        "kind": {"enum": list(KINDS)},
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
        "command": {"enum": list(_DISPATCH)},
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


def run(argv) -> int:
    try:
        argv = list(argv)
        # a subcommand's own parser reads argv[1:], as the top-level one would
        sub = _parser().commands.get(argv[0]) if argv else None
        if sub is None:  # empty argv, an unknown name or a top-level option
            args = _parser().parse_args(argv)
        else:
            args = sub.parse_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        if args.subcommand is None:
            raise _UsageError("a subcommand is required")
        try:
            result, code = _DISPATCH[args.subcommand](args), 0
        except VacuousBoundError as exc:
            result, code = {"status": "vacuous", "detail": str(exc)}, 2
        if not isinstance(result, str):  # a vacuous result's status replaces "ok"
            head = {"schema": SCHEMA_VERSION, "command": args.subcommand, "status": "ok"}
            result = _json({**head, **result}) + "\n"
        # written inside the try, so a failed -o write ends in one line too
        _emit(result, args.output)
        return code
    except (_UsageError, ConvergenceError, ValueError, OSError) as exc:
        print(f"hoffman: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
