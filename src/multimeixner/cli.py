"""Command-line front end.

Verbs: eval, verify, table, gen-matrix.  Exit codes are a stable
contract: 0 pass, 1 identity failure, 2 invalid input or matrix
validation failure, 3 precondition violation or non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import bivariate, harness, multivariate
from .errors import (
    MatrixValidationError,
    ModeError,
    NonConvergence,
    PreconditionError,
)
from .lorentz import (
    SubgroupParam,
    matrix_from_json,
    matrix_to_json_obj,
    product_of,
)
from .numerics import ScalarMode, float_str, rational_str
from .reports import LatticeBox

EXIT_PASS = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q': {text!r}") from exc


def _int_list(text: str):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _parse_subgroup(text: str):
    """Factor list like 'rotation:1,2:1/2 boost:2,3:2 rotation:1,2:2/3'."""
    params = []
    for chunk in text.replace(";", " ").split():
        bits = chunk.split(":")
        if len(bits) != 3:
            raise argparse.ArgumentTypeError(
                f"factor must be kind:i,j:value, got {chunk!r}"
            )
        kind, plane_text, value_text = bits
        kind = {"b": "boost", "r": "rotation", "rot": "rotation"}.get(kind, kind)
        plane = tuple(_int_list(plane_text))
        if len(plane) != 2:
            raise argparse.ArgumentTypeError(f"plane must be two axes, got {plane_text!r}")
        try:
            params.append(SubgroupParam(kind, plane, _fraction(value_text)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    if not params:
        raise argparse.ArgumentTypeError("empty subgroup factor list")
    return params


def _add_matrix_source(parser: argparse.ArgumentParser):
    parser.add_argument("--matrix", metavar="FILE", help="matrix JSON file")
    parser.add_argument("--seed", type=int, help="seeded random generic product")
    parser.add_argument("--factors", type=int, default=4, help="factors for --seed products")
    parser.add_argument(
        "--subgroup",
        type=_parse_subgroup,
        metavar="SPEC",
        help="explicit factor list, e.g. 'rotation:1,2:1/2 boost:2,3:2'",
    )


def _resolve_matrix(args, d: int):
    sources = [args.matrix is not None, args.seed is not None, args.subgroup is not None]
    if sum(sources) > 1:
        raise MatrixValidationError("give at most one of --matrix, --seed, --subgroup")
    if args.matrix is not None:
        with open(args.matrix, "r", encoding="utf-8") as handle:
            return matrix_from_json(handle.read())
    if args.subgroup is not None:
        return product_of(args.subgroup, d)
    if args.seed is not None:
        return harness.random_matrix(args.seed, d, args.factors)
    if d == 2:
        return harness.canonical_lambda()
    return harness.random_matrix(0, d, max(args.factors, 5))


def _box_from_arg(values):
    if values is None:
        return None
    if len(values) != 4:
        raise MatrixValidationError("--box needs four integers m,n,i,k")
    m, n, i, k = values
    return LatticeBox(max_i=i, max_k=k, max_m=m, max_n=n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multimeixner",
        description="Evaluate and cross-verify multivariate Meixner polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one polynomial value")
    p_eval.add_argument("--d", type=int, default=2)
    p_eval.add_argument("--beta", type=_fraction, default=Fraction(2))
    p_eval.add_argument(
        "--route",
        choices=["raising", "gf", "hyp", "tratnik", "dompe3"],
        default="gf",
    )
    p_eval.add_argument("--degrees", type=_int_list, required=True, metavar="m,n")
    p_eval.add_argument("--point", type=_int_list, required=True, metavar="i,k")
    p_eval.add_argument("--mode", choices=["exact", "float"], default="exact")
    p_eval.add_argument(
        "--value",
        choices=["monic", "orthonormal", "matrix-element"],
        default="monic",
        help="float mode can also print the orthonormal value or the matrix element",
    )
    _add_matrix_source(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", choices=sorted(harness.SUITES), required=True)
    p_verify.add_argument("--d", type=int, default=2)
    p_verify.add_argument("--beta", type=_fraction, default=Fraction(2))
    p_verify.add_argument("--box", type=_int_list, metavar="m,n,i,k")
    p_verify.add_argument("--mode", choices=["exact", "float"])
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--degree-max", type=int, dest="degree_max")
    p_verify.add_argument("--coord-max", type=int, dest="coord_max")
    p_verify.add_argument("--tuples", type=int, default=10)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    _add_matrix_source(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit polynomial values over a box")
    p_table.add_argument("--d", type=int, default=2)
    p_table.add_argument("--beta", type=_fraction, default=Fraction(2))
    p_table.add_argument("--box", type=_int_list, required=True, metavar="m,n,i,k")
    p_table.add_argument("--route", choices=["raising", "gf", "hyp"], default="gf")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--out", metavar="FILE")
    _add_matrix_source(p_table)
    p_table.set_defaults(func=cmd_table)

    p_gen = sub.add_parser("gen-matrix", help="emit a seeded generic matrix as JSON")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--d", type=int, default=2)
    p_gen.add_argument("--factors", type=int, default=4)
    p_gen.add_argument("--out", metavar="FILE")
    p_gen.set_defaults(func=cmd_gen_matrix)

    return parser


def _eval_bivariate(args, lam):
    m, n = args.degrees
    i, k = args.point
    routes = {
        "raising": bivariate.monic_eval_raising,
        "gf": bivariate.monic_eval_gf,
        "hyp": bivariate.monic_eval_hyp,
    }
    if args.mode == "exact" and args.value == "monic":
        sys2 = bivariate.MeixnerSystem(args.beta, lam, ScalarMode.EXACT)
        return rational_str(routes[args.route](sys2, m, n, i, k))
    sys2 = bivariate.MeixnerSystem(args.beta, lam, ScalarMode.FLOAT)
    if args.value == "matrix-element":
        return float_str(bivariate.matrix_element(sys2, i, k, m, n))
    if args.value == "orthonormal":
        return float_str(bivariate.orthonormal_eval(sys2, m, n, i, k))
    exact = bivariate.MeixnerSystem(args.beta, lam, ScalarMode.EXACT)
    return float_str(float(routes[args.route](exact, m, n, i, k)))


def cmd_eval(args) -> int:
    if args.route == "tratnik":
        if args.subgroup is None:
            raise PreconditionError("route tratnik needs --subgroup 'boost:2,3:T boost:1,3:T'")
        if [(p.kind, p.plane) for p in args.subgroup] != [("boost", (2, 3)), ("boost", (1, 3))]:
            raise PreconditionError("route tratnik needs factors boost:2,3:T boost:1,3:T")
        psi, xi = args.subgroup
        m, n = args.degrees
        i, k = args.point
        value = bivariate.factorized_eval(args.beta, xi.value, psi.value, m, n, i, k)
        print(rational_str(value))
        return EXIT_PASS
    if args.route == "dompe3":
        if args.subgroup is None or [p.kind for p in args.subgroup] != ["rotation", "boost", "rotation"]:
            raise PreconditionError("route dompe3 needs --subgroup 'rotation:.. boost:2,3:.. rotation:..'")
        chi, psi, theta = args.subgroup
        m, n = args.degrees
        i, k = args.point
        value = bivariate.general_sum_eval(
            args.beta, chi.value, psi.value, theta.value, m, n, i, k
        )
        print(rational_str(value))
        return EXIT_PASS

    d = args.d
    if len(args.degrees) != len(args.point):
        raise MatrixValidationError("--degrees and --point must have the same arity")
    if len(args.degrees) != d:
        d = len(args.degrees)
    lam = _resolve_matrix(args, d)
    if d == 2:
        print(_eval_bivariate(args, lam))
        return EXIT_PASS
    if args.route == "hyp" or args.value != "monic":
        raise PreconditionError("d != 2 supports routes raising|gf and monic values only")
    sysd = multivariate.MeixnerSystemD(args.beta, lam, ScalarMode.EXACT)
    route = (
        multivariate.monic_eval_raising_d
        if args.route == "raising"
        else multivariate.monic_eval_gf_d
    )
    value = route(sysd, args.degrees, args.point)
    if args.mode == "float":
        print(float_str(float(value)))
    else:
        print(rational_str(value))
    return EXIT_PASS


def cmd_verify(args) -> int:
    float_only = args.suite in ("orthogonality", "addition", "subgroup-unitarity")
    mode = args.mode
    if mode is None:
        mode = "float" if float_only else "exact"
    elif mode == "exact" and float_only:
        raise ValueError(f"suite {args.suite} runs in float mode only; drop --mode exact")
    tol = args.tol
    if mode == "float" and tol is None:
        tol = 1e-8
    matrix = None
    if args.matrix is not None or (args.seed is not None and args.suite != "addition"):
        matrix = _resolve_matrix(args, args.d if args.suite != "multivariate" else 3)
    config = harness.SuiteConfig(
        suite=args.suite,
        d=args.d,
        beta=args.beta,
        matrix=matrix,
        subgroup=args.subgroup,
        seed=args.seed,
        factors=args.factors,
        box=_box_from_arg(args.box),
        mode=ScalarMode(mode),
        tol=tol,
        degree_max=args.degree_max,
        coord_max=args.coord_max,
        tuples=args.tuples,
    )
    reports = harness.run_suite(config)
    if args.format == "json":
        print(json.dumps([r.to_json_obj() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render())
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_IDENTITY_FAILURE


def cmd_table(args) -> int:
    box = _box_from_arg(args.box)
    lam = _resolve_matrix(args, 2)
    sys2 = bivariate.MeixnerSystem(args.beta, lam, ScalarMode.EXACT)
    routes = {
        "raising": bivariate.monic_eval_raising,
        "gf": bivariate.monic_eval_gf,
        "hyp": bivariate.monic_eval_hyp,
    }
    route = routes[args.route]
    rows = [(*cell, rational_str(route(sys2, *cell))) for cell in box.cells()]
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["m", "n", "i", "k", "value"])
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(
            [
                {"m": m, "n": n, "i": i, "k": k, "value": value}
                for (m, n, i, k, value) in rows
            ],
            indent=2,
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="" if args.format == "csv" else "\n")
    return EXIT_PASS


def cmd_gen_matrix(args) -> int:
    lam = harness.random_matrix(args.seed, args.d, args.factors)
    text = json.dumps(matrix_to_json_obj(lam), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonConvergence, ModeError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (MatrixValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
