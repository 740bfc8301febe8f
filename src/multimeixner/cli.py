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

from . import harness, multivariate
from .errors import (
    MatrixValidationError,
    ModeError,
    NonConvergence,
    PreconditionError,
)
from .lorentz import SubgroupParam, matrix_from_json, matrix_to_json_obj
from .numerics import ScalarMode, float_str, rational_str, require_float
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
    parser.add_argument(
        "--factors",
        type=int,
        help=f"factors of a --seed product (default {harness.DEFAULT_FACTORS}, or d when d is"
        " larger; a default product takes at least 5 and at least d)",
    )
    parser.add_argument(
        "--subgroup",
        type=_parse_subgroup,
        metavar="SPEC",
        help="explicit factor list, e.g. 'rotation:1,2:1/2 boost:2,3:2'",
    )


def _read_matrix(path):
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return matrix_from_json(handle.read())


def _matrix(args, d: int):
    return harness.resolve_matrix(
        d, _read_matrix(args.matrix), args.seed, args.subgroup, args.factors
    )


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
    p_eval.add_argument("--d", type=int, help="number of variables (default: the arity of --degrees)")
    p_eval.add_argument("--beta", type=_fraction, default=Fraction(2))
    p_eval.add_argument(
        "--route",
        choices=["raising", "gf", "hyp", "tratnik", "dompe3"],
        help="default: gf for monic values; the other value kinds read the raising table",
    )
    p_eval.add_argument("--degrees", type=_int_list, required=True, metavar="m,n")
    p_eval.add_argument("--point", type=_int_list, required=True, metavar="i,k")
    p_eval.add_argument(
        "--mode",
        choices=["exact", "float"],
        help="default: exact for monic values, float for the other value kinds",
    )
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
    p_verify.add_argument("--d", type=int, help="number of variables (default: the suite's)")
    p_verify.add_argument("--beta", type=_fraction, default=Fraction(2))
    p_verify.add_argument("--box", type=_int_list, metavar="m,n,i,k")
    p_verify.add_argument("--mode", choices=["exact", "float"])
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--degree-max", type=int, dest="degree_max")
    p_verify.add_argument("--coord-max", type=int, dest="coord_max")
    p_verify.add_argument("--tuples", type=int, help="addition samples (default 10)")
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
    p_gen.add_argument(
        "--factors", type=int, help=f"default {harness.DEFAULT_FACTORS}, or d when d is larger"
    )
    p_gen.add_argument("--out", metavar="FILE")
    p_gen.set_defaults(func=cmd_gen_matrix)

    return parser


def _monic_str(value: Fraction, mode) -> str:
    if mode != "float":
        return rational_str(value)
    return float_str(require_float(value, "the monic value"))


def cmd_eval(args) -> int:
    d = len(args.degrees)
    if d != len(args.point):
        raise MatrixValidationError("--degrees and --point must have the same arity")
    if args.d is not None and args.d != d:
        raise MatrixValidationError(f"--d {args.d} disagrees with the {d} values of --degrees")
    if args.mode == "exact" and args.value != "monic":
        raise ValueError(f"--mode exact gives monic values only, not --value {args.value}")
    if args.route in ("tratnik", "dompe3"):
        # the closed forms give exact monic values only
        harness.check_reads(
            f"route {args.route}",
            ("subgroup",),
            matrix=args.matrix,
            seed=args.seed,
            factors=args.factors,
            mode=None if args.mode == "exact" else args.mode,
            value=None if args.value == "monic" else args.value,
        )
        if d != 2:
            raise ValueError(f"route {args.route} runs at d = 2 only; --degrees has {d} values")
        form = harness.closed_form(args.route, args.beta, args.subgroup)
        print(rational_str(form(*args.degrees, *args.point)))
        return EXIT_PASS

    monic = args.value == "monic"
    if not monic and args.route not in (None, "raising"):
        raise ValueError(
            f"--value {args.value} is read from the raising table: use --route raising"
            f" or no --route, not --route {args.route}"
        )
    lam = _matrix(args, d)
    if args.value == "matrix-element":  # any pseudo-rotation: no system is built
        print(float_str(multivariate.element_reader(args.beta, lam)(args.point, args.degrees)))
        return EXIT_PASS
    sysd = multivariate.MeixnerSystemD(
        args.beta, lam, ScalarMode.EXACT if monic else ScalarMode.FLOAT
    )
    if monic:
        route = getattr(multivariate, f"monic_eval_{args.route or 'gf'}_d")
        print(_monic_str(route(sysd, args.degrees, args.point), args.mode))
    else:
        print(float_str(multivariate.orthonormal_eval_d(sysd, args.degrees, args.point)))
    return EXIT_PASS


def cmd_verify(args) -> int:
    config = harness.SuiteConfig(
        suite=args.suite,
        d=args.d,
        beta=args.beta,
        matrix=_read_matrix(args.matrix),
        subgroup=args.subgroup,
        seed=args.seed,
        factors=args.factors,
        box=_box_from_arg(args.box),
        mode=args.mode,
        tol=args.tol,
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
    if args.d != 2:
        raise ValueError(f"table runs at d = 2 only, not --d {args.d}")
    box = _box_from_arg(args.box)
    sys2 = multivariate.MeixnerSystemD(args.beta, _matrix(args, 2), ScalarMode.EXACT)
    route = getattr(multivariate, f"monic_eval_{args.route}_d")
    cells = harness.box_cells("table", box)
    rows = [(*cell, rational_str(route(sys2, cell[:2], cell[2:]))) for cell in cells]
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
