"""Command-line front end.

Subcommands: analyze (single-curve code report), jacobian (group order and
optional enumeration), bound (point bound calculator), attain (translate
support experiments) and search (curve search and code tables).  Exit
codes: 0 success, 1 input or usage error, 2 internal tripwire (an order
mismatch).

Curves are given either as a JSON file/string ({"field": {...}, "h": [...],
"f": [...]}) or inline via --q/--h/--f with caret-power polynomial syntax
and integer-encoded coefficients, e.g. ``--q 4 --h x --f x^5+2*x+3``.
Identical invocations produce byte-identical output; the parallelism degree
(flag --parallel or env JACOBICODE_THREADS) never changes output bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .bounds import weil_type_point_bound
from .curves import CurveModel, count_points, validate_curve
from .errors import JacobicodeError
from .explore import (
    CSV_COLUMNS,
    EXHAUSTIVE,
    RANDOM,
    SearchSpace,
    TableRow,
    analyze_curve,
    best_codes,
    csv_row,
)
from .fields import field_from_order, prime_power
from .mumford import enumerate_jacobian, translate_support_count, zero_sum_tuples
from .poly import parse_poly
from .weil import jacobian_order, weil_from_counts

SCHEMA = "1"
BOUND_Q_CAP = 1 << 40  # keeps the prime-power check's trial division below 2^20


class UsageError(JacobicodeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is exit 1
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _add_curve_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--curve", help="curve JSON file or inline JSON string")
    sub.add_argument("--q", type=int, help="field size (prime power)")
    sub.add_argument("--modulus", type=_int_list,
                     help="field modulus coefficients, comma separated")
    sub.add_argument("--h", dest="h_poly", default="0", help="h polynomial (inline syntax)")
    sub.add_argument("--f", dest="f_poly", help="f polynomial (inline syntax)")


def _add_output_args(sub: argparse.ArgumentParser, default_format: str = "json") -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"), default=default_format)
    sub.add_argument("--output", help="write to this path instead of stdout")


def _curve_from_args(args) -> CurveModel:
    if args.curve:
        try:
            text = Path(args.curve).read_text()
        except OSError:  # not a readable file: the argument is the JSON itself
            text = args.curve
        except UnicodeDecodeError:
            raise UsageError("--curve file is not UTF-8 text") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--curve is neither a file nor valid JSON: {exc}")
        except ValueError:  # an integer literal longer than int() accepts
            raise UsageError("--curve holds a number with too many digits") from None
        return CurveModel.from_dict(data)
    if args.q is None or args.f_poly is None:
        raise UsageError("need either --curve or both --q and --f")
    field = field_from_order(args.q, args.modulus or None)
    h = parse_poly(args.h_poly, field)
    f = parse_poly(args.f_poly, field)
    return validate_curve(field, h, f)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output: {exc}") from None
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _render_rows(rows: Sequence[TableRow], fmt: str, head: dict) -> str:
    if fmt in ("csv", "text"):
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter="," if fmt == "csv" else "\t",
                            lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(csv_row(row) for row in rows)
        return buf.getvalue()
    head = dict(head)
    head["schema"] = SCHEMA
    head["rows"] = [row.to_dict() for row in rows]
    return _dump_json(head)


# -- subcommands -------------------------------------------------------------

def _cmd_analyze(args) -> int:
    if not args.r:
        raise UsageError("empty --r list")
    curve = _curve_from_args(args)
    rows = analyze_curve(curve, args.r)
    head = {
        "curve": curve.to_dict(),
        "n1": rows[0].n1,
        "n2": rows[0].n2,
        "weil": rows[0].weil.to_dict(),
        "simplicity": rows[0].simplicity.verdict.value,
        "simplicity_reason": rows[0].simplicity.reason,
        "simple": rows[0].simplicity.is_simple,
    }
    _emit(_render_rows(rows, args.format, head), args.output)
    return 0


def _cmd_jacobian(args) -> int:
    curve = _curve_from_args(args)
    n1 = count_points(curve, 1).count
    n2 = count_points(curve, 2).count
    w = weil_from_counts(curve.field.q, n1, n2)
    out = {
        "schema": SCHEMA,
        "curve": curve.to_dict(),
        "n1": n1,
        "n2": n2,
        "order_from_weil": jacobian_order(w),
    }
    if args.enumerate or args.verify_order:
        group = enumerate_jacobian(curve)  # raises OrderMismatch on disagreement
        out["enumerated"] = len(group)
        if args.verify_order:
            out["order_verified"] = True
        if args.enumerate:
            out["elements"] = [d.to_dict() for d in group]
    _emit(_dump_json(out), args.output)
    return 0


def _cmd_bound(args) -> int:
    if args.q > BOUND_Q_CAP:
        raise UsageError(f"--q must be at most 2^40, got {args.q}")
    prime_power(args.q)  # NotPrimeError unless q is a prime power
    value = weil_type_point_bound(args.q, args.tau, args.pi)
    if args.format == "json":
        _emit(_dump_json({"schema": SCHEMA, "q": args.q, "tau": args.tau,
                          "pi": args.pi, "bound": value}), args.output)
    else:
        _emit(f"{value}\n", args.output)
    return 0


def _cmd_attain(args) -> int:
    if args.r < 2:
        raise UsageError(f"--r must be at least 2, got {args.r}")
    if args.tuples < 1:
        raise UsageError(f"--tuples must be at least 1, got {args.tuples}")
    curve = _curve_from_args(args)
    rows = analyze_curve(curve, [args.r])
    report = rows[0].report
    group_size = report.n
    total = group_size ** (args.r - 1)
    stride = max(1, total // args.tuples)
    experiments = [translate_support_count(curve, tup).to_dict()
                   for tup in zero_sum_tuples(curve, args.r, limit=args.tuples, stride=stride)]
    surrogates = [e["weight_surrogate"] for e in experiments]
    out = {
        "schema": SCHEMA,
        "curve": curve.to_dict(),
        "r": args.r,
        "d_lb": report.d_lb,
        "tuples": len(experiments),
        "max_support": max(e["support_count"] for e in experiments),
        "min_weight_surrogate": min(surrogates),
        "bound_respected": report.d_lb <= 0 or min(surrogates) >= report.d_lb,
        "experiments": experiments,
    }
    _emit(_dump_json(out), args.output)
    return 0


def _cmd_search(args) -> int:
    if args.top is not None and args.top < 0:
        raise UsageError(f"--top must be non-negative, got {args.top}")
    field = field_from_order(args.q, args.modulus or None)
    if args.random:
        if args.seed is None:
            raise UsageError("--random needs --seed")
        space = SearchSpace(field=field, kind=args.kind, mode=RANDOM,
                            seed=args.seed, trials=args.trials)
    else:
        space = SearchSpace(field=field, kind=args.kind, mode=EXHAUSTIVE)
    rows = best_codes(space, args.r, parallelism=args.parallel)
    if args.top is not None:
        rows = rows[:args.top]
    head = {
        "field": field.to_dict(),
        "kind": space.kind,
        "mode": space.mode,
        "seed": space.seed,
        "trials": space.trials,
        "r": list(args.r),
    }
    _emit(_render_rows(rows, args.format, head), args.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="jacobicode", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="code parameters of one curve")
    _add_curve_args(p)
    p.add_argument("--r", type=_int_list, default=[3], help="radii, comma separated")
    _add_output_args(p)
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("jacobian", help="group order; optional enumeration")
    _add_curve_args(p)
    p.add_argument("--enumerate", action="store_true", help="list the group elements")
    p.add_argument("--verify-order", action="store_true",
                   help="enumerate and cross-check against the zeta-side order")
    p.add_argument("--output", help="write the JSON to this path instead of stdout")
    p.set_defaults(func=_cmd_jacobian)

    p = subs.add_parser("bound", help="point bound for a curve on an abelian surface")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--pi", type=int, required=True)
    _add_output_args(p, default_format="text")
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("attain", help="translate support experiments")
    _add_curve_args(p)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--tuples", type=int, default=25)
    p.add_argument("--output", help="write the JSON to this path instead of stdout")
    p.set_defaults(func=_cmd_attain)

    p = subs.add_parser("search", help="search curves and tabulate code reports")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--modulus", type=_int_list)
    p.add_argument("--kind", choices=("imaginary", "real"), default="imaginary")
    p.add_argument("--r", type=_int_list, default=[3])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--random", action="store_true")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--top", type=int, help="emit only the best N rows")
    p.add_argument("--parallel", type=int,  # argparse converts a string default
                   default=os.environ.get("JACOBICODE_THREADS", "1"))
    _add_output_args(p)
    p.set_defaults(func=_cmd_search)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits only after printing --help
        return exc.code
    except JacobicodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(run_cli())
