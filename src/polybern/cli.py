"""Command line frontend: tables, polynomials, identity checks, eval.

Exit codes: 0 success (identity passed), 1 identity/equation failed,
2 usage, parse or evaluation error.

Each subcommand imports what only it needs (``identities`` for verify,
``parser`` for eval and equations, ``json``/``csv`` for those formats) in
its own body, so a light command does not pay their import. Handlers call
through the module objects, where the benchmark's tracer patches them.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import factorial

from . import families
from .errors import PolybernError
from .ring import format_scalar, lambda_eval

DEFAULT_ORDER = families.DEFAULT_PRECISION

BOUNDS_TEXT = (
    f"Bounds: |k| <= {families.MAX_ABS_K} and r <= {families.MAX_R}; --n <= "
    f"{families.MAX_PRECISION} for table and poly; --order <= {families.MAX_PRECISION} for "
    f"eval and an 'lhs == rhs' equation; --order <= {families.MAX_CHECK_PRECISION} and "
    f"--n <= {families.MAX_CHECK_PRECISION - 2} for a catalog identity. A larger value "
    "exits 2, as does an out-of-range --k or --r that a subcommand does not read. The "
    "slowest runs measured at the bounds, on a 2-vCPU VM: "
    "eval \"li(100,1-elam(-1))/(elam(1)-1)\" --order 128 takes 8 min; computing the "
    "dpb-higher table at |k| = 100, r = 40, --n 128 takes 9 s, and printing it 50 s "
    "more; verify sheffer23 --k 100 --r 40 --n 30 takes 7 s, and remark 6 s. The cost "
    "of eval also grows with the size of the expression.")


def _columns(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for cells in [header] + rows:
        padded = [cells[0].rjust(widths[0])]
        padded += [c.ljust(widths[i]) for i, c in enumerate(cells) if i > 0]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(d: dict) -> str:
    import json

    return json.dumps(d) + "\n"


def render_record(record: dict, fmt: str) -> str:
    """One table or eval result; its rows are (n, value) or (n, coeff, n!*coeff)."""
    if fmt == "json":
        return _json_text(record)
    header = ["n", "value"] if record["expr"] is None else ["n", "coefficient", "sequence"]
    rows = [[str(n), *cells] for n, *cells in record["rows"]]
    if fmt == "csv":
        return _csv_text(header, rows)
    return _columns(header, rows)


def render_report(report, fmt: str) -> str:
    """One ``identities.IdentityReport``."""
    if fmt == "json":
        return _json_text(report.to_json_dict())
    w = report.witness
    if fmt == "csv":
        row = [report.id, report.status]
        row += ["", "", ""] if w is None else [str(w.n), w.lhs, w.rhs]
        return _csv_text(["id", "status", "n", "lhs", "rhs"], [row])
    if w is None:
        return f"{report.id}: pass\n"
    return (f"{report.id}: fail at n={w.n}\n"
            f"  lhs = {w.lhs}\n"
            f"  rhs = {w.rhs}\n")


def _lambda_mode(text: str):
    """argparse type for --lambda: 'symbolic' or an exact rational."""
    if text == "symbolic":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected 'symbolic' or a rational like 3/5, got {text!r}")


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k", type=int, default=None,
                        help=f"polylog order (any sign, |k| <= {families.MAX_ABS_K})")
    common.add_argument("--r", type=int, default=1,
                        help=f"family order (default 1, r <= {families.MAX_R})")
    common.add_argument("--n", type=int, default=None,
                        help=f"row count / index (<= {families.MAX_PRECISION}) / identity "
                             f"range (<= {families.MAX_CHECK_PRECISION - 2})")
    common.add_argument("--order", type=int, default=None,
                        help=f"working precision (default {DEFAULT_ORDER}; <= "
                             f"{families.MAX_PRECISION}, or <= {families.MAX_CHECK_PRECISION} "
                             f"for a catalog identity)")
    common.add_argument("--lambda", dest="lam", type=_lambda_mode, default=None,
                        metavar="RAT|symbolic",
                        help="specialize lambda to an exact rational (default symbolic)")
    common.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized check inputs (default 0)")

    top = argparse.ArgumentParser(
        prog="polybern",
        description="Exact degenerate poly-Bernoulli tables, polynomials and "
                    "identity verification over Q[lambda].",
        epilog=BOUNDS_TEXT)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common],
                       help="print n!*[t^n] values of a family")
    p.add_argument("family", choices=families.FAMILY_IDS)

    p = sub.add_parser("poly", parents=[common],
                       help="print the polynomial in x of a family")
    p.add_argument("family", choices=families.FAMILY_IDS)

    p = sub.add_parser("verify", parents=[common],
                       help="check a catalog identity or an 'lhs == rhs' equation")
    p.add_argument("target")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a series expression")
    p.add_argument("expression")

    return top


def _lam_label(lam) -> str:
    return "symbolic" if lam is None else format_scalar(lam)


def _specialized_str(value, lam) -> str:
    if lam is not None:
        value = lambda_eval(value, lam)
    return format_scalar(value)


def cmd_table(args) -> int:
    order = args.order if args.order is not None else DEFAULT_ORDER
    if args.n is None:
        raise PolybernError("table needs --n (number of rows)")
    if args.n < 1:
        raise PolybernError("--n must be >= 1")
    if args.n > order:
        raise PolybernError(f"--n {args.n} exceeds the working precision {order}")
    tbl = families.table(args.family, args.n, k=args.k, r=args.r)
    record = {
        "family": args.family,
        "expr": None,
        "k": tbl.k,
        "r": tbl.r,
        "lambda": _lam_label(args.lam),
        "rows": [(n, _specialized_str(v, args.lam)) for n, v in enumerate(tbl.values)],
    }
    sys.stdout.write(render_record(record, args.fmt))
    return 0


def cmd_poly(args) -> int:
    order = args.order if args.order is not None else DEFAULT_ORDER
    if args.n is None:
        raise PolybernError("poly needs --n (polynomial index)")
    if args.n < 0 or args.n >= order:
        raise PolybernError(f"--n must satisfy 0 <= n < {order}")
    p = families.polynomial(args.family, args.n, args.n + 1, k=args.k, r=args.r)
    if args.lam is not None:
        p = p.specialize(args.lam)
    k, r = families._read_params(args.family, args.k, args.r)
    d = {
        "family": args.family,
        "k": k,
        "r": r,
        "n": args.n,
        "lambda": _lam_label(args.lam),
        "poly": str(p),
    }
    if args.fmt == "json":
        sys.stdout.write(_json_text(d))
    elif args.fmt == "csv":
        rows = [[str(j), format_scalar(p.coefficient(j))] for j in range(args.n + 1)]
        sys.stdout.write(_csv_text(["degree", "coefficient"], rows))
    else:
        sys.stdout.write(str(p) + "\n")
    return 0


def _verify_equation(args):
    from . import identities, parser as expr

    families.check_k(args.k)  # an unread --k or --r is refused, as in table
    families.check_r(args.r)
    lhs_text, _, rhs_text = args.target.partition("==")
    if "==" in rhs_text:
        raise PolybernError("an equation has exactly one '=='")
    order = args.order if args.order is not None else DEFAULT_ORDER
    lhs = expr.eval_expr(expr.parse(lhs_text), order)
    # the right side parses behind blanks, so its offsets count from the target's start
    rhs = expr.eval_expr(expr.parse(" " * (len(lhs_text) + 2) + rhs_text), order)
    witness = identities._first_failure(((n, lhs[n], rhs[n]) for n in range(order)), args.lam)
    params = {"order": order, "lambda": _lam_label(args.lam)}
    status = "pass" if witness is None else "fail"
    return identities.IdentityReport(args.target, params, status, witness)


def cmd_verify(args) -> int:
    from . import identities

    if "==" in args.target:
        report = _verify_equation(args)
    else:
        report = identities.verify(
            args.target, k=args.k, r=args.r, nmax=args.n,
            order=args.order, lam=args.lam, seed=args.seed)
    sys.stdout.write(render_report(report, args.fmt))
    return 0 if report.passed else 1


def cmd_eval(args) -> int:
    from . import parser as expr

    families.check_k(args.k)  # an unread --k or --r is refused, as in table
    families.check_r(args.r)
    order = args.order if args.order is not None else DEFAULT_ORDER
    series = expr.eval_expr(expr.parse(args.expression), order)
    if args.lam is not None:
        series = series.specialize(args.lam)
    record = {
        "family": None,
        "expr": args.expression,
        "k": None,
        "r": 1,
        "lambda": _lam_label(args.lam),
        "rows": [(n, format_scalar(series[n]), format_scalar(factorial(n) * series[n]))
                 for n in range(order)],
    }
    sys.stdout.write(render_record(record, args.fmt))
    return 0


def main(argv=None) -> int:
    top = build_arg_parser()
    args = top.parse_args(argv)
    handler = {"table": cmd_table, "poly": cmd_poly,
               "verify": cmd_verify, "eval": cmd_eval}[args.command]
    # A legal table entry can exceed Python's 4300-digit limit on int/str
    # conversion. Outside input cannot: the expression lexer caps literals.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return handler(args)
    except PolybernError as err:
        span = getattr(err, "span", None)
        where = f" at offset {span[0]}..{span[1]}" if span else ""
        print(f"polybern: error{where}: {err}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
