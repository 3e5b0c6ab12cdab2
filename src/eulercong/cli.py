"""Command-line front end.

Subcommands: eulerian, bernoulli, verify, solve, linial, worpitzky, audit.
All numeric output is exact: rationals are rendered as "p/q" strings and
polynomials in the canonical space-separated coefficient form, lowest degree
first.  Exit code 0 means every requested verdict was true, 1 means some
verdict failed, 2 means a usage error, 3 means an internal error (the
traceback goes to stderr).  Output is byte-deterministic for a fixed
invocation and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import run_audit
from .bernoulli import bernoulli_number, bernoulli_table
from .congruence import congruence_report, solve_characterization
from .eulerian import eulerian_poly, eulerian_triangle
from .polynomial import format_poly, parse_poly, poly_text
from .shift import linial_charpoly_mean_shift, linial_charpoly_worpitzky, worpitzky_check


def _int_at_least(low: int):
    """Argument type: an integer >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_eulerian(args) -> int:
    poly = eulerian_poly(args.ell)
    triangle = eulerian_triangle(args.ell)
    if args.format == "plain":
        print(f"A_{args.ell}(x) = {format_poly(poly)}")
        for row in triangle.rows:
            print(" ".join(str(v) for v in row))
    elif args.format == "csv":
        if triangle.rows:
            print(triangle.to_csv())
    else:
        payload = {
            "ell": args.ell,
            "polynomial": poly_text(poly),
            "pretty": format_poly(poly),
            "triangle": [[str(v) for v in row] for row in triangle.rows],
        }
        print(_json_dumps(payload))
    return 0


def cmd_bernoulli(args) -> int:
    table = bernoulli_table(args.ell)
    if args.format == "plain":
        for n, poly in enumerate(table):
            print(f"B_{n}(x) = {format_poly(poly, descending=True)}")
        print("numbers: " + " ".join(str(bernoulli_number(n)) for n in range(args.ell + 1)))
    elif args.format == "csv":
        print("\n".join(",".join(str(c) for c in p.coeffs) or "0" for p in table))
    else:
        payload = {
            "ell": args.ell,
            "polynomials": [poly_text(p) for p in table],
            "numbers": [str(bernoulli_number(n)) for n in range(args.ell + 1)],
        }
        print(_json_dumps(payload))
    return 0


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.f is not None:
        try:
            f = parse_poly(args.f)
        except ValueError as exc:
            parser.error(str(exc))
        if f.degree > args.ell:
            parser.error(f"--f has degree {f.degree}, larger than --ell {args.ell}")
    else:
        f = eulerian_poly(args.ell)
    report = congruence_report(f, args.ell, args.m)
    if args.format == "plain":
        print(f"congruence check: ell={args.ell} m={args.m} f = {format_poly(report.f)}")
        print(f"defect    = {poly_text(report.defect)}")
        print(f"remainder = {poly_text(report.remainder)}")
        print(f"quotient  = {poly_text(report.quotient)}")
        print(f"holds     = {'true' if report.holds else 'false'}")
    else:
        print(_json_dumps(report.to_json_dict()))
    return 0 if report.holds else 1


def cmd_solve(args) -> int:
    result = solve_characterization(args.ell, args.m)
    expected = eulerian_poly(args.ell)
    matches = result.solution == expected
    if args.format == "plain":
        print(format_poly(result.solution))
        if not matches:
            print("mismatch: solution differs from the recurrence route")
    else:
        payload = {
            "ell": args.ell,
            "m": args.m,
            "solution": poly_text(result.solution),
            "pretty": format_poly(result.solution),
            "rank": result.system_rank,
            "unique": result.unique,
            "matches_recurrence": matches,
        }
        print(_json_dumps(payload))
    return 0 if matches and result.unique else 1


def cmd_linial(args) -> int:
    mean_route = linial_charpoly_mean_shift(args.ell, args.m)
    if args.both:
        worp_route = linial_charpoly_worpitzky(args.ell, args.m)
        agree = mean_route == worp_route
        if args.format == "plain":
            print(f"mean-shift route: {format_poly(mean_route, var='t', descending=True)}")
            print(f"worpitzky route:  {format_poly(worp_route, var='t', descending=True)}")
            print(f"agree = {'true' if agree else 'false'}")
        else:
            payload = {
                "ell": args.ell,
                "m": args.m,
                "mean_shift": poly_text(mean_route),
                "worpitzky": poly_text(worp_route),
                "pretty": format_poly(mean_route, var="t", descending=True),
                "agree": agree,
            }
            print(_json_dumps(payload))
        return 0 if agree else 1
    if args.format == "plain":
        print(format_poly(mean_route, var="t", descending=True))
    else:
        payload = {
            "ell": args.ell,
            "m": args.m,
            "charpoly": poly_text(mean_route),
            "pretty": format_poly(mean_route, var="t", descending=True),
        }
        print(_json_dumps(payload))
    return 0


def cmd_worpitzky(args) -> int:
    ok, value = worpitzky_check(args.ell)
    if args.format == "plain":
        print(f"worpitzky check ell={args.ell}: {'PASS' if ok else 'FAIL'}")
        print(f"value = {format_poly(value, var='t', descending=True)}")
    else:
        payload = {
            "ell": args.ell,
            "ok": ok,
            "value": poly_text(value),
            "pretty": format_poly(value, var="t", descending=True),
        }
        print(_json_dumps(payload))
    return 0 if ok else 1


def cmd_audit(args) -> int:
    results = run_audit(
        max_ell=args.ell, max_m=args.m, seed=args.seed, order=args.order
    )
    failed = [r for r in results if not r.passed]
    if args.format == "plain":
        width = max(len(r.name) for r in results)
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark}  {r.name:<{width}}  {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    elif args.format == "csv":
        for r in results:
            status = "pass" if r.passed else "fail"
            print(f"{r.name},{status},{r.detail}")
    else:
        payload = {
            "max_ell": args.ell,
            "max_m": args.m,
            "seed": args.seed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "all_passed": not failed,
        }
        print(_json_dumps(payload))
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulercong",
        description=(
            "Exact computations with Eulerian and Bernoulli polynomials, "
            "Linial characteristic polynomials, and the congruence that "
            "characterizes the Eulerian polynomial."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eulerian", help="Eulerian polynomial and triangle")
    p.add_argument("--ell", type=_int_at_least(0), required=True)
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=cmd_eulerian)

    p = sub.add_parser("bernoulli", help="Bernoulli polynomials and numbers")
    p.add_argument("--ell", type=_int_at_least(0), required=True)
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("verify", help="check the congruence for f (default Eulerian)")
    p.add_argument("--ell", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(2), required=True)
    p.add_argument("--f", help='coefficients "p/q ..." lowest degree first')
    p.add_argument("--format", choices=("plain", "json"), default="json")
    p.set_defaults(func=lambda args: cmd_verify(args, parser))

    p = sub.add_parser("solve", help="recover the polynomial from the congruence")
    p.add_argument("--ell", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(2), required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("linial", help="Linial characteristic polynomial")
    p.add_argument("--ell", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(1), required=True)
    p.add_argument("--both", action="store_true", help="compute both routes and compare")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_linial)

    p = sub.add_parser("worpitzky", help="check the operator Worpitzky identity")
    p.add_argument("--ell", type=_int_at_least(1), required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_worpitzky)

    p = sub.add_parser("audit", help="run the full invariant battery")
    p.add_argument("--ell", type=_int_at_least(1), default=6, help="largest degree (default 6)")
    p.add_argument("--m", type=_int_at_least(1), default=4, help="largest modulus parameter (default 4)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--order", type=_int_at_least(1), default=None, help="series truncation override")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Exact output may need more digits than Python's default int-to-str cap.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> None:
    """Console entry point: exit with main's code, or 3 on an internal error."""
    try:
        code = main()
    except Exception:
        sys.excepthook(*sys.exc_info())  # the usual traceback, on stderr
        code = 3
    sys.exit(code)
