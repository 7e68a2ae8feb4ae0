"""Command-line front end: coefficient queries, tables, verification sweeps.

Exit codes: 0 success, 1 usage or parse error (or a --dump path that cannot
be written), 2 mathematical mismatch found by a verification command or an
arithmetic failure (reported as one JSON line on stderr).  All stdout output
is byte-deterministic for a fixed set of flags (timings go to stderr), so
identical invocations can be diffed in CI.
Nothing but --dump is written to disk: character tables are rebuilt in each
process, so no persisted file can reach the main path or its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from . import oracle
from .branching import HypothesisViolationError, branching_table, coefficient_and_series, table_series
from .partitions import parse_partition
from .symfunc import series_to_json
from .wreath import format_label, parse_label

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract wants 1.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# A label stores only its nonempty slots, so a coeff query at the cap still
# answers in under a second; but a table at --n 1 has m labels, about 1 KB
# and 20 us each, so the cap keeps the smallest table near a gigabyte.
MAX_ORDER = 10**6

# Sizes and degrees have a cap too.  coeff --m 1 --rho 0:D --lambda D walks
# the products of all partitions of D; in a fresh process it takes 1.0 s and
# 25 MB at D = 16, 2.7 s and 38 MB at D = 18 and 8 s and 66 MB at D = 20
# (CPython 3.11, 2-core Xeon VM).  Of that, character_table(20) alone takes
# 1.0-1.5 s and 59 MB, and every command reads these tables.
MAX_DEGREE = 20


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f">= {low} and <= {high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wreathlitt",
        description="Exact branching coefficients from GL_n to wreath products "
        "of cyclic groups, with verification against independent oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    coeff = sub.add_parser("coeff", help="one branching coefficient")
    coeff.add_argument("--m", type=_int_at_least(1, MAX_ORDER), required=True, help=f"order of the cyclic group, 1..{MAX_ORDER}")
    coeff.add_argument("--rho", required=True, help='wreath label, e.g. "0:2,1;1:1"')
    coeff.add_argument("--lambda", dest="lam", required=True, help='partition, e.g. "2,1"')
    coeff.add_argument("--dump", type=Path, help="write the generating series as JSON")
    coeff.set_defaults(handler=_cmd_coeff)

    table = sub.add_parser("table", help="all coefficients for one group")
    table.add_argument("--m", type=_int_at_least(1, MAX_ORDER), required=True)
    table.add_argument("--n", type=_int_at_least(1, MAX_DEGREE), required=True, help=f"number of boxes in the labels, 1..{MAX_DEGREE}")
    table.add_argument("--max-deg", type=_int_at_least(0, MAX_DEGREE), required=True, help=f"largest |lambda|, 0..{MAX_DEGREE}")
    table.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    table.set_defaults(handler=_cmd_table)

    verify = sub.add_parser("verify", help="triple agreement and dimension sums")
    verify.add_argument("--m", type=_int_at_least(1, MAX_ORDER), required=True)
    verify.add_argument("--n", type=_int_at_least(1, MAX_DEGREE), required=True)
    verify.add_argument("--max-deg", type=_int_at_least(0, MAX_DEGREE), required=True)
    verify.add_argument("--format", choices=("json", "pretty"), default="pretty")
    verify.add_argument("--dump", type=Path, help="write every generating series as JSON")
    verify.set_defaults(handler=_cmd_verify)

    identities = sub.add_parser("identities", help="truncated checks of every intermediate identity")
    identities.add_argument("--m", type=_int_at_least(1, MAX_ORDER), required=True)
    identities.add_argument("--dx", type=_int_at_least(0, MAX_DEGREE), required=True, help="label-size cap on the wreath side")
    identities.add_argument("--dy", type=_int_at_least(0, MAX_DEGREE), required=True, help="degree cap on the symmetric side")
    identities.add_argument("--format", choices=("json", "pretty"), default="pretty")
    identities.set_defaults(handler=_cmd_identities)
    return parser


def _cmd_coeff(args) -> int:
    rho = parse_label(args.rho, args.m)
    lam = parse_partition(args.lam)
    for flag, boxes in (("--rho", rho.size), ("--lambda", sum(lam))):
        if boxes > MAX_DEGREE:
            raise ValueError(f"argument {flag}: must be >= 0 and <= {MAX_DEGREE} boxes, got {boxes}")
    value, series = coefficient_and_series(rho, lam)
    if args.dump:
        payload = {
            "rho": format_label(rho),
            "max_degree": sum(lam),
            "series": series_to_json(series),
        }
        args.dump.write_text(json.dumps(payload, indent=2) + "\n")
    print(value)
    return EXIT_OK


def _cmd_table(args) -> int:
    table = branching_table(args.m, args.n, args.max_deg)
    if args.format == "json":
        print(json.dumps(table.to_json_obj()))
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        sys.stdout.write(table.to_pretty())
    return EXIT_OK


def _print_report(report: oracle.VerificationReport, fmt: str) -> int:
    for check in report.checks:
        print(f"timing {check.name}: {check.seconds:.3f}s", file=sys.stderr)
    if fmt == "json":
        print(json.dumps(report.to_json_obj()))
    else:
        scope = " ".join(f"{k}={v}" for k, v in report.scope.items())
        print(scope)
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{check.name}: {status} ({check.cells} cells)")
        if report.passed:
            print("all checks passed")
        else:
            failure = report.first_failure()
            print("counterexample: " + json.dumps(failure.counterexample))
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _cmd_verify(args) -> int:
    # Open the dump first: an unwritable path fails before any verification work.
    with args.dump.open("w") if args.dump else contextlib.nullcontext() as dump:
        report = oracle.run_verification(args.m, args.n, args.max_deg)
        if dump:
            payload = [
                {
                    "rho": format_label(rho),
                    "max_degree": args.max_deg,
                    "series": series_to_json(series),
                }
                for rho, series in table_series(args.m, args.n, args.max_deg)
            ]
            dump.write(json.dumps(payload, indent=2) + "\n")
    return _print_report(report, args.format)


def _cmd_identities(args) -> int:
    report = oracle.run_identity_suite(args.m, args.dx, args.dy)
    return _print_report(report, args.format)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.handler(args)
    except (ValueError, HypothesisViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        failure = {"command": args.command, "error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(failure), file=sys.stderr)
        return EXIT_MISMATCH
    return code


if __name__ == "__main__":
    sys.exit(main())
