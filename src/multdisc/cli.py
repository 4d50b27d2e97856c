"""Command-line front end.

Subcommands: classify, dmu, yhz, table, verify.  Exact values are printed
as arbitrary-precision decimal strings, never floats, with no digit limit;
the --truncate-digits option elides long middles in text output only, JSON
always carries full values.  Identical (command, inputs, seed) produce
byte-identical output.

Exit codes: 0 success, 1 usage/parse errors, 2 mathematical anomalies
(ambiguous classification, degenerate chains, failing verify suites),
3 internal errors.
"""

import argparse
import functools
import json
import sys

from .combinat import parse_partition, partitions
from .discriminant import SYMBOLIC_CAP, classify_report, dmu, dmu_degree
from .errors import (
    AmbiguousClassification,
    CapExceeded,
    ChainDegenerate,
    LeadingZero,
    MultdiscError,
    ParseError,
)
from .scalars import format_scalar, parse_scalar
from .suites import SUITES, run_suite
from .unipoly import generic_poly, parse_poly
from .yhz import (
    measured_size,
    yhz_condition,
    yhz_count,
    yhz_degree,
    yhz_degree_lower_bound,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANOMALY = 2
EXIT_INTERNAL = 3


def _truncate(text, digits):
    if not digits or len(text) <= digits:
        return text
    half = max(digits // 2, 1)
    omitted = len(text) - 2 * half
    return f"{text[:half]}...({omitted} digits)...{text[-half:]}"


def _parse_mu(text):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise ParseError(f"bad partition {text!r}: {exc}") from exc


def _parse_input_poly(text):
    poly = parse_poly(text)  # raises ParseError on an empty field
    # Poly drops leading zeros, so the lead is checked on the raw field
    if not parse_scalar(text.split(",", 1)[0]):
        raise LeadingZero(f"leading coefficient is zero: {text!r}")
    return poly


def _mu_str(mu):
    return "[" + ",".join(map(str, mu)) + "]"


def _classify_one(text):
    poly = _parse_input_poly(text)
    report = classify_report(poly)
    return {
        "degree": report.degree,
        "ndr": report.ndr,
        "multiplicity": list(report.multiplicity),
        "certificates": [
            {"mu": list(mu), "value": format_scalar(value)}
            for mu, value in report.certificates
        ],
    }


def cmd_classify(args, out):
    if bool(args.coeffs) == bool(args.file):
        raise ParseError("exactly one of --coeffs or --file is required")
    if args.coeffs:
        lines = [args.coeffs]
    else:
        with open(args.file) as handle:
            lines = [
                line.strip()
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            ]
    batch = args.file is not None
    for line in lines:
        report = _classify_one(line)
        if args.format == "json":
            out.write(json.dumps(report) + "\n")
        elif batch:
            certs = ", ".join(
                f"D{_mu_str(c['mu'])}={_truncate(c['value'], args.truncate_digits)}"
                for c in report["certificates"]
            )
            out.write(
                f"{line} => degree {report['degree']}, ndr {report['ndr']}, "
                f"multiplicity {_mu_str(report['multiplicity'])}"
                + (f"; {certs}" if certs else "")
                + "\n"
            )
        else:
            out.write(f"degree: {report['degree']}\n")
            out.write(f"ndr: {report['ndr']}\n")
            out.write(f"multiplicity: {_mu_str(report['multiplicity'])}\n")
            for cert in report["certificates"]:
                out.write(
                    f"certificate D{_mu_str(cert['mu'])} = "
                    f"{_truncate(cert['value'], args.truncate_digits)}\n"
                )
    return EXIT_OK


def cmd_dmu(args, out):
    mu = _parse_mu(args.mu)
    if sum(mu) != args.n:
        raise ParseError(f"{_mu_str(mu)} does not partition n = {args.n}")
    if bool(args.symbolic) == bool(args.eval):
        raise ParseError("exactly one of --symbolic or --eval is required")
    if args.symbolic:
        result = dmu(generic_poly(args.n), mu, symbolic_cap=args.symbolic_cap)
        value = result.value
        payload = {
            "n": args.n,
            "mu": list(mu),
            "mode": "symbolic",
            "matrix_dim": result.matrix_dim,
            "term_count": result.term_count,
            "polynomial": str(value),
            "total_degree": value.total_degree() if value else 0,
            "terms": len(value.terms),
        }
        if args.format == "json":
            out.write(json.dumps(payload) + "\n")
        else:
            out.write(f"D_mu for mu = {_mu_str(mu)}, n = {args.n} (symbolic)\n")
            out.write(f"matrix dimension: {payload['matrix_dim']}\n")
            out.write(f"stack count |S_p|: {payload['term_count']}\n")
            out.write(f"polynomial: {_truncate(payload['polynomial'], args.truncate_digits)}\n")
            out.write(f"total degree: {payload['total_degree']}\n")
            out.write(f"terms: {payload['terms']}\n")
    else:
        poly = _parse_input_poly(args.eval)
        if poly.degree != args.n:
            raise ParseError(f"--eval polynomial has degree {poly.degree}, expected {args.n}")
        result = dmu(poly, mu)
        payload = {
            "n": args.n,
            "mu": list(mu),
            "mode": "numeric",
            "matrix_dim": result.matrix_dim,
            "term_count": result.term_count,
            "value": format_scalar(result.value),
        }
        if args.format == "json":
            out.write(json.dumps(payload) + "\n")
        else:
            out.write(f"D_mu for mu = {_mu_str(mu)}, n = {args.n}\n")
            out.write(f"value: {_truncate(payload['value'], args.truncate_digits)}\n")
    return EXIT_OK


def cmd_yhz(args, out):
    mu = _parse_mu(args.mu)
    if sum(mu) != args.n:
        raise ParseError(f"{_mu_str(mu)} does not partition n = {args.n}")
    payload = {
        "n": args.n,
        "mu": list(mu),
        "count": yhz_count(mu),
        "max_degree": yhz_degree(mu) if len(mu) >= 2 else None,
        "degree_lower_bound": (
            yhz_degree_lower_bound(args.n, mu[1]) if len(mu) >= 2 else None
        ),
    }
    if args.eval:
        poly = _parse_input_poly(args.eval)
        if poly.degree != args.n:
            raise ParseError(f"--eval polynomial has degree {poly.degree}, expected {args.n}")
        cond = yhz_condition(poly, mu)
        payload.update(
            {
                "mode": "numeric",
                "equation_values": [format_scalar(v) for v in cond.equations],
                "inequation_value": format_scalar(cond.inequation),
                "satisfied": cond.is_satisfied(),
            }
        )
    else:
        if args.n > args.symbolic_cap:
            raise CapExceeded(f"symbolic chain capped at degree {args.symbolic_cap}")
        cond = yhz_condition(generic_poly(args.n), mu)
        count, max_deg = measured_size(cond)
        payload.update(
            {
                "mode": "symbolic",
                "equations": [str(v) for v in cond.equations],
                "inequation": str(cond.inequation),
                "measured_count": count,
                "measured_max_degree": max_deg,
            }
        )
    if args.format == "json":
        out.write(json.dumps(payload) + "\n")
        return EXIT_OK
    out.write(f"repeated-subresultant condition for mu = {_mu_str(mu)}, n = {args.n}\n")
    out.write(f"closed-form count: {payload['count']}\n")
    out.write(f"closed-form max degree: {payload['max_degree']}\n")
    out.write(f"degree lower bound: {payload['degree_lower_bound']}\n")
    if args.eval:
        for i, v in enumerate(payload["equation_values"]):
            out.write(f"equation {i}: {_truncate(v, args.truncate_digits)}\n")
        out.write(f"inequation: {_truncate(payload['inequation_value'], args.truncate_digits)}\n")
        out.write(f"satisfied: {str(payload['satisfied']).lower()}\n")
    else:
        out.write(f"measured count: {payload['measured_count']}\n")
        out.write(f"measured max degree: {payload['measured_max_degree']}\n")
        for i, v in enumerate(payload["equations"]):
            out.write(f"equation {i}: {_truncate(v, args.truncate_digits)}\n")
        out.write(f"inequation: {_truncate(payload['inequation'], args.truncate_digits)}\n")
    return EXIT_OK


def _table_rows(n, measure_upto, symbolic_cap):
    rows = []
    for m in range(2, n - 1):
        for mu in reversed(partitions(n, m)):
            row = {
                "n": n,
                "m": m,
                "mu": _mu_str(mu),
                "num_new": 1,
                "num_yhz": yhz_count(mu),
                "d_new": dmu_degree(n, mu),
                "d_yhz": yhz_degree(mu),
            }
            if measure_upto and n <= measure_upto:
                if n > symbolic_cap:
                    raise CapExceeded(f"symbolic measurement capped at degree {symbolic_cap}")
                F = generic_poly(n)
                dres = dmu(F, mu, symbolic_cap=symbolic_cap)
                d_new_measured = dres.value.total_degree() if dres.value else 0
                try:
                    count, max_deg = measured_size(yhz_condition(F, mu))
                    degenerate = False
                except ChainDegenerate:
                    count, max_deg = None, None
                    degenerate = True
                row.update(
                    {
                        "measured_d_new": d_new_measured,
                        "measured_num_yhz": count,
                        "measured_d_yhz": max_deg,
                        "match": (
                            "degenerate"
                            if degenerate
                            else str(
                                d_new_measured == row["d_new"]
                                and count == row["num_yhz"]
                                and max_deg == row["d_yhz"]
                            ).lower()
                        ),
                    }
                )
            rows.append(row)
    return rows


def cmd_table(args, out):
    rows = _table_rows(args.n, args.measure_upto, args.symbolic_cap)
    columns = ["n", "m", "mu", "num_new", "num_yhz", "d_new", "d_yhz"]
    if rows and "measured_d_new" in rows[0]:
        columns += ["measured_d_new", "measured_num_yhz", "measured_d_yhz", "match"]
    if args.format == "json":
        out.write(json.dumps(rows) + "\n")
    elif args.format == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_csv_cell(row.get(c)) for c in columns) + "\n")
    else:
        widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c) for c in columns}
        out.write("  ".join(c.ljust(widths[c]) for c in columns) + "\n")
        for row in rows:
            out.write("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns) + "\n")
    return EXIT_OK


def _csv_cell(value):
    if value is None:
        return ""
    text = str(value)
    return f'"{text}"' if "," in text else text


def cmd_verify(args, out):
    if args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    result = run_suite(args.suite, args.trials, args.seed)
    if args.format == "json":
        payload = {
            "suite": result.suite,
            "trials": result.trials,
            "passed": result.passed,
            "failures": result.failures,
        }
        out.write(json.dumps(payload) + "\n")
    else:
        out.write(f"suite {result.suite}: {result.passed}/{result.trials} trials passed\n")
        for failure in result.failures:
            out.write(f"FAIL {failure}\n")
    return EXIT_OK if result.ok else EXIT_ANOMALY


@functools.cache
def build_parser():
    # built once per process: main() only reads it, and a build costs more
    # than a small symbolic command
    parser = argparse.ArgumentParser(
        prog="multdisc",
        description="Exact multiplicity-structure discriminants for univariate polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide the multiplicity structure of a polynomial")
    p.add_argument("--coeffs", help='descending coefficients, e.g. "1,-1,-3,5,-2"')
    p.add_argument("--file", help="batch file, one polynomial per line, # comments")

    p = sub.add_parser("dmu", help="the one-polynomial discriminant, symbolic or evaluated")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True, help='partition, e.g. "3,1"')
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--eval", help="coefficients to evaluate at")

    p = sub.add_parser("yhz", help="the repeated-subresultant condition and its size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--eval", help="coefficients to evaluate at")

    p = sub.add_parser("table", help="size comparison of the two conditions for degree n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--measure-upto", type=int, default=0,
                   help="add symbolically measured columns when n is at most this")

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(sorted(SUITES))}")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)

    # each subcommand takes only the shared options it reads
    for name, p in sub.choices.items():
        formats = ("text", "json", "csv") if name == "table" else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
        if name in ("classify", "dmu", "yhz"):
            p.add_argument("--truncate-digits", type=int, default=0,
                           help="elide middles of long values in text output")
        if name in ("dmu", "yhz", "table"):
            p.add_argument("--symbolic-cap", type=int, default=SYMBOLIC_CAP)

    return parser


COMMANDS = {
    "classify": cmd_classify,
    "dmu": cmd_dmu,
    "yhz": cmd_yhz,
    "table": cmd_table,
    "verify": cmd_verify,
}


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if getattr(args, "truncate_digits", 0) < 0:
            raise ParseError(f"--truncate-digits must be at least 0, got {args.truncate_digits}")
        return COMMANDS[args.command](args, out)
    except (AmbiguousClassification, ChainDegenerate) as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    except (MultdiscError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
