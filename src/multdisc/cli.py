"""Command-line front end.

Subcommands: classify, dmu, yhz, table, verify.  Exact values are printed
as arbitrary-precision decimal strings, never floats, with no digit limit;
the --truncate-digits option elides long middles in text output only, JSON
always carries full values.  Identical (command, inputs, seed) produce
byte-identical output.  Every command builds one payload and hands it to
_emit, the only place that chooses between --format json (the payload as
one JSON line) and the command's text rendering.  classify --file writes
each report as soon as its line is classified and stops at the first bad
line, naming it as "line K".

Exit codes: 0 success, 1 usage/parse errors (MultdiscError, any other
ValueError, OSError), 2 mathematical anomalies (Anomaly: ambiguous
classification, degenerate chains; and failing verify suites), 3 internal
errors (NonExactDivision and every other exception).
"""

import argparse
import functools
import json
import random
import sys
from dataclasses import asdict

from .combinat import parse_partition, partition_count, partitions
from .discriminant import CANDIDATE_CAP, check_symbolic_degree, classify_report, dmu, dmu_degree
from .errors import Anomaly, MultdiscError
from .scalars import format_scalar, parse_scalar
from .suites import SUITES, run_suite
from .unipoly import Poly, generic_poly, parse_poly
from .yhz import (
    check_chain,
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


def _parse_mu(text, n):
    try:
        mu = parse_partition(text)
    except MultdiscError as exc:
        raise MultdiscError(f"bad partition {text!r}: {exc}") from exc
    if sum(mu) != n:
        raise MultdiscError(f"{_mu_str(mu)} does not partition n = {n}")
    return mu


def _parse_input_poly(text, degree=None):
    poly = parse_poly(text)  # raises on an empty field
    # Poly drops leading zeros, so the lead is checked on the raw field
    if not parse_scalar(text.split(",", 1)[0]):
        raise MultdiscError(f"leading coefficient is zero: {text!r}")
    if degree is not None and poly.degree != degree:
        raise MultdiscError(f"--eval polynomial has degree {poly.degree}, expected {degree}")
    return poly


def _mu_str(mu):
    return "[" + ",".join(map(str, mu)) + "]"


def _emit(args, out, payload, render):
    """Write payload as one JSON line, or in text mode the lines of render(), in one write."""
    if args.format == "json":
        out.write(json.dumps(payload) + "\n")
    else:
        out.write("".join(line + "\n" for line in render()))


def _classify_one(text):
    poly = _parse_input_poly(text)
    report = classify_report(poly)
    return {
        "degree": poly.degree,
        "ndr": len(report.multiplicity),
        "multiplicity": list(report.multiplicity),
        "certificates": [{"mu": list(mu), "value": format_scalar(v)} for mu, v in report.certificates],
    }


def cmd_classify(args, out):
    if bool(args.coeffs) == bool(args.file):
        raise MultdiscError("exactly one of --coeffs or --file is required")
    digits = args.truncate_digits
    if args.coeffs:
        report = _classify_one(args.coeffs)
        _emit(args, out, report, lambda: [
            f"degree: {report['degree']}",
            f"ndr: {report['ndr']}",
            f"multiplicity: {_mu_str(report['multiplicity'])}",
            *(f"certificate D{_mu_str(c['mu'])} = {_truncate(c['value'], digits)}"
              for c in report["certificates"]),
        ])
        return EXIT_OK
    # decoded per line: each report is written before the next line is read
    with open(args.file, "rb") as handle:
        for k, raw in enumerate(handle, 1):
            try:
                line = raw.decode().strip()
                if not line or line.startswith("#"):
                    continue
                report = _classify_one(line)
            except UnicodeDecodeError as exc:  # its text comes from its fields, not args
                raise MultdiscError(f"line {k}: {exc}") from exc
            except Exception as exc:
                # the class, and so the exit code, stays; only the message gains the line
                exc.args = (f"line {k}: {exc}",)
                raise
            _emit(args, out, report, lambda: [_batch_line(line, report, digits)])
    return EXIT_OK


def _batch_line(line, report, digits):
    certs = ", ".join(f"D{_mu_str(c['mu'])}={_truncate(c['value'], digits)}"
                      for c in report["certificates"])
    return (f"{line} => degree {report['degree']}, ndr {report['ndr']}, "
            f"multiplicity {_mu_str(report['multiplicity'])}" + (f"; {certs}" if certs else ""))


def cmd_dmu(args, out):
    mu = _parse_mu(args.mu, args.n)
    if bool(args.symbolic) == bool(args.eval):
        raise MultdiscError("exactly one of --symbolic or --eval is required")
    if args.symbolic:
        check_symbolic_degree(args.n, "dmu")  # before the generic F is built
    F = generic_poly(args.n) if args.symbolic else _parse_input_poly(args.eval, args.n)
    result = dmu(F, mu)
    value = result.value
    payload = {
        "n": args.n,
        "mu": list(mu),
        "mode": "symbolic" if args.symbolic else "numeric",
        "matrix_dim": dmu_degree(args.n, mu),
        "term_count": result.term_count,
    }
    if args.symbolic:
        payload.update(polynomial=str(value), total_degree=value.total_degree() if value else 0,
                       terms=len(value.terms))
    else:
        payload["value"] = format_scalar(value)
    head = f"D_mu for mu = {_mu_str(mu)}, n = {args.n}"
    _emit(args, out, payload, lambda: [
        f"{head} (symbolic)",
        f"matrix dimension: {payload['matrix_dim']}",
        f"stack count |S_p|: {payload['term_count']}",
        f"polynomial: {_truncate(payload['polynomial'], args.truncate_digits)}",
        f"total degree: {payload['total_degree']}",
        f"terms: {payload['terms']}",
    ] if args.symbolic else [head, f"value: {_truncate(payload['value'], args.truncate_digits)}"])
    return EXIT_OK


def cmd_yhz(args, out):
    mu = _parse_mu(args.mu, args.n)
    F = _parse_input_poly(args.eval, args.n) if args.eval else None
    check_chain(mu, symbolic=F is None)  # before the closed forms and generic F, costly at large n
    stated = 2 <= len(mu) <= args.n - 2  # where the closed-form degree holds
    payload = {
        "n": args.n,
        "mu": list(mu),
        "count": yhz_count(mu),
        "max_degree": yhz_degree(mu) if stated else None,
        "degree_lower_bound": yhz_degree_lower_bound(args.n, mu[1]) if stated else None,
    }
    if args.eval:
        cond = yhz_condition(F, mu)
        equations = [format_scalar(v) for v in cond.equations]
        inequation = format_scalar(cond.inequation)
        payload.update(mode="numeric", equation_values=equations, inequation_value=inequation,
                       satisfied=cond.is_satisfied())
        measured, verdict = [], [f"satisfied: {str(payload['satisfied']).lower()}"]
    else:
        cond = yhz_condition(generic_poly(args.n), mu)
        count, max_deg = measured_size(cond)
        equations = [str(v) for v in cond.equations]
        inequation = str(cond.inequation)
        payload.update(mode="symbolic", equations=equations, inequation=inequation,
                       measured_count=count, measured_max_degree=max_deg)
        measured, verdict = [f"measured count: {count}", f"measured max degree: {max_deg}"], []
    digits = args.truncate_digits
    _emit(args, out, payload, lambda: [
        f"repeated-subresultant condition for mu = {_mu_str(mu)}, n = {args.n}",
        f"closed-form count: {payload['count']}",
        # json.dumps prints an absent closed form as null, as the JSON output does
        f"closed-form max degree: {json.dumps(payload['max_degree'])}",
        f"degree lower bound: {json.dumps(payload['degree_lower_bound'])}",
        *measured,
        *(f"equation {i}: {_truncate(v, digits)}" for i, v in enumerate(equations)),
        f"inequation: {_truncate(inequation, digits)}",
        *verdict,
    ])
    return EXIT_OK


def _scaling_degree(at_r, at_2r):
    # a homogeneous P of degree d has P(2r) = 2^d P(r)
    ratio, rest = divmod(at_2r, at_r)
    if rest or ratio < 1 or ratio & (ratio - 1):
        raise RuntimeError(f"P(2r)/P(r) = {at_2r}/{at_r} is not a power of two")
    return ratio.bit_length() - 1


def _evaluated_size(n, mu):
    """(deg D_mu, yhz count, yhz max degree) measured by evaluation, or None.

    D_mu and every yhz equation and inequation are homogeneous in a_0..a_n:
    each is a determinant whose rows are homogeneous of one degree each.
    So at an integer point r with P(r) != 0, P(2r) = 2^d P(r): the nonzero
    value proves P is not identically zero, and the ratio gives its exact
    total degree d.  The numeric chain, read at formal degrees, is the
    symbolic chain specialised at r (see the yhz module), so it has the
    same equations.  a_0 > 0 keeps deg F = n.  A point where some value
    vanishes is retried with the next seed; None after five points.
    """
    for t in range(5):
        rng = random.Random(f"{n}:{mu}:{t}")
        r = [rng.randint(1, 10**6), *(rng.randint(-(10**6), 10**6) for _ in range(n))]
        at_r = _condition_values(Poly(r), mu)
        if all(at_r):
            at_2r = _condition_values(Poly([2 * c for c in r]), mu)
            degrees = [_scaling_degree(a, b) for a, b in zip(at_r, at_2r)]
            return degrees[0], len(degrees) - 1, max(degrees[1:])
    return None


def _condition_values(F, mu):
    cond = yhz_condition(F, mu)
    return [dmu(F, mu).value, *cond.equations, cond.inequation]


def _table_rows(n, measure):
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
            if measure:
                size = _evaluated_size(n, mu)
                measured = size or (None, None, None)
                row.update(zip(("measured_d_new", "measured_num_yhz", "measured_d_yhz"), measured))
                expected = (row["d_new"], row["num_yhz"], row["d_yhz"])
                row["match"] = str(size == expected).lower() if size else "degenerate"
            rows.append(row)
    return rows


def cmd_table(args, out):
    n = args.n
    if n < 1:
        raise MultdiscError(f"--n must be at least 1, got {n}")
    # degree k has p(k) - 3 rows for k >= 3, growing with k, so the first
    # k <= n over the cap refuses n at a bounded cost, however large n is
    for k in range(1, n + 1):
        if (count := sum(partition_count(k, m) for m in range(2, k - 1))) > CANDIDATE_CAP:
            more = "" if k == n else "more than "
            raise MultdiscError(f"table --n {n} has {more}{count} rows, over the cap of {CANDIDATE_CAP}")
    rows = _table_rows(n, args.measure)
    columns = ["n", "m", "mu", "num_new", "num_yhz", "d_new", "d_yhz"]
    if rows and "measured_d_new" in rows[0]:
        columns += ["measured_d_new", "measured_num_yhz", "measured_d_yhz", "match"]

    def render():
        if args.format == "csv":
            return [",".join(columns), *(",".join(_csv_cell(row.get(c)) for c in columns) for row in rows)]
        widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c) for c in columns}
        return [
            "  ".join(c.ljust(widths[c]) for c in columns),
            *("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns) for row in rows),
        ]

    _emit(args, out, rows, render)
    return EXIT_OK


def _csv_cell(value):
    if value is None:
        return ""
    text = str(value)
    return f'"{text}"' if "," in text else text


def cmd_verify(args, out):
    if args.trials < 1:
        raise MultdiscError(f"--trials must be at least 1, got {args.trials}")
    result = run_suite(args.suite, args.trials, args.seed)
    _emit(args, out, asdict(result), lambda: [
        f"suite {result.suite}: {result.passed}/{result.trials} trials passed",
        *(f"FAIL {failure}" for failure in result.failures),
    ])
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
    p.add_argument("--file", help="batch file, one polynomial per line, # comments; "
                   "stops at the first bad line, after printing the lines before it")

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
    p.add_argument("--measure", action="store_true", help="add columns measured by evaluation")

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
            raise MultdiscError(f"--truncate-digits must be at least 0, got {args.truncate_digits}")
        return COMMANDS[args.command](args, out)
    except Anomaly as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
