"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated budget and exactness requirements.

Run with: pytest tests/test_acceptance.py -v -s
"""

import contextlib
import hashlib
import io
import json
import random
import time

import pytest

from multdisc.cli import EXIT_OK, _evaluated_size, main
from multdisc.combinat import partitions
from multdisc.discriminant import classify_report, dmu, dmu_degree, psd_sequence
from multdisc.errors import Anomaly
from multdisc.oracle import RootSpec, dbar_mu, poly_from_roots, random_instance
from multdisc.subresultants import subresultant_det
from multdisc.suites import run_suite
from multdisc.sympoly import SymPoly
from multdisc.unipoly import generic_poly
from multdisc.yhz import measured_size, yhz_condition, yhz_count, yhz_degree

C1_PRIME = {
    (1, 6, 0, 0, 0): -1,
    (2, 4, 1, 0, 0): 8,
    (3, 2, 2, 0, 0): -16,
    (3, 3, 0, 1, 0): -16,
    (4, 1, 1, 1, 0): 64,
    (5, 0, 0, 2, 0): -64,
}

TABLE1_N8 = {
    (4, 4): (1, 7, 12, 81),
    (5, 3): (1, 8, 13, 81),
    (6, 2): (1, 11, 14, 63),
    (7, 1): (1, 16, 15, 33),
    (3, 3, 2): (1, 3, 14, 75),
    (4, 2, 2): (1, 4, 14, 75),
    (4, 3, 1): (1, 5, 15, 75),
    (5, 2, 1): (1, 7, 15, 75),
    (6, 1, 1): (1, 11, 15, 45),
    (2, 2, 2, 2): (1, 1, 14, 49),
    (3, 2, 2, 1): (1, 2, 15, 49),
    (3, 3, 1, 1): (1, 3, 15, 63),
    (4, 2, 1, 1): (1, 4, 15, 63),
    (2, 2, 2, 1, 1): (1, 1, 15, 45),
    (3, 2, 1, 1, 1): (1, 2, 15, 45),
    (4, 1, 1, 1, 1): (1, 4, 15, 45),
    (2, 2, 1, 1, 1, 1): (1, 1, 15, 33),
    (3, 1, 1, 1, 1, 1): (1, 2, 15, 33),
}

# sha256 over "<exit code>\n<stdout>" of `dmu --symbolic` then `yhz`, both
# --format json, for every partition mu of n = 1..6 in partitions(n, m) order
SYMBOLIC_STDOUT_SHA256 = "cdf546fc2ab2f939ad5cc98a9fd56b13ee57376af143c76e31508f88811cb6ed"

# sha256 over "<exit code>\n<stdout>" of `dmu --symbolic --format json` for
# every partition mu of n = 7, SYMBOLIC_CAP, in partitions(7, m) order
DMU_SYMBOLIC_N7_SHA256 = "0e6a0a46209692bf99018de323bcf6fb98e2b9fd09ddb0b304035c9d7bccc1c4"

# sha256 of the stdout of `table --n 7 --measure --format json`
TABLE_N7_JSON_SHA256 = "8ede7b506ba2fd77a935c9f5684b999ccabcbabbceb3be19129fcf2765da4321"

# sha256 of the stdout of `table --n 10 --measure --format json`
TABLE_N10_JSON_SHA256 = "4876a144e99ca49cde98a148143ca7b82d4144ce6e50bc48adc2ab5dc3b7a5c1"

ROUNDTRIP_TRIALS = 500
ROUNDTRIP_SEED = 20240811


def _report(name, elapsed, budget):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


@pytest.fixture(scope="module")
def roundtrip():
    """500 seeded instances, classified once; reused by criteria 4, 7, 8."""
    rng = random.Random(ROUNDTRIP_SEED)
    results = []
    start = time.perf_counter()
    for _ in range(ROUNDTRIP_TRIALS):
        n = rng.randint(4, 10)
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        report = classify_report(F)
        results.append((spec, F, report))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_symbolic_exactness():
    start = time.perf_counter()
    out = io.StringIO()
    code = main(["dmu", "--n", "4", "--mu", "3,1", "--symbolic", "--format", "json"], out=out)
    assert code == EXIT_OK
    payload = json.loads(out.getvalue())
    assert payload["terms"] == 6
    value = dmu(generic_poly(4), (3, 1)).value
    assert value == SymPoly(5, C1_PRIME)
    assert str(value) == payload["polynomial"]
    _report("1 symbolic C1' exactness", time.perf_counter() - start, 1.0)


def test_criterion_2_table_reproduction():
    start = time.perf_counter()
    out = io.StringIO()
    code = main(["table", "--n", "8", "--format", "csv"], out=out)
    assert code == EXIT_OK
    import csv as _csv

    emitted = {}
    rows = list(_csv.reader(io.StringIO(out.getvalue())))
    for row in rows[1:]:
        mu = tuple(int(x) for x in row[2].strip("[]").split(","))
        emitted[mu] = tuple(int(x) for x in row[3:7])
    for mu, expected in TABLE1_N8.items():
        assert emitted[mu] == expected, (mu, emitted[mu], expected)
    # nonvanishing witnessed at a root-constructed polynomial per partition,
    # with scaling homogeneity pinning the coefficient degree structurally
    rng = random.Random(88)
    for mu in emitted:
        roots = tuple(rng.sample(range(-9, 10), len(mu)))
        F = poly_from_roots(RootSpec(roots=roots, mults=mu, lead=1))
        value = dmu(F, mu).value
        assert value != 0
        s = rng.choice((2, 3, -2))
        assert dmu(F.scale(s), mu).value == s ** dmu_degree(8, mu) * value
    _report("2 table n=8 reproduction", time.perf_counter() - start, 60.0)


def test_criterion_3_symbolic_degree_audit():
    # the symbolic polynomials pin the sizes that table measures by evaluation
    start = time.perf_counter()
    degenerate = []
    for n in (4, 5, 6):
        F = generic_poly(n)
        for m in range(2, n - 1):
            for mu in partitions(n, m):
                value = dmu(F, mu).value
                assert value, (n, mu)
                assert value.is_homogeneous(), (n, mu)
                assert value.total_degree() == dmu_degree(n, mu), (n, mu)
                try:
                    cond = yhz_condition(F, mu)
                except Anomaly as exc:
                    degenerate.append((n, mu, str(exc)))
                    continue
                assert measured_size(cond) == (yhz_count(mu), yhz_degree(mu)), (n, mu)
                assert _evaluated_size(n, mu) == (value.total_degree(), *measured_size(cond)), (n, mu)
    if degenerate:
        print(f"ACCEPTANCE 3: degenerate chains reported: {degenerate}")
    assert not degenerate
    _report("3 symbolic degree audit n<=6", time.perf_counter() - start, 120.0)


def test_criterion_4_classification_roundtrip(roundtrip):
    results, elapsed = roundtrip
    assert len(results) == ROUNDTRIP_TRIALS
    mismatches = [
        (spec, report.multiplicity)
        for spec, _, report in results
        if report.multiplicity != spec.partition()
    ]
    assert not mismatches, mismatches[:5]
    _report("4 classification roundtrip 500", elapsed, 600.0)


def test_criterion_5_det_per_identity_suite():
    start = time.perf_counter()
    result = run_suite("lemma2", 200, 7)
    assert result.ok, result.failures[:5]
    assert result.trials == 201  # 200 random pairs + the symbolic instance
    _report("5 det/per identity suite", time.perf_counter() - start, 30.0)


def test_criterion_6_dp_ratio_suite():
    start = time.perf_counter()
    result = run_suite("lemma3", 100, 7)
    assert result.ok, result.failures[:5]
    assert result.trials == 101  # 100 random instances + the cubic anchor
    _report("6 dp ratio suite", time.perf_counter() - start, 30.0)


def test_criterion_7_root_side_consistency(roundtrip):
    start = time.perf_counter()
    results, _ = roundtrip
    anchor_spec = RootSpec(roots=(1, -2), mults=(3, 1), lead=1)
    anchor = poly_from_roots(anchor_spec)
    assert dmu(anchor, (3, 1)).value == -729
    assert dbar_mu(anchor, anchor_spec.flattened_roots(), (3, 1)) == -729
    checked = 0
    for spec, F, report in results:
        n = F.degree
        if n > 8 or not report.certificates:
            continue
        alphas = spec.flattened_roots()
        for nu, coeff_side in report.certificates:
            root_side = dbar_mu(F, alphas, nu)
            assert bool(root_side) == bool(coeff_side), (spec, nu)
            assert coeff_side == spec.lead ** (n - nu[-1]) * root_side, (spec, nu)
            assert coeff_side == dmu(F, nu).value, (spec, nu)
            checked += 1
    assert checked > 200
    print(f"ACCEPTANCE 7: classify's certificate = dmu = lead^(n-mu_m)*dbar held on {checked} candidate pairs")
    _report("7 root-side consistency", time.perf_counter() - start, 600.0)


def test_criterion_8_specialisations(roundtrip):
    start = time.perf_counter()
    rng = random.Random(4242)
    done = 0
    while done < 50:
        n = rng.randint(2, 6)
        roots = tuple(rng.sample(range(-10, 11), n))
        F = poly_from_roots(RootSpec(roots=roots, mults=(1,) * n, lead=rng.choice((1, 2, -1, 3))))
        lhs = dmu(F, (1,) * n).value
        rhs = subresultant_det(F, F.derivative(), 0).coeff(0)
        assert abs(lhs) == abs(rhs), (roots, lhs, rhs)
        done += 1
    results, _ = roundtrip
    for spec, F, report in results:
        # the distinct-root count of the principal subresultant coefficients
        assert psd_sequence(F).ndr == len(report.multiplicity) == len(spec.roots), spec
    _report("8 discriminant specialisations", time.perf_counter() - start, 600.0)


def test_criterion_9_measured_comparison_n7():
    # the paper's size comparison, measured by evaluation at n = 7..10
    start = time.perf_counter()
    for n, row_count in ((7, 12), (8, 19), (9, 27), (10, 39)):
        out = io.StringIO()
        argv = ["table", "--n", str(n), "--measure", "--format", "json"]
        assert main(argv, out=out) == EXIT_OK
        if n in (7, 10):
            pin = TABLE_N7_JSON_SHA256 if n == 7 else TABLE_N10_JSON_SHA256
            assert hashlib.sha256(out.getvalue().encode()).hexdigest() == pin, n
        rows = json.loads(out.getvalue())
        assert len(rows) == row_count
        for row in rows:
            assert row["match"] == "true", row
            assert row["num_new"] <= row["num_yhz"] and row["d_new"] < row["d_yhz"], row
    _report("9 measured comparison n=7..10", time.perf_counter() - start, 120.0)


def test_symbolic_stdout_is_pinned():
    # byte-identity of SymPoly printing and of both symbolic kernels
    start = time.perf_counter()
    digest = hashlib.sha256()
    for n in range(1, 7):
        for m in range(1, n + 1):
            for mu in partitions(n, m):
                for extra in (["dmu", "--symbolic"], ["yhz"]):
                    argv = extra[:1] + ["--n", str(n), "--mu", ",".join(map(str, mu)), "--format", "json"] + extra[1:]
                    out = io.StringIO()
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = main(argv, out=out)
                    digest.update(f"{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == SYMBOLIC_STDOUT_SHA256
    _report("symbolic stdout pin n<=6", time.perf_counter() - start, 30.0)


def test_symbolic_dmu_n7_is_pinned():
    start = time.perf_counter()
    digest = hashlib.sha256()
    for m in range(1, 8):
        for mu in partitions(7, m):
            argv = ["dmu", "--n", "7", "--mu", ",".join(map(str, mu)), "--format", "json", "--symbolic"]
            out = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv, out=out)
            digest.update(f"{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == DMU_SYMBOLIC_N7_SHA256
    _report("symbolic dmu pin n=7", time.perf_counter() - start, 30.0)
