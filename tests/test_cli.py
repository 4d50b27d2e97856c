import contextlib
import hashlib
import io
import json
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import multdisc.discriminant as disc
import multdisc.cli as cli
import multdisc.suites as suites
import multdisc.yhz as yhz
from multdisc.cli import EXIT_ANOMALY, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, build_parser, main
from multdisc.combinat import partitions
from multdisc.errors import NonExactDivision
from multdisc.oracle import RootSpec, poly_from_roots, random_factored, random_instance
from multdisc.scalars import format_scalar, normalize_scalar
from multdisc.suites import SUITES
from multdisc.unipoly import Poly


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


_real_certify = disc._certify


def _wrong_count(F, g, m):
    # a distinct-root count one above Yun's part count
    return _real_certify(F, g, m + 1)


def test_classify_json_schema():
    code, text = run(["classify", "--coeffs", "1,-1,-3,5,-2", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload == {
        "degree": 4,
        "ndr": 2,
        "multiplicity": [3, 1],
        "certificates": [
            {"mu": [3, 1], "value": "-729"},
            {"mu": [2, 2], "value": "0"},
        ],
    }


def test_classify_text():
    code, text = run(["classify", "--coeffs", "1,0,-2,0,1"])
    assert code == EXIT_OK
    assert "multiplicity: [2,2]" in text
    assert "certificate D[2,2] = 256" in text


def test_classify_certificate_beyond_int_str_limit():
    # roots of about 900 and 600 digits: every coefficient parses, but the
    # winning certificate has more digits than str(int) will convert
    F = poly_from_roots(RootSpec((7 * 10**899 + 1, -(3 * 10**599 + 2)), (3, 1), 1))
    code, text = run(["classify", "--coeffs", ",".join(map(format_scalar, F.coeffs)), "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["multiplicity"] == [3, 1]
    printed = payload["certificates"][0]["value"]
    assert len(printed) > sys.get_int_max_str_digits()
    assert Decimal(printed) == Decimal(disc.dmu(F, (3, 1)).value)


def test_classify_degree_14():
    # five distinct roots: every 5-part partition of 14 is a candidate
    F = poly_from_roots(RootSpec((2, -1, 3, 0, -3), (5, 3, 3, 2, 1), 1))
    code, text = run(["classify", "--coeffs", ",".join(map(format_scalar, F.coeffs)), "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["degree"] == 14 and payload["ndr"] == 5
    assert payload["multiplicity"] == [5, 3, 3, 2, 1]
    nonzero = [c for c in payload["certificates"] if c["value"] != "0"]
    assert [c["mu"] for c in nonzero] == [[5, 3, 3, 2, 1]]
    # the closed-form certificate is the Newton kernel's D_mu
    assert nonzero[0]["value"] == format_scalar(disc.dmu(F, (5, 3, 3, 2, 1)).value)


def test_classify_leading_zero():
    code, _ = run(["classify", "--coeffs", "0,1,2"])
    assert code == EXIT_USAGE


def test_classify_empty_field():
    # an empty field is an error, not a dropped coefficient
    for coeffs in ("1,,-1", "1,-2,1,"):
        code, text = run(["classify", "--coeffs", coeffs])
        assert code == EXIT_USAGE
        assert text == ""


def test_classify_constant(tmp_path, capsys):
    # the error names the input's problem, not an internal step
    assert run(["classify", "--coeffs", "7"]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: cannot classify a constant: it has no roots\n"
    batch = tmp_path / "batch.txt"
    batch.write_text("1,0,-1\n7\n")
    code, text = run(["classify", "--file", str(batch)])
    assert code == EXIT_USAGE
    assert text == "1,0,-1 => degree 2, ndr 2, multiplicity [1,1]\n"
    assert capsys.readouterr().err == "error: line 2: cannot classify a constant: it has no roots\n"


def test_classify_over_limit_coefficient(capsys):
    # the field is named by its digit count and a short prefix, not echoed in full
    limit = sys.get_int_max_str_digits()
    for field in ("7" * (limit + 1), "1/" + "7" * (limit + 1)):
        assert run(["classify", "--coeffs", "1," + field]) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: a coefficient of {limit + 1} digits is over the {limit}-digit limit: ")
        assert len(err) < 120


def test_classify_long_malformed_field(capsys):
    # a malformed field is quoted by a 20-character prefix and its length
    assert run(["classify", "--coeffs", "1," + "x" * 5000]) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert err == "error: not an exact scalar: 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)\n"
    assert len(err.encode()) < 120


def test_classify_requires_one_source(tmp_path):
    code, _ = run(["classify"])
    assert code == EXIT_USAGE
    batch = tmp_path / "batch.txt"
    batch.write_text("1,2,1\n")
    code, _ = run(["classify", "--coeffs", "1,2,1", "--file", str(batch)])
    assert code == EXIT_USAGE


def test_classify_batch_file(tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "# squarefree quadratic\n"
        "1,0,-1\n"
        "\n"
        "1,-1,-3,5,-2\n"
    )
    code, text = run(["classify", "--file", str(batch), "--format", "json"])
    assert code == EXIT_OK
    lines = [json.loads(line) for line in text.splitlines()]
    assert len(lines) == 2
    assert lines[0]["multiplicity"] == [1, 1]
    assert lines[1]["multiplicity"] == [3, 1]
    code, text = run(["classify", "--file", str(batch)])
    assert code == EXIT_OK
    assert len(text.splitlines()) == 2  # one report per line


def test_classify_file_names_the_bad_line(tmp_path, monkeypatch, capsys):
    # the batch stops at its first bad line, after printing the lines before it
    batch = tmp_path / "batch.txt"
    batch.write_text("1,-2,1\n# c\n0,1\n1,0,-1\n")
    code, text = run(["classify", "--file", str(batch)])
    assert code == EXIT_USAGE
    assert text == "1,-2,1 => degree 2, ndr 1, multiplicity [2]\n"
    assert capsys.readouterr().err == "error: line 3: leading coefficient is zero: '0,1'\n"
    # --coeffs has no line to name
    assert run(["classify", "--coeffs", "0,1"]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: leading coefficient is zero: '0,1'\n"
    # the prefixed error keeps its type, so an anomaly still exits 2
    monkeypatch.setattr(disc, "_certify", _wrong_count)
    batch.write_text("\n1,0,-6,4,9,-12,4\n")  # (x - 1)^4 (x + 2)^2
    code, text = run(["classify", "--file", str(batch), "--format", "json"])
    assert code == EXIT_ANOMALY and text == ""
    assert capsys.readouterr().err.startswith("anomaly: line 2: gcd(F, F') leaves 3 distinct roots")


def test_classify_file_names_an_undecodable_line(tmp_path, capsys):
    # each line is decoded as it is read: the reports of lines 1-2 come
    # first, and the decoding error names line 3
    batch = tmp_path / "batch.txt"
    batch.write_bytes(b"1,-3,2\n1,2,1\n\xff\xfe,1\n1,0,-1\n")
    code, text = run(["classify", "--file", str(batch)])
    assert code == EXIT_USAGE
    assert text == ("1,-3,2 => degree 2, ndr 2, multiplicity [1,1]\n"
                    "1,2,1 => degree 2, ndr 1, multiplicity [2]\n")
    assert capsys.readouterr().err == (
        "error: line 3: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")


# sha256 over "<exit code>\n<stdout>" of `classify --file` on _pin_batch(),
# text then json
CLASSIFY_FILE_STDOUT_SHA256 = "ee9a3cbf816310cf3758c9d9fdec55d6700b55a5da7178db5dc7833834a2fd0a"


def _pin_batch():
    """Seeded classify inputs: integer roots, then products of linear and
    irreducible quadratic factors, every third one divided by a random
    denominator, and one input whose certificate passes the int str limit."""
    rng = random.Random(1307)
    lines = []
    for i in range(48):
        n = rng.randint(4, 10)
        if i % 2:
            F, _ = random_factored(rng.randrange(2**32), n, rng.randint(1, 3))
        else:
            F = poly_from_roots(random_instance(rng.randrange(2**32), n, rng.randint(1, n)))
        if i % 3 == 2:
            den = rng.randint(2, 10**6)
            F = Poly([normalize_scalar(Fraction(c, den)) for c in F.coeffs])
        lines.append(",".join(map(format_scalar, F.coeffs)))
    F = poly_from_roots(RootSpec((7 * 10**899 + 1, -(3 * 10**599 + 2)), (3, 1), 1))
    lines.append(",".join(map(format_scalar, F.coeffs)))
    return lines


def test_classify_file_stdout_is_pinned(tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(_pin_batch()) + "\n")
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        code, text = run(["classify", "--file", str(batch), "--format", fmt])
        digest.update(f"{code}\n{text}".encode())
    assert digest.hexdigest() == CLASSIFY_FILE_STDOUT_SHA256


def test_classify_takes_no_psd_sequence(tmp_path, monkeypatch):
    # classify reads m off its own gcd; psd_sequence is the independent route
    monkeypatch.setattr(disc, "psd_sequence", _raises(RuntimeError("psd_sequence was called")))
    lines = _pin_batch()
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(lines) + "\n")
    code, text = run(["classify", "--file", str(batch)])
    assert code == EXIT_OK and len(text.splitlines()) == len(lines)


def test_dmu_symbolic_output():
    code, text = run(["dmu", "--n", "4", "--mu", "3,1", "--symbolic"])
    assert code == EXIT_OK
    assert "terms: 6" in text
    assert "total degree: 7" in text
    code, text = run(["dmu", "--n", "4", "--mu", "3,1", "--symbolic", "--format", "json"])
    payload = json.loads(text)
    assert payload["terms"] == 6 and payload["total_degree"] == 7
    assert payload["term_count"] == 4 and payload["matrix_dim"] == 7


def test_dmu_eval():
    code, text = run(["dmu", "--n", "4", "--mu", "3,1", "--eval", "1,0,-2,0,1", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(text)["value"] == "0"


# sha256 over "<exit code>\n<stdout>" of `dmu --eval --format json` on one
# seeded 3-digit input per n, for every partition of n = 9..12: the Newton
# kernel past the n <= 8 of the cross-check against wedge_dp
DMU_EVAL_N9_12_SHA256 = "62325f70e6a37347bcf1da87a91e049a20ab82f57b36fd688f4b6c952fc36062"


def test_dmu_eval_n9_to_12_is_pinned():
    rng = random.Random(912)
    digest = hashlib.sha256()
    for n in range(9, 13):
        coeffs = ",".join(str(rng.choice((1, -1)) * rng.randint(100, 999)) for _ in range(n + 1))
        for m in range(1, n + 1):
            for mu in partitions(n, m):
                code, text = run(["dmu", "--n", str(n), "--mu", ",".join(map(str, mu)), f"--eval={coeffs}", "--format", "json"])
                assert code == EXIT_OK
                digest.update(f"{code}\n{text}".encode())
    assert digest.hexdigest() == DMU_EVAL_N9_12_SHA256


def test_dmu_eval_over_the_newton_cap(monkeypatch, capsys):
    coeffs = ",".join(["1"] + ["0"] * 21 + ["-1"])
    code, text = run(["dmu", "--n", "22", "--mu", "6,5,4,3,2,1,1", "--eval", coeffs])
    assert code == EXIT_USAGE and text == ""
    assert capsys.readouterr().err == (
        "error: dmu of (6, 5, 4, 3, 2, 1, 1) needs prod_v (c_v + 1) n^3 = 80498880, over the cap of 50000000\n")
    # 1^180 has few convolution terms but is over the work cap, refused before any arithmetic
    monkeypatch.setattr(disc, "_scaled_columns", None)
    coeffs = ",".join(["1"] + ["0"] * 179 + ["-1"])
    code, text = run(["dmu", "--n", "180", "--mu", ",".join(["1"] * 180), "--eval", coeffs])
    assert code == EXIT_USAGE and text == ""
    assert capsys.readouterr().err.endswith("needs prod_v (c_v + 1) n^3 = 1055592000, over the cap of 50000000\n")


def test_dmu_bad_partition():
    code, _ = run(["dmu", "--n", "4", "--mu", "5,1", "--symbolic"])
    assert code == EXIT_USAGE
    code, _ = run(["dmu", "--n", "4", "--mu", "3,1"])
    assert code == EXIT_USAGE  # neither --symbolic nor --eval


def test_dmu_cap(capsys):
    # the symbolic cap is the constant SYMBOLIC_CAP = 7, not an option
    for command in (["dmu", "--n", "8", "--mu", "7,1", "--symbolic"], ["yhz", "--n", "8", "--mu", "7,1"]):
        code, text = run(command)
        assert code == EXIT_USAGE and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: symbolic ") and err.endswith("capped at degree 7\n")
    code, _ = run(["dmu", "--n", "7", "--mu", "6,1", "--symbolic"])
    assert code == EXIT_OK
    code, _ = run(["yhz", "--n", "7", "--mu", "6,1"])
    assert code == EXIT_OK
    for command in (["dmu", "--n", "7", "--mu", "6,1", "--symbolic"], ["yhz", "--n", "4", "--mu", "3,1"]):
        code, text = run(command + ["--symbolic-cap", "7"])
        assert code == EXIT_USAGE and text == ""


def test_yhz_symbolic_and_eval(monkeypatch, capsys):
    code, text = run(["yhz", "--n", "4", "--mu", "3,1", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["count"] == 2 and payload["max_degree"] == 9
    assert payload["measured_count"] == 2 and payload["measured_max_degree"] == 9
    code, text = run(["yhz", "--n", "4", "--mu", "3,1", "--eval", "1,-1,-3,5,-2", "--format", "json"])
    payload = json.loads(text)
    assert payload["satisfied"] is True
    assert payload["equation_values"] == ["0"]
    code, text = run(["yhz", "--n", "4", "--mu", "2,2", "--eval", "1,-1,-3,5,-2", "--format", "json"])
    assert json.loads(text)["satisfied"] is False
    # m = n - 1: the closed forms are not stated there
    code, text = run(["yhz", "--n", "5", "--mu", "2,1,1,1", "--format", "json"])
    payload = json.loads(text)
    assert payload["max_degree"] is None and payload["degree_lower_bound"] is None
    assert payload["measured_max_degree"] == 7
    # the text output prints the same null token
    code, text = run(["yhz", "--n", "5", "--mu", "2,1,1,1"])
    assert code == EXIT_OK
    assert "closed-form max degree: null\n" in text
    assert "degree lower bound: null\n" in text
    # numeric (12, 12) is over the chain work cap, refused before the chain
    monkeypatch.setattr(yhz, "_steps", None)
    code, text = run(["yhz", "--n", "24", "--mu", "12,12", "--eval", ",".join(["1"] + ["0"] * 23 + ["-1"])])
    assert code == EXIT_USAGE and text == ""
    assert capsys.readouterr().err == (
        "error: yhz of (12, 12) needs chain work n^6 D = 101559956668416, over the cap of 20084909853888\n")
    # so is numeric (79, 1), though its closed-form degree is only 465
    code, text = run(["yhz", "--n", "80", "--mu", "79,1", "--eval", ",".join(["1"] + ["0"] * 79 + ["-1"])])
    assert code == EXIT_USAGE and text == ""
    assert capsys.readouterr().err.startswith("error: yhz of (79, 1) needs chain work n^6 D = ")


def test_table_n8_has_every_partition_row():
    code, text = run(["table", "--n", "8", "--format", "csv"])
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0] == "n,m,mu,num_new,num_yhz,d_new,d_yhz"
    assert len(lines) - 1 == 19  # every partition with 2 <= m <= 6
    assert '8,2,"[4,4]",1,7,12,81' in lines
    assert '8,6,"[3,1,1,1,1,1]",1,2,15,33' in lines


def test_table_n3_empty():
    code, text = run(["table", "--n", "3", "--format", "csv"])
    assert code == EXIT_OK
    assert text.strip() == "n,m,mu,num_new,num_yhz,d_new,d_yhz"


def test_table_row_cap(monkeypatch, capsys):
    # p(50) - 3 = 204,223 rows are counted, not listed, and refused; so is
    # any larger n, and a degree below 1
    def unlisted(n, m):
        raise AssertionError("partitions listed")

    monkeypatch.setattr(cli, "partitions", unlisted)
    assert run(["table", "--n", "50"]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: table --n 50 has 204223 rows, over the cap of 200000\n"
    assert run(["table", "--n", "1000000000", "--format", "json"]) == (EXIT_USAGE, "")
    assert "more than 204223 rows" in capsys.readouterr().err
    for n in ("0", "-3"):
        assert run(["table", "--n", n]) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: --n must be at least 1, got {n}\n"


def test_table_n4():
    code, text = run(["table", "--n", "4", "--format", "csv"])
    lines = text.strip().splitlines()
    assert lines[1:] == ['4,2,"[2,2]",1,1,6,9', '4,2,"[3,1]",1,2,7,9']


def test_table_measured():
    code, text = run(["table", "--n", "4", "--measure", "--format", "csv"])
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0].endswith("measured_d_new,measured_num_yhz,measured_d_yhz,match")
    assert all(line.endswith("true") for line in lines[1:])
    code, text = run(["table", "--n", "8", "--measure", "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads(text)
    assert len(rows) == 19 and all(row["match"] == "true" for row in rows)


def test_table_measures_only_when_asked():
    # --measure is a switch; the removed threshold is an unknown option
    for value in ("5", "0", "-1"):
        assert run(["table", "--n", "5", "--measure-upto", value]) == (EXIT_USAGE, "")
    code, text = run(["table", "--n", "5", "--format", "csv"])
    assert code == EXIT_OK and "measured_d_new" not in text


def test_table_measured_degenerate_point(monkeypatch):
    # D_mu vanishes at every point tried: the row reads degenerate
    monkeypatch.setattr(cli, "dmu", lambda F, mu, **kw: disc.DmuResult(0, 1))
    code, text = run(["table", "--n", "4", "--measure", "--format", "json"])
    assert code == EXIT_OK
    for row in json.loads(text):
        assert row["match"] == "degenerate"
        assert row["measured_d_new"] is row["measured_num_yhz"] is row["measured_d_yhz"] is None


def test_table_measured_ratio_not_power_of_two(monkeypatch, capsys):
    # D_mu(2r) = 3 D_mu(r) is no homogeneous degree: an internal error
    values = iter([1, 3])
    monkeypatch.setattr(cli, "dmu", lambda F, mu, **kw: disc.DmuResult(next(values), 1))
    code, text = run(["table", "--n", "4", "--measure"])
    assert code == EXIT_INTERNAL
    assert text == ""
    assert "is not a power of two" in capsys.readouterr().err


def test_verify_pass_and_unknown():
    code, text = run(["verify", "--suite", "lemma2", "--trials", "5", "--seed", "7"])
    assert code == EXIT_OK
    assert "6/6 trials passed" in text  # 5 random + the symbolic anchor
    code, _ = run(["verify", "--suite", "nosuch"])
    assert code == EXIT_USAGE
    # options a subcommand does not use are unknown to it
    code, _ = run(["classify", "--coeffs", "1,-1,-3,5,-2", "--symbolic-cap", "3"])
    assert code == EXIT_USAGE
    code, _ = run(["table", "--n", "4", "--symbolic-cap", "7"])
    assert code == EXIT_USAGE
    code, _ = run(["table", "--n", "4", "--truncate-digits", "1"])
    assert code == EXIT_USAGE


def test_verify_rejects_trials_below_one():
    for trials in ("0", "-3"):
        code, text = run(["verify", "--suite", "lemma2", "--trials", trials])
        assert code == EXIT_USAGE
        assert text == ""


def test_verify_json():
    code, text = run(["verify", "--suite", "lemma3", "--trials", "3", "--seed", "1", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["passed"] == payload["trials"] == 4
    assert payload["failures"] == []


def test_verify_failure_lines(monkeypatch):
    # a failed anchor and failed trials: text names each, and the exit code is 2
    monkeypatch.setattr(suites, "check_det_per_identity", lambda A, B: False)
    code, text = run(["verify", "--suite", "lemma2", "--trials", "2"])
    assert code == EXIT_ANOMALY
    lines = text.splitlines()
    assert lines[:2] == ["suite lemma2: 0/3 trials passed", "FAIL symbolic 2x2 instance failed"]
    assert len(lines) == 4
    for k, line in enumerate(lines[2:]):
        assert re.fullmatch(rf"FAIL trial {k}: size [1-5], A=\[\[.*\]\], B=\[\[.*\]\]", line), line


def test_verify_failing_trial_json(monkeypatch):
    # one failing trial of a suite without an anchor
    real, calls = suites.classify, []

    def wrong_once(F):
        calls.append(F)
        return () if len(calls) == 2 else real(F)

    monkeypatch.setattr(suites, "classify", wrong_once)
    code, text = run(["verify", "--suite", "roundtrip", "--trials", "3", "--format", "json"])
    assert code == EXIT_ANOMALY
    payload = json.loads(text)
    assert {k: payload[k] for k in ("suite", "trials", "passed")} == {
        "suite": "roundtrip", "trials": 3, "passed": 2,
    }
    [failure] = payload["failures"]
    assert failure.startswith("trial 1: spec=RootSpec(") and failure.endswith(", classified ()")


def test_truncate_digits():
    code, text = run([
        "classify", "--coeffs", "1,-1,-3,5,-2", "--truncate-digits", "2",
    ])
    assert code == EXIT_OK
    assert "certificate D[3,1] = -...(2 digits)...9" in text
    # JSON keeps full values regardless
    code, text = run([
        "classify", "--coeffs", "1,-1,-3,5,-2", "--truncate-digits", "2", "--format", "json",
    ])
    assert json.loads(text)["certificates"][0]["value"] == "-729"


def test_ambiguity_maps_to_anomaly_exit(monkeypatch, capsys):
    F42 = "1,0,-6,4,9,-12,4"  # (x - 1)^4 (x + 2)^2
    # gcd(F, F') and Yun disagree on the number of distinct roots
    monkeypatch.setattr(disc, "_certify", _wrong_count)
    code, text = run(["classify", "--coeffs", F42])
    assert code == EXIT_ANOMALY and text == ""
    assert capsys.readouterr().err.startswith("anomaly: gcd(F, F') leaves 3 distinct roots")
    # the certificate of the structure Yun finds is 0
    monkeypatch.setattr(disc, "_certify", _real_certify)
    monkeypatch.setattr(disc, "pseudo_rem", lambda P, Q: disc.Poly())
    code, text = run(["classify", "--coeffs", F42])
    assert code == EXIT_ANOMALY and text == ""
    assert capsys.readouterr().err.startswith("anomaly: the certificate of (4, 2) is 0")


def test_verify_certificates_suite():
    code, text = run(["verify", "--suite", "certificates", "--trials", "6", "--seed", "3"])
    assert code == EXIT_OK
    assert text == "suite certificates: 6/6 trials passed\n"



def test_negative_truncate_digits_rejected():
    for argv in (
        ["dmu", "--n", "2", "--mu", "1,1", "--symbolic"],
        ["classify", "--coeffs", "1,-1,-3,5,-2"],
        ["yhz", "--n", "4", "--mu", "3,1"],
    ):
        code, text = run(argv + ["--truncate-digits", "-3"])
        assert code == EXIT_USAGE
        assert text == ""
    code, _ = run(["dmu", "--n", "2", "--mu", "1,1", "--symbolic", "--truncate-digits", "0"])
    assert code == EXIT_OK


def test_one_parser_serves_every_call():
    calls = [
        ["dmu", "--n", "3", "--mu", "2,1", "--symbolic", "--bogus"],
        ["classify", "--coeffs", "1,-1,-3,5,-2"],
        ["dmu", "--n", "3", "--mu", "2,1", "--symbolic", "--format", "json"],
        ["yhz", "--n", "4", "--mu", "3,1"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert fresh[0][0] == EXIT_USAGE and all(code == EXIT_OK for code, _ in fresh[1:])
    parser = build_parser()
    assert [run(argv) for argv in calls] == fresh
    assert build_parser() is parser


# sha256 over "<exit code>\n<stdout>" of every command in _text_pin_commands(),
# in order: the text renderings the JSON pins do not reach
TEXT_STDOUT_SHA256 = "32644feda55111b4357fd3b7bb8c394ed55e1f754fb33f7d4740539f79622df8"

_EVAL_INPUTS = {
    4: "1,-1,-3,5,-2",
    5: "3,-7/2,0,12,-5,1/3",
    6: "1,0,-6,4,9,-12,4",
}


def _text_pin_commands():
    commands = []
    for fmt in ("text", "json"):
        for digits in ([], ["--truncate-digits", "6"]):
            tail = ["--format", fmt] + digits
            for n in range(1, 7):
                for m in range(1, n + 1):
                    for mu in partitions(n, m):
                        mu_arg = ["--n", str(n), "--mu", ",".join(map(str, mu))]
                        if fmt == "text":  # the JSON pin covers symbolic json
                            commands.append(["dmu", *mu_arg, "--symbolic", *tail])
                            commands.append(["yhz", *mu_arg, *tail])
                        if n in _EVAL_INPUTS:
                            commands.append(["dmu", *mu_arg, "--eval", _EVAL_INPUTS[n], *tail])
                            commands.append(["yhz", *mu_arg, "--eval", _EVAL_INPUTS[n], *tail])
            for coeffs in ("1,-1,-3,5,-2", "1,0,-2,0,1", "2,-3/2,1/4", "1,0,-1", "0,1", "1,,2"):
                commands.append(["classify", "--coeffs", coeffs, *tail])
        for suite in sorted(SUITES):
            commands.append(["verify", "--suite", suite, "--trials", "2", "--seed", "3", "--format", fmt])
    commands.append(["verify", "--suite", "nosuch", "--trials", "2"])
    commands.append(["dmu", "--n", "4", "--mu", "3,1", "--eval", "1,2,3"])
    return commands


def test_text_stdout_is_pinned():
    digest = hashlib.sha256()
    for argv in _text_pin_commands():
        with contextlib.redirect_stderr(io.StringIO()):
            code, text = run(argv)
        digest.update(f"{code}\n{text}".encode())
    assert digest.hexdigest() == TEXT_STDOUT_SHA256


def _raises(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


def _zero_steps(G, p, ks):
    return [Poly()] * len(ks)

# one row per route from the command line to an exception class: the
# command, an optional (module, name, replacement) patch, the exit code
# and the first stderr line
ERROR_CONTRACT = [
    (["classify", "--coeffs", "1,,-1"], None, EXIT_USAGE, "error: not an exact scalar: ''"),
    (["classify", "--coeffs", "1,x"], None, EXIT_USAGE, "error: not an exact scalar: 'x'"),
    (["classify", "--coeffs", "0,1,2"], None, EXIT_USAGE, "error: leading coefficient is zero: '0,1,2'"),
    (["classify", "--coeffs", "7"], None, EXIT_USAGE, "error: cannot classify a constant: it has no roots"),
    (["classify"], None, EXIT_USAGE, "error: exactly one of --coeffs or --file is required"),
    (["classify", "--file", "no/such/batch.txt"], None, EXIT_USAGE,
     "error: [Errno 2] No such file or directory: 'no/such/batch.txt'"),
    (["classify", "--coeffs", "1,2,1", "--truncate-digits", "-1"], None, EXIT_USAGE,
     "error: --truncate-digits must be at least 0, got -1"),
    (["dmu", "--n", "4", "--mu", "5,1", "--symbolic"], None, EXIT_USAGE, "error: [5,1] does not partition n = 4"),
    (["dmu", "--n", "4", "--mu", "1,3", "--symbolic"], None, EXIT_USAGE,
     "error: bad partition '1,3': not a partition (positive, non-increasing): (1, 3)"),
    (["dmu", "--n", "4", "--mu", "3,1"], None, EXIT_USAGE, "error: exactly one of --symbolic or --eval is required"),
    (["dmu", "--n", "8", "--mu", "7,1", "--symbolic"], None, EXIT_USAGE, "error: symbolic dmu capped at degree 7"),
    # the symbolic caps refuse before the generic F, quadratic in n, is built
    (["dmu", "--n", "1000000", "--mu", "1000000", "--symbolic"], (cli, "generic_poly", _raises(RuntimeError("built"))),
     EXIT_USAGE, "error: symbolic dmu capped at degree 7"),
    (["dmu", "--n", "4", "--mu", "3,1", "--eval", "1,2,3"], None, EXIT_USAGE,
     "error: --eval polynomial has degree 2, expected 4"),
    (["dmu", "--n", "22", "--mu", "6,5,4,3,2,1,1", "--eval", ",".join(["1"] + ["0"] * 21 + ["-1"])],
     (disc, "_scaled_columns", None), EXIT_USAGE,
     "error: dmu of (6, 5, 4, 3, 2, 1, 1) needs prod_v (c_v + 1) n^3 = 80498880, over the cap of 50000000"),
    # n! of the stack count is not taken before the cap
    (["dmu", "--n", "300000", "--mu", "299999,1", "--eval", ",".join(["1"] + ["0"] * 299999 + ["-1"])],
     (disc, "permutation_count", _raises(RuntimeError("counted"))), EXIT_USAGE,
     "error: dmu of (299999, 1) needs prod_v (c_v + 1) n^3 = 16200000000000000000000, over the cap of 50000000"),
    (["yhz", "--n", "8", "--mu", "7,1"], None, EXIT_USAGE, "error: symbolic chain capped at degree 7"),
    (["yhz", "--n", "1000000", "--mu", "999999,1"], (cli, "generic_poly", _raises(RuntimeError("built"))),
     EXIT_USAGE, "error: symbolic chain capped at degree 7"),
    # and before the closed forms: 3^500000 alone takes seconds
    (["yhz", "--n", "1000000", "--mu", "500000,500000"], (cli, "yhz_degree", _raises(RuntimeError("closed form"))),
     EXIT_USAGE, "error: symbolic chain capped at degree 7"),
    (["yhz", "--n", "4", "--mu", "1,1,1,1"], None, EXIT_USAGE, "error: the chain is undefined for mu_1 < 2"),
    # over the symbolic cap too, mu_1 < 2 is named first
    (["yhz", "--n", "8", "--mu", "1,1,1,1,1,1,1,1"], None, EXIT_USAGE, "error: the chain is undefined for mu_1 < 2"),
    (["yhz", "--n", "24", "--mu", "12,12", "--eval", ",".join(["1"] + ["0"] * 23 + ["-1"])],
     (yhz, "_steps", None), EXIT_USAGE,
     "error: yhz of (12, 12) needs chain work n^6 D = 101559956668416, over the cap of 20084909853888"),
    (["table", "--n", "50"], None, EXIT_USAGE, "error: table --n 50 has 204223 rows, over the cap of 200000"),
    (["table", "--n", "0"], None, EXIT_USAGE, "error: --n must be at least 1, got 0"),
    (["verify", "--suite", "nope"], None, EXIT_USAGE,
     "error: unknown suite 'nope'; choose from certificates, lemma1, lemma2, lemma3, roundtrip, scaling, yhz-agree"),
    (["verify", "--suite", "lemma2", "--trials", "0"], None, EXIT_USAGE, "error: --trials must be at least 1, got 0"),
    (["classify", "--coeffs", "1,0,-6,4,9,-12,4"], (disc, "_certify", _wrong_count), EXIT_ANOMALY,
     "anomaly: gcd(F, F') leaves 3 distinct roots, Yun's decomposition 2: (4, 2)"),
    # a chain gcd above the degree of its image mod GCD_PRIME
    (["classify", "--coeffs", "1,-1,-3,5,-2"], (disc, "_gcd", lambda P, Q: P), EXIT_ANOMALY,
     "anomaly: gcd(F, F') has degree 4, above the degree 2 of its image mod 2147483647"),
    (["yhz", "--n", "4", "--mu", "3,1"], (yhz, "_steps", _zero_steps), EXIT_ANOMALY,
     "anomaly: G_1 vanishes identically for mu=(3, 1)"),
    # a non-exact division is reached only by a broken step, never by input
    (["classify", "--coeffs", "1,-1,-3,5,-2"],
     (disc, "poly_div", _raises(NonExactDivision("polynomial division left a remainder"))), EXIT_INTERNAL,
     "internal error: polynomial division left a remainder"),
    # in a batch, every error names its line and keeps its exit code
    (["classify", "--file", "batch.txt"],
     (disc, "poly_div", _raises(NonExactDivision("polynomial division left a remainder"))), EXIT_INTERNAL,
     "internal error: line 2: polynomial division left a remainder"),
    (["table", "--n", "5", "--measure"], (cli, "dmu", _raises(RuntimeError("kernel bug"))), EXIT_INTERNAL,
     "internal error: kernel bug"),
]


def test_error_contract(tmp_path, monkeypatch, capsys):
    # every failure leaves stdout empty and names itself on stderr's first line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "batch.txt").write_text("# a comment, then (x - 1)^3 (x + 2)\n1,-1,-3,5,-2\n")
    for argv, patch, code, first in ERROR_CONTRACT:
        with monkeypatch.context() as m:
            if patch:
                m.setattr(*patch)
            assert run(argv) == (code, ""), argv
        assert capsys.readouterr().err.splitlines()[0] == first, argv
