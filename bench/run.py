#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the multdisc command line, with a traced mode.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src, the
way the tests run it.  Each run sets up its inputs several times
(importing multdisc, generating the seeded inputs, writing the batch
files) and reports the median as setup_s.  It then calls
multdisc.cli.main in this process, round after round, until --seconds
have passed, checks every output against the structure the input was
built with, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 each
round runs once untraced and once with spans around the library's public
functions (see spans.py), the two in alternating order; the metrics are
the per-module ones and trace.overhead_s, the traced minus the untraced
wall time.

The CLI runs with its own defaults: no --workers, and MULTDISC_WORKERS
removed from the environment, so the only parallelism is the library's
process pool (os.cpu_count() workers).  A full record with the machine
facts goes to bench/results/.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SYMBOLIC_TERMS,
    WIDE_OVER_LIMIT_SHARE,
    WORKLOADS,
    partitions,
    yhz_count,
    yhz_degree,
)

SETUP_REPEATS = 9
# A classify run goes on past --seconds until this many inputs succeeded,
# so that the 90th percentile has at least ten samples above it.
MIN_LATENCY_SAMPLES = 100
TRACED_MODULES = ("cli", "discriminant", "linalg", "subresultants", "sympoly", "unipoly", "yhz")
# Python refuses int -> str beyond sys.get_int_max_str_digits() digits; the
# CLI then exits 1 with this message and abandons the rest of its batch.
KNOWN_DEFECT = "for integer string conversion"


class TimedWriter:
    """Output stream that stamps every write; classify writes one line per input."""

    def __init__(self):
        self.times = []
        self.chunks = []

    def write(self, text):
        self.times.append(time.perf_counter())
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


def cpu_now():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def import_library():
    """A fresh import of multdisc from ./src, as a new CLI process would do."""
    for name in [m for m in sys.modules if m == "multdisc" or m.startswith("multdisc.")]:
        del sys.modules[name]
    importlib.import_module("multdisc")
    return {name: importlib.import_module(f"multdisc.{name}") for name in TRACED_MODULES}


def setup(workload, seed, workdir):
    """Import the library, generate the seeded rounds, write their batch files."""
    mods = import_library()
    rounds = WORKLOADS[workload](seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    files = []
    for r, rnd in enumerate(rounds):
        paths = []
        for b, batch in enumerate(rnd.batches):
            path = workdir / f"round{r:03d}-{b}.txt"
            path.write_text("".join(case.line + "\n" for case in batch))
            paths.append(str(path))
        files.append(paths)
    return mods, rounds, files


class Outcome:
    """Everything one workload run observed, checked as it is collected."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # descriptions of wrong answers and unexpected failures
        self.defects = []  # (exit code, message) of known-defect failures
        self.latencies = []  # seconds, successful inputs only
        self.labels = []  # "n<degree> <structure>" of each latency
        self.wall = 0.0  # inside main() calls
        self.cpu = 0.0  # this process and its reaped children, inside main() calls

    def fail(self, what):
        self.failed += 1
        self.wrong.append(what)


def check_classify(case, payload):
    """None if payload is the right answer for case, else what is wrong."""
    n, mu = case.degree, case.expected
    m = len(mu)
    if payload.get("degree") != n or payload.get("ndr") != m:
        return f"degree/ndr {payload.get('degree')}/{payload.get('ndr')}, expected {n}/{m}"
    if tuple(payload.get("multiplicity", ())) != mu:
        return f"multiplicity {payload.get('multiplicity')}, expected {list(mu)}"
    certs = payload.get("certificates")
    if 2 <= m <= n - 2:
        if [tuple(c["mu"]) for c in certs] != partitions(n, m):
            return f"certificate candidates {[c['mu'] for c in certs]}"
        nonzero = [tuple(c["mu"]) for c in certs if c["value"] != "0"]
        if nonzero != [mu]:
            return f"nonzero certificates {nonzero}, expected {[list(mu)]}"
    elif certs:
        return f"unexpected certificates for m = {m}"
    return None


def run_classify_batch(main, path, batch, outcome):
    writer = TimedWriter()
    errors = io.StringIO()
    cpu0, t0 = cpu_now(), time.perf_counter()
    with contextlib.redirect_stderr(errors):
        code = main(["classify", "--file", path, "--format", "json"], out=writer)
    outcome.wall += time.perf_counter() - t0
    outcome.cpu += cpu_now() - cpu0
    outcome.attempted += len(batch)
    prev = t0
    for case, stamp, text in zip(batch, writer.times, writer.chunks):
        try:
            problem = check_classify(case, json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output {text[:80]!r}: {exc}"
        if problem:
            outcome.fail(f"{case.line[:60]}...: {problem}")
        else:
            outcome.latencies.append(stamp - prev)
            outcome.labels.append(f"n{case.degree} {','.join(map(str, case.expected))}")
        prev = stamp
    missing = len(batch) - len(writer.chunks)
    if missing or code != 0:
        message = errors.getvalue().strip()
        outcome.failed += missing
        if code == 1 and missing and KNOWN_DEFECT in message:
            outcome.defects.append((code, message))
        else:
            outcome.wrong.append(f"{path}: exit {code}, {missing} lines missing: {message[:200]}")


def run_symbolic_condition(main, n, mu, outcome):
    mu_text = ",".join(map(str, mu))
    dmu_out, yhz_out, errors = io.StringIO(), io.StringIO(), io.StringIO()
    cpu0, t0 = cpu_now(), time.perf_counter()
    with contextlib.redirect_stderr(errors):
        code_dmu = main(["dmu", "--n", str(n), "--mu", mu_text, "--symbolic", "--format", "json"], out=dmu_out)
        code_yhz = main(["yhz", "--n", str(n), "--mu", mu_text, "--format", "json"], out=yhz_out)
    elapsed = time.perf_counter() - t0
    outcome.wall += elapsed
    outcome.cpu += cpu_now() - cpu0
    outcome.attempted += 1
    if code_dmu or code_yhz:
        outcome.fail(f"{mu}: exit {code_dmu}/{code_yhz}: {errors.getvalue().strip()[:200]}")
        return
    expected = (2 * n - mu[-1], SYMBOLIC_TERMS[mu], yhz_count(mu), yhz_degree(mu))
    try:
        d, y = json.loads(dmu_out.getvalue()), json.loads(yhz_out.getvalue())
        got = (d["total_degree"], d["terms"], y["measured_count"], y["measured_max_degree"])
    except (ValueError, KeyError, TypeError) as exc:
        outcome.fail(f"{mu}: unreadable output: {exc}")
        return
    if got != expected:
        outcome.fail(f"{mu}: (degree, terms, yhz count, yhz degree) {got}, expected {expected}")
    else:
        outcome.latencies.append(elapsed)
        outcome.labels.append(f"n{n} {mu_text}")


def run_round(main, rnd, paths, outcome):
    if rnd.conditions:
        for n, mu in rnd.conditions:
            run_symbolic_condition(main, n, mu, outcome)
    for path, batch in zip(paths, rnd.batches):
        run_classify_batch(main, path, batch, outcome)


def run_traced(tracer, mods, rnd, paths, outcome):
    tracer.install(mods)
    try:
        run_round(tracer.span("cli", mods["cli"].main), rnd, paths, outcome)
    finally:
        tracer.uninstall()


def end_to_end(outcome, setup_s):
    lat = outcome.latencies or [0.0]
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    succeeded = outcome.attempted - outcome.failed
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (succeeded / outcome.wall, "1/s"),
        "latency_p50_ms": (deciles[4] * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "cpu_ms_per_input": (outcome.cpu * 1e3 / outcome.attempted, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def calibration_ms():
    """Best of three timings of a fixed pure-Python loop: how fast this host runs now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def machine_facts(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "calibration_ms": calibration_ms(),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "multdisc" / "__init__.py").is_file():
        print(f"error: no library at {SRC}/multdisc; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MULTDISC_WORKERS", None)

    workdir = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods, rounds, files = setup(args.workload, args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    cli_main = mods["cli"].main
    tracer = Tracer() if args.trace else None
    plain, traced = Outcome(), Outcome()
    t_start = time.perf_counter()
    rounds_run = 0
    try:
        while (
            rounds_run == 0
            or time.perf_counter() - t_start < args.seconds
            or (not tracer and not rounds[0].conditions and len(plain.latencies) < MIN_LATENCY_SAMPLES)
        ):
            i = rounds_run % len(rounds)
            if tracer and rounds_run % 2:
                run_traced(tracer, mods, rounds[i], files[i], traced)
            run_round(cli_main, rounds[i], files[i], plain)
            if tracer and not rounds_run % 2:
                run_traced(tracer, mods, rounds[i], files[i], traced)
            rounds_run += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = (plain, traced) if tracer else (plain,)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wrong = [w for o in outcomes for w in o.wrong]
    defects = [d for o in outcomes for d in o.defects]
    if tracer:
        metrics = tracer.metrics(traced.wall - plain.wall)
    else:
        metrics = end_to_end(plain, setup_s)

    facts = machine_facts(args)
    facts.update(
        {
            "inputs_per_round": rounds[0].size,
            "rounds_run": rounds_run,
            "distinct_rounds": len(rounds),
            "inputs_run": attempted,
            "latency_samples": len(plain.latencies),
            "fail_ratio": failed / attempted,
            "setup_runs_s": setups,
        }
    )
    if args.workload == "wide":
        facts["stated_over_limit_share"] = float(WIDE_OVER_LIMIT_SHARE)

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metric_values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "facts": facts,
        "metrics": metric_values,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "known_defects": [{"exit_code": c, "message": m} for c, m in defects],
        "latencies_ms": [[label, round(t * 1e3, 4)] for label, t in zip(plain.labels, plain.latencies)],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.dump(results / f"{stem}-spans.json")

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.4f} {unit}")
    print(f"{'fail_ratio':44s} {failed / attempted:14.4f} ({failed}/{attempted} inputs)")
    for code, message in defects[:1]:
        print(f"known defect: exit {code}: {message[:160]} ({len(defects)} inputs)")
    for what in wrong[:10]:
        print(f"WRONG: {what}")
    print("facts: " + json.dumps(facts))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metric_values}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
