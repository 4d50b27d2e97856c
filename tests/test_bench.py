"""Smoke test of the benchmark harness: traced rounds and untraced rounds.

wide drives classify, whose gcd(F, F'), Yun decomposition and
closed-form certificate run on subresultant chains and never call dmu (no
wide input is squarefree, so the image mod p never skips the chain);
symbolic drives the symbolic D_mu (checked against the pinned term counts
and the degree 2n - mu_m) and yhz.  Each round checks that the harness runs, that
every answer is correct and that its spans still reach the library (the
tracer patches names such as multdisc.discriminant.subresultant_chain and
multdisc.discriminant.dmu); it makes no timing assertion.  roundtrip and
generic run one untraced round each, the end-to-end mode the benchmark
times, and every input must come back correct.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _last_line(workload, trace):
    """The final JSON line of one round of bench/run.py, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["wide", "symbolic"])
def test_bench_traced_round(workload):
    last = _last_line(workload, 1)
    assert last["correct"] is True
    reached = {"wide": "subresultants.subresultant_chain.calls", "symbolic": "discriminant.dmu.calls"}
    assert last["metrics"][reached[workload]]["value"] > 0


@pytest.mark.parametrize("workload", ["roundtrip", "generic"])
def test_bench_untraced_round(workload):
    last = _last_line(workload, 0)
    assert last["correct"] is True
    assert last["failed"] == 0
