"""Smoke test of the benchmark harness: one traced round of the wide workload.

It checks that the harness runs and that its spans still reach the library
(the tracer patches names such as multdisc.discriminant.dmu); it makes no
timing assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_wide_traced_round():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["metrics"]["discriminant.dmu.calls"]["value"] > 0
