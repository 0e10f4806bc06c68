"""Smoke run of the benchmark on each workload: one pass, answers checked.

It catches a library change that breaks what `bench/` reads (`cli.run`
keywords, `SecurityReport.lp`, the dense rows of `LinearProgram.a`) before
a full benchmark run does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["corpus", "tables", "adaptive"])
def test_benchmark_smoke_run(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
