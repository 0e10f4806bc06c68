"""Smoke run of the benchmark on each workload: one pass, answers checked.

It catches a library change that breaks what `bench/` reads (`cli.run`
keywords, `SecurityReport.lp`, the dense rows of `LinearProgram.a`, the
functions its tracer wraps) before a full benchmark run does.
"""

import importlib
import importlib.util
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


def test_every_traced_function_exists():
    # the tracer skips a target it cannot find, so a renamed function would
    # read 0 on its per-layer metrics instead of failing
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("composec.cli")  # imports every module
    missing = []
    for metric, module, attr, _count in tracing.TARGETS:
        holder = sys.modules[f"composec.{module}"]
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.append(metric)
    assert missing == []
