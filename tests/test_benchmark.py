"""Smoke run of the benchmark script at its tiny size, untraced and traced.

The tracer looks up program functions by name, so a rename in the package
shows up here as a failed run rather than only when the benchmark is next run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_benchmark_passes_its_checks(trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "all", "--tiny",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
