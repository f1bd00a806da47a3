"""The benchmark's traced check, run as the benchmark runs it.

A traced run checks that every op answers correctly on its workload's
path, that the layer spans cover at least 95% of each op, and that the
counts repeat exactly.  Work moved into a body no span wraps fails it, so
it runs here too.  The inputs are seeded, so the run is deterministic.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["cp-poly", "nn-poly", "cp-wide"])
def test_traced_benchmark_run_passes(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", "1"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert json.loads(run.stdout.strip().splitlines()[-1])["correct"] is True
