import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"


def test_the_benchmark_selftest_passes():
    # the benchmark's tracer wraps package functions by name, so a rename
    # in the package can break it
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


@pytest.mark.parametrize("workload", ["atlas", "verify"])
def test_a_traced_job_of_each_gated_workload_runs(workload):
    # a traced run fails when a per-layer metric of its workload measures
    # nothing, e.g. when the package routes around a traced public function
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "0.1", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
