import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_the_benchmark_selftest_passes():
    # the benchmark's tracer wraps package functions by name, so a rename
    # in the package can break it
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
