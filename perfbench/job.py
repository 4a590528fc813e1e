"""One job in a fresh interpreter, as one ``clustertube`` command would run.

    python3 perfbench/job.py WORKLOAD SEED src|base

Imports ``clustertube`` from ``src/`` or, with ``base``, from the frozen
copy in ``perfbench/base/`` (see ``README.md``), makes the workload's CLI
arguments from the seed, prints ``ready`` and calls ``clustertube.cli.run``
once with its stdout captured.  The last line is JSON: the wall seconds of
that call, its exit code, its output and the process's peak resident memory
in MB.  ``run.py`` starts one of these per timed job, alternating the copies.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import List


def call_cli(cli, argv: List[str]):
    """One CLI invocation: (wall seconds, cpu seconds, exit code, stdout)."""
    buf = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
    except SystemExit as exc:  # argparse usage errors exit
        rc = exc.code
    except Exception:  # a crash is a failed job, counted and shown
        traceback.print_exc()
        rc = None
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, rc, buf.getvalue()


def main() -> None:
    bench = Path(__file__).resolve().parent
    root = {"src": bench.parent / "src", "base": bench / "base"}[sys.argv[3]]
    sys.path[:0] = [str(root), str(bench)]
    from clustertube import cli
    from workloads import WORKLOADS

    argv = WORKLOADS[sys.argv[1]].argv(int(sys.argv[2]))
    print("ready", flush=True)
    wall, _, rc, out = call_cli(cli, argv)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"wall": wall, "rc": rc, "out": out, "peak_rss_mb": peak_mb}))


if __name__ == "__main__":
    main()
