"""Benchmark for the clustertube command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one table

With ``--trace 0`` each job is one fresh interpreter (``job.py``) that
makes the workload's arguments and calls ``clustertube.cli.run`` once, just
as one ``clustertube`` command would.  Jobs on ``src/`` alternate with jobs
on the frozen copy in ``base/``, one at a time, while one more still fits
in ``--seconds``, and every job's output is checked.  The last line reports
the end-to-end metrics: ``job_vs_base`` (mean ``src`` job time over mean
base job time), ``setup_s`` (median time from a ``src`` interpreter's start
to its inputs being ready, scaled by the base copy's) and ``peak_rss_mb``
(median over the ``src`` jobs).

With ``--trace 1`` the jobs run in this process instead, with every
module-level cache of the package emptied before each: one untraced job,
then every layer is wrapped (see ``tracing.py``) and the last line reports
the per-layer medians over the traced jobs.  ``README.md``
explains the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from job import call_cli  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

# A job that runs longer than this is killed and the run fails.
JOB_TIMEOUT_S = 150
# The base copy's median set-up time on the 2-vCPU host this benchmark was
# defined on; setup_s is scaled to it (see "Noise" in README.md).
BASE_SETUP_S = 0.2


def spawn_job(workload: str, seed: int, code: str):
    """One job in a fresh interpreter, on ``src`` or on the frozen ``base``
    copy: (set-up seconds, wall seconds, exit code, stdout, peak RSS in MB).
    Set-up runs from starting the interpreter to its ``ready`` line:
    interpreter start, ``import clustertube`` and making the arguments."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "job.py"), workload, str(seed), code],
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"a {workload} job ran longer than {JOB_TIMEOUT_S} s")
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"a {workload} job interpreter exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return setup, result["wall"], result["rc"], result["out"], result["peak_rss_mb"]


def reset_caches() -> int:
    """Empty every module-level cache of the package (``*_cache`` dicts and
    ``functools`` caches); returns how many were found."""
    found = 0
    for name, mod in list(sys.modules.items()):
        if name != "clustertube" and not name.startswith("clustertube."):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
                found += 1
            elif isinstance(obj, dict) and attr.endswith("_cache"):
                obj.clear()
                found += 1
    return found


def run_job(cli, argv: List[str]):
    """One CLI invocation in this process, after emptying the caches."""
    reset_caches()
    return call_cli(cli, argv)


def context(workload: str, seed: int, argv: List[str]) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "clustertube").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "argv": argv,
        "caches_reset": reset_caches(),
    }


def time_left(start: float, seconds: float, walls: List[float]) -> bool:
    """Whether another job, as long as the median one so far, still ends
    within ``seconds``.  The first job always runs."""
    return not walls or time.perf_counter() - start + statistics.median(walls) <= seconds


def quartiles(xs: List[float]) -> List[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


class Checker:
    """Checks each job's output; every job is compared with the first."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.reference = None
        self.attempted = self.failed = 0

    def __call__(self, rc, out: str) -> None:
        self.attempted += 1
        failures = self.workload.check_output(out, rc, self.seed, self.reference)
        if self.reference is None and rc == 0:
            self.reference = digest(out)
        if failures:
            self.failed += 1
            print(f"job {self.attempted} failed: " + "; ".join(failures[:5]), file=sys.stderr)


def run_untraced(workload, seed: int, seconds: float, cli, argv) -> dict:
    check = Checker(workload, seed)
    setups: List[float] = []
    walls: List[float] = []
    peaks: List[float] = []
    base_walls: List[float] = []
    base_setups: List[float] = []
    start = time.perf_counter()
    # src and base jobs alternate, src first, at least one of each
    while not base_walls or time_left(start, seconds, walls + base_walls):
        code = "base" if len(walls) > len(base_walls) else "src"
        setup, wall, rc, out, peak_mb = spawn_job(workload.name, seed, code)
        if code == "base":
            failures = workload.check_output(out, rc, seed, None)
            if failures:
                raise RuntimeError("the base copy failed: " + "; ".join(failures[:5]))
            base_walls.append(wall)
            base_setups.append(setup)
            continue
        setups.append(setup)
        walls.append(wall)
        peaks.append(peak_mb)
        check(rc, out)
    q1, med, q3 = quartiles(walls)
    # means, not medians: see "Noise" in README.md
    job_s = statistics.mean(walls)
    base_job_s = statistics.mean(base_walls)
    setup_raw_s = statistics.median(setups)
    setup_s = setup_raw_s * BASE_SETUP_S / statistics.median(base_setups)
    peak_mb = statistics.median(peaks)
    summary = {
        "job_vs_base": {"value": job_s / base_job_s, "unit": "ratio"},
        "job_s": {"mean": job_s, "median": med, "q1": q1, "q3": q3, "samples": len(walls),
                  "unit": "s", "each": walls},
        "base_job_s": {"mean": base_job_s, "unit": "s", "each": base_walls},
        "setup_s": {"value": setup_s, "raw_median": setup_raw_s,
                    "base_median": statistics.median(base_setups), "samples": len(setups),
                    "unit": "s", "each": setups},
        "peak_rss_mb": {"value": peak_mb, "max": max(peaks), "unit": "MB"},
        "fail_ratio": {"value": check.failed / check.attempted, "unit": "ratio"},
    }
    metrics = {
        "job_vs_base": {"value": job_s / base_job_s, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return {"summary": summary, "metrics": metrics, "check": check}


def run_traced(workload, seed: int, seconds: float, cli, argv) -> dict:
    check = Checker(workload, seed)
    start = time.perf_counter()
    plain, _, rc, out = run_job(cli, argv)
    check(rc, out)
    tracer = tracing.Tracer()
    tracer.install()
    per_job: List[Dict[str, float]] = []
    walls = []
    while time_left(start, seconds, walls):
        tracer.reset()
        wall, cpu, rc, out = run_job(cli, argv)
        check(rc, out)
        walls.append(wall)
        per_job.append(tracer.job_metrics(cpu))
    values = {m: statistics.median(j[m] for j in per_job) for m in per_job[0]}
    values.update(tracing.sloc(SRC))
    values["trace.job_s"] = statistics.median(walls)
    values["trace.overhead_s"] = values["trace.job_s"] - plain

    dead = [m for m, home in tracing.PER_LAYER.items() if workload.name in home and not values[m]]
    if dead:
        raise RuntimeError(f"metrics measured nothing on {workload.name}: {dead}")
    missed = [m for m in tracing.PREDICTED_ZERO.get(workload.name, []) if values[m]]
    layers = {m: values[f"{m}.self_s"] for m in tracing.MODULES if f"{m}.self_s" in values}
    largest = max(layers, key=layers.get)
    expected_largest = tracing.LARGEST_LAYER.get(workload.name)
    summary = {
        "traced_jobs": len(per_job),
        "untraced_job_s": plain,
        "overhead_s": values["trace.overhead_s"],
        "largest_layer": largest,
        "prediction_misses": missed
        + ([f"largest layer {largest}, predicted {expected_largest}"]
           if expected_largest and largest != expected_largest else []),
        "wrapped_names_rebound": tracer.rebound,
    }
    units = {"calls": "count", "max_cells": "count", "seeds": "count", "sloc": "lines",
             "distinct_ratio": "ratio", "new_seed_ratio": "ratio"}
    metrics = {m: {"value": values[m], "unit": units.get(m.rsplit(".", 1)[1], "s")}
               for m in tracing.PER_LAYER}
    return {"summary": summary, "metrics": metrics, "check": check}


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds * 3 + 600,
        )
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"{name}: exit code {res.returncode}", file=sys.stderr)
            return 1
        lines = res.stdout.strip().splitlines()
        result, report = json.loads(lines[-1]), json.loads(lines[-2])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            merged["metrics"][f"{name}.{m}"] = v
        rows.append((name, report["summary"], result))
    for name, summary, result in rows:
        if args.trace:
            print(f"{name:10s} traced jobs {summary['traced_jobs']}  overhead "
                  f"{summary['overhead_s']:.3f} s  largest layer {summary['largest_layer']}  "
                  f"prediction misses {summary['prediction_misses'] or 'none'}")
            continue
        job = summary["job_s"]
        print(f"{name:10s} job_vs_base {summary['job_vs_base']['value']:.3f}  "
              f"job_s {job['mean']:.3f} s (median {job['median']:.3f}, q1 {job['q1']:.3f}, "
              f"q3 {job['q3']:.3f}, {job['samples']} jobs)  setup_s {summary['setup_s']['value']:.3f} s  "
              f"peak_rss_mb {summary['peak_rss_mb']['value']:.1f} MB  "
              f"fail_ratio {summary['fail_ratio']['value']:g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clustertube" / "__init__.py").is_file():
        print(f"error: no clustertube sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    from clustertube import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported clustertube from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    argv = workload.argv(args.seed)
    run = run_traced if args.trace else run_untraced
    result = run(workload, args.seed, args.seconds, cli, argv)
    check = result["check"]
    print(json.dumps({"context": context(workload.name, args.seed, argv),
                      "summary": result["summary"]}, sort_keys=True))
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                      "failed": check.failed, "metrics": result["metrics"]}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
