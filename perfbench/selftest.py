"""Checks on the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

- ``BENCHMARK.json`` names workloads and metrics the code emits, and every
  per-layer metric must be non-zero on some workload;
- the frozen base copy reproduces the golden ``atlas`` output;
- a job whose output has one changed character counts as failed;
- tracing rebinds every copy of a wrapped function in the package;
- the cache reset empties the package's module-level caches.
"""
from __future__ import annotations

import json
import sys

import run  # puts perfbench and src on sys.path
import tracing
from workloads import WORKLOADS


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok  {what}")


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(all(w["name"] in WORKLOADS and w["why"] == WORKLOADS[w["name"]].why
               for w in spec["workloads"]),
           "BENCHMARK.json workloads are in workloads.py, with the same reasons")
    expect([m["name"] for m in spec["end_to_end"]] == ["job_vs_base", "setup_s", "peak_rss_mb"],
           "BENCHMARK.json end-to-end metrics match run.py")
    expect([m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER),
           "BENCHMARK.json per-layer metrics match tracing.PER_LAYER")
    gated = {w["name"] for w in spec["workloads"]}
    homeless = [m for m, home in tracing.PER_LAYER.items()
                if not gated & set(home) and m != "trace.overhead_s"]
    expect(not homeless,
           f"every per-layer metric must be non-zero on a BENCHMARK.json workload {homeless or ''}")


def check_base_copy() -> None:
    w = WORKLOADS["atlas"]
    _, _, rc, out, _ = run.spawn_job(w.name, 0, "base")
    expect(not w.check_output(out, rc, 0, None),
           "the frozen base copy reproduces the golden atlas output")


def check_corruption_counts(cli) -> None:
    w = WORKLOADS["characters"]
    argv = w.argv(0)
    _, _, rc, out = run.run_job(cli, argv)
    good = run.Checker(w, 0)
    good(rc, out)
    expect(good.failed == 0, "the default-seed characters output passes its checks")
    # one changed character in one character polynomial
    payload = json.loads(out)
    row = payload["rows"][len(payload["rows"]) // 2]
    i = next(i for i, c in enumerate(row["poly"]) if c.isdigit())
    bad_poly = row["poly"][:i] + str((int(row["poly"][i]) + 1) % 10) + row["poly"][i + 1:]
    where = out.index(json.dumps(row["poly"]))
    corrupted = out[:where] + json.dumps(bad_poly) + out[where + len(json.dumps(row["poly"])):]
    expect(len(corrupted) == len(out) and sum(a != b for a, b in zip(out, corrupted)) == 1,
           "the corruption changes exactly one character")
    for seed in (0, 7):  # golden digest at seed 0, first-job digest otherwise
        check = run.Checker(w, seed)
        check(0, out)
        check(0, corrupted)
        expect((check.attempted, check.failed) == (2, 1),
               f"seed {seed}: the corrupted job is counted as failed (1 of 2)")


def check_rebinding() -> None:
    import clustertube.ccmap as ccmap
    import clustertube.cluster as cluster
    import clustertube.linalg as linalg

    run.reset_caches()
    ccmap.cached_atlas(cluster.ExchangeMatrix([[0, 1], [-2, 0]]))
    expect(len(ccmap._atlas_cache) == 1, "cached_atlas fills the module-level cache")
    expect(run.reset_caches() >= 1 and not ccmap._atlas_cache, "reset_caches empties it")

    tracer = tracing.Tracer()
    tracer.install()
    unwrapped = []
    for name, mod in list(sys.modules.items()):
        if not name.startswith("clustertube"):
            continue
        for attr, obj in vars(mod).items():
            home = getattr(obj, "__module__", "") or ""
            if (callable(obj) and not isinstance(obj, type) and home.startswith("clustertube.")
                    and home.rsplit(".", 1)[1] in tracing.MODULES
                    and not attr.startswith("_") and not hasattr(obj, "__wrapped__")):
                unwrapped.append(f"{name}.{attr}")
    expect(not unwrapped, f"every public package function is wrapped everywhere {unwrapped or ''}")
    tube = sys.modules["clustertube.tube"]
    expect(tube.kernel_basis is linalg.kernel_basis and hasattr(tube.kernel_basis, "__wrapped__"),
           "tube's copy of kernel_basis is the wrapped linalg.kernel_basis")
    tracer.reset()
    tube.kernel_basis(linalg.ExactMatrix([[1, 2], [3, 4]]))
    expect(tracer.calls["linalg.kernel_basis"] == 1 and tracer.calls["linalg.rref"] == 1
           and tracer.max_cells == 4, "a call through tube's copy is counted, with its rref")


def main() -> int:
    check_manifest()
    check_base_copy()
    sys.path.insert(0, str(run.SRC))
    from clustertube import cli

    check_corruption_counts(cli)
    check_rebinding()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
