"""Batch command-line front end.

Subcommands expose the pipeline stages (rigid-object enumeration, exchange
matrices, atlas enumeration, character tables) and the verification suites;
``reproduce-example`` replays the rank-four worked example against the
frozen reference data.  All output is deterministic: canonical orderings
everywhere, no timestamps.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from importlib import resources
from itertools import permutations
from typing import List, Optional, Sequence

from .cluster import ClusterError, enumerate_atlas
from .laurent import LaurentError, pretty
from .tube import (ConsistencyError, Indec, MaximalRigid, Tube, TubeError, b_matrix,
                   enumerate_maximal_rigid)
from .ccmap import CCMap
from .grassmann import OracleError
from .verify import run_suite


@dataclass
class RunConfig:
    command: str
    n: int = 3
    object: Optional[str] = None
    fmt: str = "text"
    cap: int = 10000
    oracle: bool = True
    out: Optional[str] = None


class UsageError(Exception):
    """Bad command-line input; ``run`` reports it as a usage error (exit 2)."""


def _parse_object(tube: Tube, text: str) -> MaximalRigid:
    """The maximal rigid object named by ``--object``; text that names none
    is a usage error."""
    pairs = re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", text)
    if not pairs:
        raise UsageError(f"cannot parse object list from {text!r}")
    try:
        summands = [tube.indec(int(a), int(b)) for a, b in pairs]
        longs = [s for s in summands if s.b == tube.n]
        rest = [s for s in summands if s.b != tube.n]
        return MaximalRigid(tube, tuple(longs + rest))
    except TubeError as exc:
        raise UsageError(str(exc)) from exc


def _object_or_stack(tube: Tube, text: Optional[str]) -> MaximalRigid:
    """The object named by ``--object``, or the stack (1,n),...,(1,1)."""
    if text:
        return _parse_object(tube, text)
    return MaximalRigid(tube, tuple(Indec(1, b) for b in range(tube.n, 0, -1)))


def _emit(config: RunConfig, text: str) -> None:
    """Print the output, or write it to ``--out``; a path that cannot be
    written is a usage error."""
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {config.out!r}: {exc.strerror}") from exc
    else:
        print(text)


def _matrix_lines(rows) -> str:
    return "\n".join(" ".join(f"{x:3d}" for x in row) for row in rows)


def cmd_enumerate_rigid(config: RunConfig) -> int:
    tube = Tube(config.n)
    ts = [t.canonical() for t in enumerate_maximal_rigid(config.n, tube)]
    ts.sort(key=lambda t: t.summands)
    if config.fmt == "json":
        _emit(config, json.dumps({"count": len(ts), "objects": [t.to_json() for t in ts]}, sort_keys=True))
    else:
        lines = [f"maximal rigid objects in the rank-{config.n + 1} cluster tube: {len(ts)}"]
        lines += [" + ".join(str(s) for s in t.summands) for t in ts]
        _emit(config, "\n".join(lines))
    return 0


def cmd_b_matrix(config: RunConfig) -> int:
    tube = Tube(config.n)
    t = _parse_object(tube, config.object)
    b = b_matrix(t)
    if config.fmt == "json":
        payload = t.to_json()
        payload["b_matrix"] = [list(r) for r in b.b]
        _emit(config, json.dumps(payload, sort_keys=True))
    else:
        _emit(config, _matrix_lines(b.b))
    return 0


def cmd_atlas(config: RunConfig) -> int:
    t = _object_or_stack(Tube(config.n), config.object)
    atlas = enumerate_atlas(b_matrix(t), cap=config.cap)
    if config.fmt == "json":
        _emit(config, json.dumps(atlas.to_json(), sort_keys=True))
    else:
        lines = [
            f"seeds: {len(atlas.seeds)}",
            f"cluster variables: {len(atlas.variables)}",
        ]
        lines += [pretty(p) for p in sorted(atlas.variables, key=lambda q: q.canonical_text())]
        _emit(config, "\n".join(lines))
    return 0


def cmd_cc_table(config: RunConfig) -> int:
    t = _object_or_stack(Tube(config.n), config.object)
    cm = CCMap(t)
    rows = cm.character_table()
    if config.fmt == "json":
        _emit(config, json.dumps({"object": t.to_json(), "b_matrix": [list(r) for r in cm.b.b], "rows": rows}, sort_keys=True))
    else:
        lines = [f"T = {' + '.join(str(s) for s in t.summands)}"]
        lines.append(_matrix_lines(cm.b.b))
        width = max(len(r["pretty"]) for r in rows)
        for r in rows:
            rank = "" if r["rank"] is None else str(tuple(r["rank"]))
            lines.append(
                f"{r['object']:8s} {r['pretty']:{width}s}  den={tuple(r['denom'])} {rank}"
            )
        _emit(config, "\n".join(lines))
    return 0


def cmd_verify(config: RunConfig) -> int:
    report = run_suite(config.n, oracle=config.oracle)
    payload = report.render()
    if config.fmt == "json":
        payload = json.dumps(
            {
                "ok": report.ok,
                "checks": [
                    {"name": name, "ok": passed, "failures": nfail}
                    for name, passed, nfail in report.lines
                ],
                "failures": report.failures,
            },
            sort_keys=True,
        )
    _emit(config, payload)
    return 0 if report.ok else 1


def load_reference() -> dict:
    with resources.files("clustertube.data").joinpath("c3_reference.json").open() as fh:
        return json.load(fh)


def locate_reference_object(tube: Tube, target_b) -> Optional[MaximalRigid]:
    """Exhaustive search for a maximal rigid object with the given matrix."""
    for t in enumerate_maximal_rigid(tube.n, tube):
        for perm in permutations(t.summands[1:]):
            candidate = t.reordered(perm)
            if b_matrix(candidate, cross_validate=False).b == target_b:
                return candidate
    return None


def cmd_reproduce_example(config: RunConfig) -> int:
    ref = load_reference()
    tube = Tube(ref["n"])
    target_b = tuple(tuple(row) for row in ref["b_matrix"])
    t = locate_reference_object(tube, target_b)
    failures: List[str] = []
    if t is None:
        failures.append("no maximal rigid object realizes the reference matrix")
        _emit(config, "\n".join(failures))
        return 1
    recorded = tuple(tuple(s) for s in ref["realizing_object"])
    if tuple((s.a, s.b) for s in t.summands) != recorded:
        failures.append(f"located object {t} differs from the recorded one {recorded}")
    cm = CCMap(t)
    by_rank = {}
    for row in cm.character_table():
        if row["rank"] is not None:
            by_rank[tuple(row["rank"])] = row
    lines = [
        f"T = {' + '.join(str(s) for s in t.summands)}",
        _matrix_lines(cm.b.b),
        "",
        f"{'rank':12s} {'character':42s} denominator",
    ]
    for entry in ref["characters"]:
        rank = tuple(entry["rank"])
        row = by_rank.get(rank)
        if row is None:
            failures.append(f"no rigid module of rank {rank}")
            continue
        ok_poly = row["poly"] == entry["poly"]
        ok_den = row["denom"] == entry["denom"]
        if not ok_poly:
            failures.append(f"character mismatch at rank {rank}")
        if not ok_den:
            failures.append(f"denominator mismatch at rank {rank}")
        mark = "" if (ok_poly and ok_den) else "   <-- MISMATCH"
        lines.append(f"{str(rank):12s} {row['pretty']:42s} {tuple(row['denom'])}{mark}")
    lines.append("")
    lines.append("match with reference data: " + ("yes" if not failures else "NO"))
    lines.extend(failures)
    if config.fmt == "json":
        _emit(
            config,
            json.dumps(
                {
                    "ok": not failures,
                    "object": t.to_json(),
                    "failures": failures,
                    "rows": [by_rank[tuple(e["rank"])] for e in ref["characters"] if tuple(e["rank"]) in by_rank],
                },
                sort_keys=True,
            ),
        )
    else:
        _emit(config, "\n".join(lines))
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustertube",
        description="cluster tubes, maximal rigid objects and their cluster characters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *options, object_required=False):
        # each command registers only the options it reads
        p = sub.add_parser(name, help=help)
        if "n" in options:
            p.add_argument("--n", type=int, default=3, help="tube rank minus one (>= 2)")
        if "object" in options:
            p.add_argument("--object", type=str, default=None, required=object_required,
                           help='summand list, e.g. "(1,3),(3,1),(1,1)"')
        p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        if "cap" in options:
            p.add_argument("--cap", type=int, default=10000, help="seed cap for atlas enumeration")
        if "oracle" in options:
            p.add_argument("--oracle", choices=("on", "off"), default="on")
        p.add_argument("--out", type=str, default=None, help="write output to a file")

    command("enumerate-rigid", "list all basic maximal rigid objects", "n")
    command("b-matrix", "exchange matrix of a maximal rigid object", "n", "object",
            object_required=True)
    command("atlas", "enumerate the cluster pattern of the exchange matrix", "n", "object", "cap")
    command("cc-table", "character table of a maximal rigid object", "n", "object")
    command("verify", "run the invariant suite for one rank", "n", "oracle")
    command("reproduce-example", "replay the rank-four worked example")
    return parser


COMMANDS = {
    "enumerate-rigid": cmd_enumerate_rigid,
    "b-matrix": cmd_b_matrix,
    "atlas": cmd_atlas,
    "cc-table": cmd_cc_table,
    "verify": cmd_verify,
    "reproduce-example": cmd_reproduce_example,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    if "oracle" in options:
        options["oracle"] = options["oracle"] == "on"
    config = RunConfig(**options)
    if config.n < 2:
        parser.error("--n must be at least 2")
    if config.cap < 1:
        parser.error("--cap must be positive")
    try:
        return COMMANDS[config.command](config)
    except (ClusterError, LaurentError, ConsistencyError, OracleError) as exc:
        # an input outside finite type, an internal fault or an oracle that
        # could not decide: not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        parser.error(str(exc))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
