"""The benchmark workloads: CLI arguments made from a seed, and output checks.

Each workload is one ``clustertube`` CLI command.  The seed only picks the
maximal rigid object ``T`` passed as ``--object``; the reasons for each
workload and the layer each one stresses are in ``README.md``.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, List, Optional, Tuple


def seeded_object(n: int, seed: int) -> str:
    """The ``--object`` text for one seed.

    Seed 0 gives the stack object (1,n),(1,n-1),...,(1,1), the CLI default,
    so its output is the CLI default output.  Any other seed applies tau^k
    for a seeded k to the stack object and lists its short summands in a
    seeded order.  Translation is an autoequivalence
    of the tube and reordering only relabels the exchange matrix, so every
    seed asks for the same amount of work on different input text.
    """
    from clustertube.tube import Indec, MaximalRigid, Tube

    tube = Tube(n)
    t = MaximalRigid(tube, tuple(Indec(1, b) for b in range(n, 0, -1)))
    if seed:
        rng = random.Random(seed)
        shifted = t.shifted(rng.randrange(tube.p))
        short = list(shifted.summands[1:])
        rng.shuffle(short)
        # validate=True: the generated object is checked to be maximal rigid
        t = MaximalRigid(tube, (shifted.long,) + tuple(short))
    return ",".join(f"({s.a},{s.b})" for s in t.summands)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_suite(payload: dict, expected: Tuple[str, ...]) -> List[str]:
    failures = []
    if payload.get("ok") is not True:
        failures.append("suite reports ok != true")
    if payload.get("failures"):
        failures.append(f"suite lists {len(payload['failures'])} failures")
    seen = {c["name"]: c for c in payload.get("checks", [])}
    for name in expected:
        check = seen.get(name)
        if check is None:
            failures.append(f"check {name!r} missing")
        elif check["ok"] is not True or check["failures"] != 0:
            failures.append(f"check {name!r} failed {check['failures']} times")
    extra = sorted(set(seen) - set(expected))
    if extra:
        failures.append(f"unexpected checks {extra}")
    return failures


STRUCTURAL_CHECKS = ("tube invariants", "quiver shape and relations")
FULL_CHECKS = STRUCTURAL_CHECKS + (
    "matrix formulas and mutation",
    "character bijection",
    "denominator vectors",
    "exchange relations and walk",
    "index and coindex laws",
    "long-summand lemmas",
    "AR recursion",
    "finite-field chi oracle",
)


def check_verify(payload: dict, n: int) -> List[str]:
    return _check_suite(payload, FULL_CHECKS)


def check_structure(payload: dict, n: int) -> List[str]:
    return _check_suite(payload, STRUCTURAL_CHECKS)


def check_characters(payload: dict, n: int) -> List[str]:
    """n(n+1) rows with distinct characters; denominators equal ranks; the n
    shifted summands go to initial variables, whose denominators sum to -1."""
    rows = payload.get("rows", [])
    failures = []
    if len(rows) != n * (n + 1):
        failures.append(f"{len(rows)} rows, expected {n * (n + 1)}")
    polys = [r["poly"] for r in rows]
    if len(set(polys)) != len(polys):
        failures.append("two rows share a character")
    unranked = [r for r in rows if r["rank"] is None]
    for r in rows:
        if r["rank"] is not None and r["denom"] != r["rank"]:
            failures.append(f"{r['object']}: denominator {r['denom']} != rank {r['rank']}")
    if len(unranked) != n:
        failures.append(f"{len(unranked)} rows without rank, expected {n}")
    for r in unranked:
        if sum(r["denom"]) != -1:
            failures.append(f"{r['object']}: shifted-summand denominator {r['denom']}")
    return failures


def check_atlas(payload: dict, n: int) -> List[str]:
    """C(2n,n) seeds and n(n+1) cluster variables (type C_n)."""
    failures = []
    seeds, variables = payload.get("seeds", []), payload.get("variables", [])
    if len(seeds) != comb(2 * n, n):
        failures.append(f"{len(seeds)} seeds, expected {comb(2 * n, n)}")
    if len(variables) != n * (n + 1) or len(set(variables)) != len(variables):
        failures.append(f"{len(variables)} variables, expected {n * (n + 1)} distinct")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    n: int
    takes_object: bool
    check: Callable[[dict, int], List[str]]
    golden: str  # sha256 of stdout at seed 0

    def argv(self, seed: int) -> List[str]:
        argv = [self.command, "--n", str(self.n), "--format", "json"]
        if self.takes_object:
            argv += ["--object", seeded_object(self.n, seed)]
        if self.command == "verify":
            argv += ["--oracle", "on"]
        return argv

    def check_output(self, out: str, rc: Optional[int], seed: int,
                     reference: Optional[str]) -> List[str]:
        """Every reason this job failed; ``reference`` is the digest an
        earlier job of the same run produced, if any."""
        failures = []
        if rc != 0:
            failures.append(f"exit code {rc}")
        try:
            payload = json.loads(out)
        except ValueError:
            return failures + ["output is not JSON"]
        try:
            failures += self.check(payload, self.n)
        except (KeyError, TypeError, AttributeError) as exc:
            failures.append(f"malformed output: {exc!r}")
        got = digest(out)
        # without --object the seed changes nothing, so the golden digest holds
        if (seed == 0 or not self.takes_object) and got != self.golden:
            failures.append(f"digest {got[:12]} != golden {self.golden[:12]}")
        if reference is not None and got != reference:
            failures.append("output differs from the run's first job")
        return failures


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "full suite at n=3 with the oracle: every layer, inputs heavily reused",
            "verify", 3, False, check_verify,
            "efbe356578451682d5ac08e36a873e76dfab04aa2b6ded957b175a05df7e1cb4",
        ),
        Workload(
            "characters",
            "cc-table at n=9: module layer and chi counts on big matrices, no atlas",
            "cc-table", 9, True, check_characters,
            "02c1bec2c8267e5fc90ce05809e178b795d915d809a11ec070f2c83fbbe291a8",
        ),
        Workload(
            "atlas",
            "atlas at n=5: seed mutation and Laurent arithmetic only, no module layer",
            "atlas", 5, True, check_atlas,
            "e33531389f39e1425f669a25fa82fb794c2563d35ca86159100abce61d188d27",
        ),
        Workload(
            "structure",
            "verify at n=5: tube calculus and End(T) for all 252 objects, no characters",
            "verify", 5, False, check_structure,
            "64462601c20c2ac4a8372b18d7c476eaab7f062fd3808daf24fff9a12accd0da",
        ),
    )
}

