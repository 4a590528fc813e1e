"""Acceptance suite: one test per criterion, each printing its own verdict.

All arithmetic in the package is exact, so every comparison below is exact
equality; there are no tolerances anywhere.  Scopes follow the desk-scale
programme: ranks two and three quantify over every maximal rigid object,
rank four (and five where included) over translation-orbit representatives
for the character-level statements, with matrix and structural statements
kept exhaustive.
"""
import time

import pytest

from clustertube.cli import run as cli_run
from clustertube.tube import Tube, enumerate_maximal_rigid
from clustertube.verify import (
    ExchangeTable,
    SuiteContext,
    check_ar_recursion,
    check_b_matrix_compatibility,
    check_bijection,
    check_chi_oracle,
    check_denominators,
    check_exchange_coverage,
    check_exchange_relations,
    check_index_coindex,
    check_long_summand_lemmas,
    check_structure,
)
from verify_reference import tau_orbit_representatives

_tables = {}


def table_for(n: int) -> ExchangeTable:
    """One exchange table over every maximal rigid object at rank n, shared
    by every criterion, as ``run_suite`` builds it."""
    if n not in _tables:
        _tables[n] = ExchangeTable(enumerate_maximal_rigid(n, Tube(n)))
    return _tables[n]


def tube_for(n: int) -> Tube:
    return table_for(n).objects[0].tube


def over(ts, check, **kwargs):
    """Run a per-object check on each T in turn, each on its own suite
    context on the shared table, as ``run_suite`` does."""
    failures = []
    for t in ts:
        failures += check(SuiteContext(t, table_for(t.tube.n)), **kwargs)
    return failures


def report(name: str, failures, elapsed: float):
    status = "PASS" if not failures else f"FAIL ({len(failures)})"
    print(f"\nACCEPTANCE {name}: {status} [{elapsed:.1f}s]")
    assert not failures, failures[:5]


def test_criterion_1_worked_example_reproduction(capsys):
    start = time.time()
    code = cli_run(["reproduce-example"])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    failures = [] if code == 0 and "match with reference data: yes" in out else [out[-400:]]
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget is 10s")
    with capsys.disabled():
        report("1 worked-example reproduction", failures, elapsed)


@pytest.mark.parametrize("n,exhaustive", [(2, True), (3, True), (4, False)])
def test_criterion_2_bijection(n, exhaustive, capsys):
    start = time.time()
    tube = tube_for(n)
    ts = enumerate_maximal_rigid(n, tube) if exhaustive else tau_orbit_representatives(tube)
    failures = over(ts, check_bijection)
    with capsys.disabled():
        report(f"2 character bijection n={n} ({len(ts)} objects)", failures, time.time() - start)


@pytest.mark.parametrize("n,exhaustive", [(2, True), (3, True), (4, False)])
def test_criterion_3_denominators(n, exhaustive, capsys):
    start = time.time()
    tube = tube_for(n)
    ts = enumerate_maximal_rigid(n, tube) if exhaustive else tau_orbit_representatives(tube)
    failures = over(ts, check_denominators)
    with capsys.disabled():
        report(f"3 denominator vectors n={n}", failures, time.time() - start)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_4_exchange_relations(n, capsys):
    start = time.time()
    failures = check_exchange_coverage(table_for(n))
    failures += over(tau_orbit_representatives(tube_for(n)), check_exchange_relations)
    with capsys.disabled():
        report(f"4 exchange relations and walk n={n}", failures, time.time() - start)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_5_matrix_mutation_compatibility(n, capsys):
    start = time.time()
    ts = table_for(n).objects
    failures = over(ts, check_b_matrix_compatibility)
    with capsys.disabled():
        report(f"5 matrix formulas and mutation n={n} ({len(ts)} objects)", failures, time.time() - start)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_6_chi_oracle(n, capsys):
    start = time.time()
    tube = tube_for(n)
    ts = enumerate_maximal_rigid(n, tube)
    failures = over(ts, check_chi_oracle)
    with capsys.disabled():
        report(f"6 finite-field chi oracle n={n} ({len(ts)} objects)", failures, time.time() - start)


@pytest.mark.parametrize("n,exhaustive", [(2, True), (3, True), (4, False)])
def test_criterion_7_index_coindex(n, exhaustive, capsys):
    start = time.time()
    tube = tube_for(n)
    ts = enumerate_maximal_rigid(n, tube) if exhaustive else tau_orbit_representatives(tube)
    failures = over(ts, check_index_coindex)
    failures += over(tau_orbit_representatives(tube), check_long_summand_lemmas)
    with capsys.disabled():
        report(f"7 index/coindex laws n={n}", failures, time.time() - start)


@pytest.mark.parametrize("n,exhaustive", [(2, True), (3, True), (4, False)])
def test_criterion_8_ar_recursion(n, exhaustive, capsys):
    start = time.time()
    tube = tube_for(n)
    ts = enumerate_maximal_rigid(n, tube) if exhaustive else tau_orbit_representatives(tube)
    failures = over(ts, check_ar_recursion)
    with capsys.disabled():
        report(f"8 AR recursion n={n}", failures, time.time() - start)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_9_structure_validation(n, capsys):
    start = time.time()
    tube = tube_for(n)
    ts = enumerate_maximal_rigid(n, tube)
    failures = over(ts[:3], check_structure, associativity=True)
    failures += over(ts[3:], check_structure)
    with capsys.disabled():
        report(f"9 structure validation n={n} ({len(ts)} objects)", failures, time.time() - start)
