import gc
import json
import os
import threading
import time
import weakref
from collections import Counter

import pytest

from clustertube import amod, tube as tube_module, verify
from clustertube.amod import ModMap, apply_F
from clustertube.cli import run
from clustertube.endo import FinDimAlgebra
from clustertube.grassmann import OracleError
from clustertube.linalg import ExactMatrix
from clustertube.tube import (ApproxResult, ConsistencyError, Indec, MaximalRigid, Tube,
                              enumerate_maximal_rigid)


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


def _run_check(monkeypatch, site, exc):
    """Run the check behind one failure handler of ``verify`` with the
    call it guards replaced by one that raises ``exc``."""
    tube = Tube(2)
    t = enumerate_maximal_rigid(2, tube)[0]
    if site == "b_matrix":
        monkeypatch.setattr(verify, "b_matrix", _raise(exc))
        return t, verify.check_b_matrix_compatibility(verify.SuiteContext(t))
    monkeypatch.setattr(FinDimAlgebra, site, _raise(exc))
    return t, verify.check_structure(verify.SuiteContext(t), associativity=True)


SITES = ["b_matrix", "verify_relations", "verify_associativity"]


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("exc_type", [TypeError, KeyError])
def test_bug_in_a_check_propagates(monkeypatch, site, exc_type):
    with pytest.raises(exc_type):
        _run_check(monkeypatch, site, exc_type("bug"))


@pytest.mark.parametrize("site", SITES)
def test_consistency_error_is_a_failure_line(monkeypatch, site):
    t, failures = _run_check(monkeypatch, site, ConsistencyError("formulas disagree"))
    assert failures == [f"{t}: formulas disagree"]


# -- one context per maximal rigid object -------------------------------------


# End(T) sits in reference cycles (its modules point back at it), so only a
# full collection frees it; at n = 4 the 70 collections would cost seconds,
# and the liveness check runs at n = 3 only.
@pytest.mark.parametrize("n, check_liveness", [(3, True), (4, False)])
def test_one_context_per_object_and_one_alive_at_a_time(monkeypatch, n, check_liveness):
    built = []  # (T, weak reference to its End(T))
    build = verify.build_endomorphism_algebra

    def counting_build(t, check=True):
        if check_liveness:
            gc.collect()
            alive = [str(s) for s, ref in built if ref() is not None]
            assert alive == [], f"End(T) still alive when the next one is built: {alive}"
        algebra = build(t, check=check)
        built.append((t, weakref.ref(algebra)))
        return algebra

    calls = {}  # (id(T), k) -> count, for the objects the suite built End(T) for
    mutate = tube_module.mutate_rigid

    def counting_mutate(t, k):
        calls[(id(t), k)] = calls.get((id(t), k), 0) + 1
        return mutate(t, k)

    monkeypatch.setattr(verify, "build_endomorphism_algebra", counting_build)
    monkeypatch.setattr(verify, "mutate_rigid", counting_mutate)
    monkeypatch.setattr(tube_module, "mutate_rigid", counting_mutate)
    # one worker: the counters see only this process
    report = verify.run_suite(n, oracle=False, workers=1)
    assert report.ok
    ts = enumerate_maximal_rigid(n, Tube(n))
    assert len(built) == len(ts) == {3: 20, 4: 70}[n]
    assert [t.summands for t, _ in built] == [t.summands for t in ts]
    own = [calls.get((id(t), k), 0) for t, _ in built for k in range(1, n + 1)]
    assert own == [1] * (n * len(ts))


def _representative(tube):
    return verify.tau_orbit_representatives(tube)[0]


def test_failed_matrix_cross_check_is_a_failed_verification(monkeypatch, capsys):
    target = _representative(Tube(2))
    euler = amod.b_matrix_from_euler_form

    def negated_for_target(algebra):
        b = euler(algebra)
        if algebra.t.summands == target.summands:
            assert any(any(row) for row in b)
            return tuple(tuple(-x for x in row) for row in b)
        return b

    monkeypatch.setattr(amod, "b_matrix_from_euler_form", negated_for_target)
    needs_b = ["character bijection", "denominator vectors",
               "exchange relations and walk", "index and coindex laws"]
    failed = ["matrix formulas and mutation"] + needs_b

    assert run(["verify", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    lines = captured.out.splitlines()
    assert lines[-1] == "FAILURES PRESENT"
    for line in lines[:-1]:
        status, name = line[:10].strip(), line[11:]
        assert status == ("FAIL (1)" if name in failed else "PASS"), line

    assert run(["verify", "--n", "2", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    payload = json.loads(captured.out)
    assert not payload["ok"]
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == failed
    matrix_line, *rest = payload["failures"]
    assert matrix_line.startswith(
        f"matrix formulas and mutation: {target}: exchange-matrix formulas disagree: ")
    assert rest == [f"{name}: {target}: no exchange matrix, its formulas disagree"
                    for name in needs_b]


VACUOUS = {
    2: ["exchange relations and walk", "long-summand lemmas", "AR recursion"],
    3: ["exchange relations and walk", "long-summand lemmas", "AR recursion",
        "finite-field chi oracle"],
}


@pytest.mark.parametrize("n", [2, 3])
def test_a_check_that_visits_no_object_fails(monkeypatch, n):
    # without representatives, the checks scoped to them visit nothing
    monkeypatch.setattr(verify, "tau_orbit_representatives", lambda tube: [])
    report = verify.run_suite(n)
    assert [name for name, passed, _ in report.lines if not passed] == VACUOUS[n]
    assert report.failures == [f"{name}: visited no objects" for name in VACUOUS[n]]


# -- each existence claim builds a map, and the map can fail ----------------------


def _zero_map(algebra, g, src=None, tgt=None):
    src = apply_F(algebra, g.src) if src is None else src
    tgt = apply_F(algebra, g.tgt) if tgt is None else tgt
    return ModMap(src, tgt, [ExactMatrix.zero(tgt.dims[v], src.dims[v]) for v in range(algebra.n)])


def test_a_zero_map_fails_the_index_coindex_claims(monkeypatch):
    t = _representative(Tube(3))
    ctx = verify.SuiteContext(t)
    assert verify.check_index_coindex(ctx) == []
    monkeypatch.setattr(verify, "map_F", _zero_map)
    failures = verify.check_index_coindex(ctx)
    assert any(f.startswith(f"{t}: no embedding of the submodule at ") for f in failures)
    assert any(f.startswith(f"{t}: no surjection onto the factor at ") for f in failures)


def test_a_zero_map_fails_the_long_summand_claims(monkeypatch):
    # the first object whose submodule and factor are both nonzero: onto a
    # zero factor even the zero map is surjective
    t = verify.tau_orbit_representatives(Tube(3))[1]
    ctx = verify.SuiteContext(t)
    assert verify.check_long_summand_lemmas(ctx) == []
    monkeypatch.setattr(verify, "map_F", _zero_map)
    assert verify.check_long_summand_lemmas(ctx) == [
        f"{t}: long-summand submodule does not embed",
        f"{t}: long-summand factor is not a quotient",
    ]


def test_the_long_summand_approximations_need_two_copies(monkeypatch):
    approximation = verify.minimal_approximation

    def one_copy(tube, z, others, side):
        approx = approximation(tube, z, others, side)
        assert len(approx.middle) == 2
        return ApproxResult(approx.middle[:1], approx.components[:1])

    monkeypatch.setattr(verify, "minimal_approximation", one_copy)
    t = _representative(Tube(3))
    assert verify.check_long_summand_lemmas(verify.SuiteContext(t)) == [
        f"{t}: long-summand submodule does not embed: "
        "the approximation by (1,2) has multiplicity 1, not 2",
        f"{t}: long-summand factor is not a quotient: "
        "the approximation by (4,2) has multiplicity 1, not 2",
    ]


def test_an_irreducible_map_needs_a_one_dimensional_hom_space():
    tube = Tube(3)
    # the AR triangle (4,2) -> (4,3) + (1,1) -> (1,2)
    assert len(verify._irreducible_maps(tube, Indec(1, 2), [Indec(4, 3), Indec(1, 1)], True)) == 2
    # Hom((2,1), (1,2)) is zero, and End((1,5)) in the tube of rank 4 has dimension 2
    for x, y in ((Indec(1, 2), Indec(2, 1)), (Indec(1, 5), Indec(1, 5))):
        with pytest.raises(ConsistencyError):
            verify._irreducible_maps(tube, x, [y], True)


# -- the suite's exchange table: one mutate_rigid per directed edge ----------------


@pytest.mark.parametrize("n, mutations, approximations", [(3, 69, 148), (4, 296, 620)])
def test_one_mutation_per_directed_edge(monkeypatch, n, mutations, approximations):
    tables = []

    class KeptTable(verify.ExchangeTable):
        def __init__(self, objects=()):
            super().__init__(objects)
            tables.append(self)

    calls = []  # (T, k), holding T so that ids stay unique
    mutate, approximate = tube_module.mutate_rigid, tube_module.minimal_approximation
    approximated = []

    def counting_mutate(t, k):
        calls.append((t, k))
        return mutate(t, k)

    def counting_approximation(*args):
        approximated.append(args)
        return approximate(*args)

    monkeypatch.setattr(verify, "ExchangeTable", KeptTable)
    for module in (verify, tube_module):
        monkeypatch.setattr(module, "mutate_rigid", counting_mutate)
        monkeypatch.setattr(module, "minimal_approximation", counting_approximation)
    # one worker: the counters see only this process
    assert verify.run_suite(n, oracle=False, workers=1).ok
    (table,) = tables
    per_edge = Counter((id(t), k) for t, k in calls)
    # every directed edge once, on the enumerated object; the rest is the covering walk
    assert [per_edge.get((id(t), k)) for t in table.objects for k in range(1, n + 1)] == \
        [1] * (n * len(table.objects))
    assert len(calls) == mutations
    assert len(approximated) == approximations


def _forge(monkeypatch, forged):
    """Replace ``mutate_rigid`` by ``forged(t, k, mutate_rigid(t, k))``."""
    mutate = tube_module.mutate_rigid

    def forging(t, k):
        return forged(t, k, mutate(t, k))

    for module in (verify, tube_module):
        monkeypatch.setattr(module, "mutate_rigid", forging)


def test_the_matrix_check_reads_each_neighbours_own_triangles(monkeypatch):
    ts = enumerate_maximal_rigid(3, Tube(3))
    # T' and a direction whose right middle term is not empty; drop one summand of it
    target, old = next((t, d.old) for t in ts for d in verify._exchange_triangles(t)
                       if d.right_middle)

    def drop_one(t, k, data):
        if t.as_set() == target.as_set() and data.old == old:
            return data._replace(right_middle=data.right_middle[:-1],
                                 right_maps=data.right_maps[:-1])
        return data

    _forge(monkeypatch, drop_one)
    # the neighbours T of T', with the direction in which T mutates to T'
    neighbours = [(t, 1 + next(i for i, s in enumerate(t.summands) if s not in target.summands))
                  for t in ts if len(t.as_set() & target.as_set()) == 2]
    assert len(neighbours) == 3
    expected = {f"{t}: matrix mutation mismatch in direction {k}" for t, k in neighbours}

    prefix = "matrix formulas and mutation: "
    lines = [f[len(prefix):] for f in verify.run_suite(3, oracle=False).failures
             if f.startswith(prefix)]
    own = [line for line in lines if line not in expected]
    assert set(lines) - set(own) == expected
    assert len(own) == 1 and own[0].startswith(f"{target}: exchange-matrix formulas disagree: ")

    # the same lines from a table filled by hand, T' having no B_T of its own
    table = verify.ExchangeTable(ts)
    for t in ts:
        table.add(t, verify._exchange_triangles(t))
    lines = verify.check_matrix_mutation(table, {table.vertex(target)})
    assert len(lines) == 3 and set(lines) == expected


def test_a_forged_mutation_fails_the_exchange_graph(monkeypatch):
    ts = enumerate_maximal_rigid(2, Tube(2))
    target = ts[0]
    real = verify._exchange_triangles(target)[0].mutated
    back = next(t for t in ts if t.as_set() == real.as_set())

    def loop_back(t, k, data):
        # the mutation of T in direction 1 claims to give T itself
        return data._replace(mutated=t) if t.summands == target.summands and k == 1 else data

    _forge(monkeypatch, loop_back)
    report = verify.run_suite(2, oracle=False)
    assert ("tube invariants", False, 2) in report.lines
    assert [f for f in report.failures if f.startswith("tube invariants: ")] == [
        f"tube invariants: exchange graph: {target} has 1 distinct neighbours, not 2",
        f"tube invariants: exchange graph: mutating {target} at its new summand "
        f"does not give {back} back",
    ]


def test_a_mutation_outside_the_enumerated_set_fails_the_exchange_graph(monkeypatch):
    tube = Tube(2)
    ts = enumerate_maximal_rigid(2, tube)
    target = ts[0]
    real = verify._exchange_triangles(target)[0].mutated
    back = next(t for t in ts if t.as_set() == real.as_set())
    # mu_1 T's long summand with a short one that no maximal rigid object pairs it with
    sets = {t.as_set() for t in ts}
    outside = next(u for u in (MaximalRigid(tube, (real.long, x), validate=False)
                               for x in tube_module.all_rigid_indecs(tube) if x.b < 2)
                   if u.as_set() not in sets)

    def leave(t, k, data):
        return data._replace(mutated=outside) if t.summands == target.summands and k == 1 else data

    _forge(monkeypatch, leave)
    report = verify.run_suite(2, oracle=False)
    assert ("tube invariants", False, 3) in report.lines
    assert [f for f in report.failures if f.startswith("tube invariants: ")] == [
        f"tube invariants: mutation leaves the enumerated set at {target}, 1",
        f"tube invariants: exchange graph: {target} has 1 distinct neighbours, not 2",
        f"tube invariants: exchange graph: mutating {target} at its new summand "
        f"does not give {back} back",
    ]


def test_the_exchange_graph_is_certified():
    tube = Tube(3)
    ts = enumerate_maximal_rigid(3, tube)
    table = verify.ExchangeTable(ts)
    for t in ts:
        table.add(t, verify._exchange_triangles(t))
    assert verify.check_exchange_graph(tube, table) == []
    # cut vertex 0 out of the graph
    table.neighbours = {i: tuple(None if j == 0 else j for j in edges)
                        for i, edges in table.neighbours.items() if i != 0}
    failures = verify.check_exchange_graph(tube, table)
    assert failures[0] == f"exchange graph: {ts[0]} has 0 distinct neighbours, not 3"
    assert failures[-1] == f"exchange graph is not connected: 1 of 20 objects reachable from {ts[0]}"
    # a table over part of the objects has the wrong vertex count
    assert verify.check_exchange_graph(tube, verify.ExchangeTable(ts[:-1]))[0] == \
        "exchange graph has 19 vertices, not C(2n, n) = 20"


# -- the per-object loop split between this process and forked workers -------------


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counting_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("n, oracle, workers", [
    (2, True, 2), (2, False, 2), (2, True, 3), (3, True, 2), (3, False, 2)])
def test_split_and_single_process_reports_agree(monkeypatch, n, oracle, workers):
    forks = _counting_forks(monkeypatch)
    one = verify.run_suite(n, oracle=oracle, workers=1)
    assert forks == []
    split = verify.run_suite(n, oracle=oracle, workers=workers)
    assert len(forks) == workers - 1
    assert one.ok and split.ok
    assert (split.render(), split.lines, split.failures) == (one.render(), one.lines, one.failures)
    _no_child_left()


def _forged(monkeypatch, name, targets, action):
    """Replace the check ``verify.<name>`` by one that calls ``action(ctx)``
    on the objects ``targets`` and runs the real check elsewhere."""
    check = getattr(verify, name)

    def forged(ctx):
        if ctx.t.summands in targets:
            return action(ctx)
        return check(ctx)

    monkeypatch.setattr(verify, name, forged)


def test_failure_lines_from_a_worker_keep_their_order(monkeypatch, tmp_path):
    # ts[1] is in the forked worker's share, ts[2] in this process's
    ts = enumerate_maximal_rigid(2, Tube(2))
    log = tmp_path / "pids"

    def fail(ctx):
        with open(log, "a") as fh:
            fh.write(f"{ctx.t} {os.getpid()}\n")
        return [f"{ctx.t}: forged one", f"{ctx.t}: forged two"]

    targets = {ts[1].summands, ts[2].summands}
    _forged(monkeypatch, "check_denominators", targets, fail)
    _forged(monkeypatch, "check_index_coindex", targets, fail)
    one = verify.run_suite(2, workers=1)
    log.unlink()
    two = verify.run_suite(2, workers=2)
    pids = dict(line.rsplit(" ", 1) for line in log.read_text().splitlines())
    assert pids[str(ts[1])] != str(os.getpid()) == pids[str(ts[2])]
    expected = [f"{name}: {t}: forged {which}"
                for name in ("denominator vectors", "index and coindex laws")
                for t in (ts[1], ts[2]) for which in ("one", "two")]
    assert one.failures == two.failures == expected
    assert two.render() == one.render()
    _no_child_left()


def _in_worker(parent, action):
    """``action``, run only in a forked worker: this process must never
    take it."""
    def guarded(ctx):
        assert os.getpid() != parent, "the forged object ran in this process"
        return action(ctx)

    return guarded


def test_an_undecided_oracle_in_a_worker_exits_one(monkeypatch, capsys):
    ts = enumerate_maximal_rigid(2, Tube(2))

    def undecided(ctx):
        raise OracleError("oracle inconclusive")

    _forged(monkeypatch, "check_chi_oracle", {ts[1].summands}, _in_worker(os.getpid(), undecided))
    assert run(["verify", "--n", "2"]) == 1
    assert capsys.readouterr().err == "error: oracle inconclusive\n"
    _no_child_left()


def test_an_uncaught_error_in_a_worker_keeps_its_class(monkeypatch):
    ts = enumerate_maximal_rigid(2, Tube(2))

    def broken(ctx):
        raise ConsistencyError("forged fault")

    _forged(monkeypatch, "check_ar_recursion", {ts[1].summands}, _in_worker(os.getpid(), broken))
    with pytest.raises(ConsistencyError) as caught:
        verify.run_suite(2, workers=2)
    assert type(caught.value) is ConsistencyError and str(caught.value) == "forged fault"
    # the worker's own traceback comes along as the cause
    assert "forged fault" in str(caught.value.__cause__)
    _no_child_left()


def test_an_error_that_cannot_be_pickled_keeps_its_traceback(monkeypatch):
    ts = enumerate_maximal_rigid(2, Tube(2))

    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def broken(ctx):
        raise LocalError("not picklable")

    _forged(monkeypatch, "check_ar_recursion", {ts[1].summands}, _in_worker(os.getpid(), broken))
    with pytest.raises(RuntimeError, match="cannot be pickled") as caught:
        verify.run_suite(2, workers=2)
    assert "LocalError: not picklable" in str(caught.value)
    _no_child_left()


def test_a_worker_that_exits_without_a_result_is_an_error(monkeypatch):
    ts = enumerate_maximal_rigid(2, Tube(2))

    def leave(ctx):
        os._exit(0)

    _forged(monkeypatch, "check_ar_recursion", {ts[1].summands}, _in_worker(os.getpid(), leave))
    with pytest.raises(RuntimeError, match="exited without a result"):
        verify.run_suite(2, workers=2)
    _no_child_left()


def test_an_error_in_this_process_kills_the_worker(monkeypatch):
    ts = enumerate_maximal_rigid(2, Tube(2))
    parent = os.getpid()

    def hang_or_fail(ctx):
        if os.getpid() == parent:
            raise ConsistencyError("forged fault")
        time.sleep(60)
        return []

    _forged(monkeypatch, "check_ar_recursion", {ts[0].summands, ts[1].summands}, hang_or_fail)
    start = time.perf_counter()
    with pytest.raises(ConsistencyError, match="forged fault"):
        verify.run_suite(2, workers=2)
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_the_worker_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert [verify._worker_count(k) for k in (0, 1, 3, 20)] == [1, 1, 3, 4]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert verify._worker_count(20) == 1  # a fork would copy only this thread
    finally:
        release.set()
        thread.join()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify._worker_count(20) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert verify._worker_count(20) == 1


def test_objects_are_dealt_by_their_scheduled_checks():
    assert verify._deal([10, 10, 6, 6, 6], 2) == [[0, 2, 4], [1, 3]]
    assert verify._deal([2] * 5, 2) == [[0, 2, 4], [1, 3]]
    assert verify._deal([9, 1, 1, 1], 3) == [[0], [1, 3], [2]]
    assert verify._deal([1, 1], 1) == [[0, 1]]
