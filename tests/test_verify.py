import gc
import json
import os
import pickle
import threading
import time
import weakref
from collections import Counter
from functools import lru_cache

import pytest

from clustertube import amod, tube as tube_module, verify
from clustertube.amod import ModMap, apply_F
from clustertube.ccmap import CCMap
from clustertube.cli import run
from clustertube.endo import FinDimAlgebra
from clustertube.grassmann import OracleError
from clustertube.laurent import LaurentPoly
from clustertube.linalg import ExactMatrix
from clustertube.tube import (ApproxResult, ConsistencyError, Indec, MaximalRigid, Tube,
                              TubeError, enumerate_maximal_rigid)

from verify_reference import tau_orbit_representatives


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


def _context(t):
    """T's suite context, on a table over every object of its tube."""
    return verify.SuiteContext(t, _recorded(t.tube.n))


def _run_check(monkeypatch, site, exc):
    """Run the check behind one failure handler of ``verify`` with the
    call it guards replaced by one that raises ``exc``."""
    t = _recorded(2).objects[0]
    if site == "b_matrix":
        monkeypatch.setattr(verify, "b_matrix", _raise(exc))
        return t, verify.check_b_matrix_compatibility(_context(t))
    monkeypatch.setattr(FinDimAlgebra, site, _raise(exc))
    return t, verify.check_structure(_context(t), associativity=True)


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

    def counting_build(t):
        if check_liveness:
            gc.collect()
            alive = [str(s) for s, ref in built if ref() is not None]
            assert alive == [], f"End(T) still alive when the next one is built: {alive}"
        algebra = build(t)
        built.append((t, weakref.ref(algebra)))
        return algebra

    calls = {}  # (id(T), k) -> count, for the objects the suite built End(T) for
    mutate = tube_module.mutate_rigid

    def counting_mutate(t, k):
        calls[(id(t), k)] = calls.get((id(t), k), 0) + 1
        return mutate(t, k)

    groups = []
    frame_groups = verify._frame_groups

    def recording_groups(ts, weights):
        groups.extend(frame_groups(ts, weights))
        return groups

    monkeypatch.setattr(verify, "build_endomorphism_algebra", counting_build)
    monkeypatch.setattr(verify, "mutate_rigid", counting_mutate)
    monkeypatch.setattr(tube_module, "mutate_rigid", counting_mutate)
    monkeypatch.setattr(verify, "_frame_groups", recording_groups)
    # one worker: the counters see only this process, which runs the
    # groups in their order
    report = verify.run_suite(n, oracle=False, workers=1)
    assert report.ok
    ts = enumerate_maximal_rigid(n, Tube(n))
    assert len(built) == len(ts) == {3: 20, 4: 70}[n]
    assert [t.summands for t, _ in built] == [ts[i].summands for group in groups for i in group]
    own = [calls.get((id(t), k), 0) for t, _ in built for k in range(1, n + 1)]
    assert own == [1] * (n * len(ts))


def _representative(tube):
    return tau_orbit_representatives(tube)[0]


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
    monkeypatch.setattr(verify, "is_orbit_representative", lambda t: False)
    report = verify.run_suite(n)
    assert [name for name, passed, _ in report.lines if not passed] == VACUOUS[n]
    assert report.failures == [f"{name}: visited no objects" for name in VACUOUS[n]]


# -- each existence claim builds a map, and the map can fail ----------------------


def _zero_map(algebra, src_objs, tgt_objs, blocks):
    src, tgt = apply_F(algebra, src_objs), apply_F(algebra, tgt_objs)
    return ModMap(src, tgt, [ExactMatrix.zero(tgt.dims[v], src.dims[v]) for v in range(algebra.n)])


def test_a_zero_map_fails_the_index_coindex_claims(monkeypatch):
    t = _representative(_recorded(3).objects[0].tube)
    ctx = _context(t)
    assert verify.check_index_coindex(ctx) == []
    monkeypatch.setattr(verify, "map_F", _zero_map)
    failures = verify.check_index_coindex(ctx)
    assert any(f.startswith(f"{t}: no embedding of the submodule at ") for f in failures)
    assert any(f.startswith(f"{t}: no surjection onto the factor at ") for f in failures)


def test_a_zero_map_fails_the_long_summand_claims(monkeypatch):
    # the first object whose submodule and factor are both nonzero: onto a
    # zero factor even the zero map is surjective
    t = tau_orbit_representatives(_recorded(3).objects[0].tube)[1]
    ctx = _context(t)
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
    t = _representative(_recorded(3).objects[0].tube)
    assert verify.check_long_summand_lemmas(_context(t)) == [
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


def _triangles(t):
    """T's exchange triangles, k = 1..n."""
    return [tube_module.mutate_rigid(t, k) for k in range(1, t.tube.n + 1)]


@pytest.mark.parametrize("n, mutations, approximations", [(3, 60, 130), (4, 280, 588)])
def test_one_mutation_per_directed_edge(monkeypatch, tmp_path, n, mutations, approximations):
    tables = []

    class KeptTable(verify.ExchangeTable):
        def __init__(self, objects):
            super().__init__(objects)
            tables.append(self)

    calls = []  # (T, k) in this process, holding T so that ids stay unique
    log = tmp_path / "calls"  # one line per call in any process: what, pid
    mutate, approximate = tube_module.mutate_rigid, tube_module.minimal_approximation
    check_relations = verify.check_exchange_relations

    def logged(line):
        with open(log, "a") as fh:
            fh.write(f"{line} {os.getpid()}\n")

    def counting_mutate(t, k):
        calls.append((t, k))
        logged("mutate")
        return mutate(t, k)

    def counting_approximation(*args):
        logged("approximate")
        return approximate(*args)

    def counting_relations(ctx):
        logged(f"relations:{len(ctx.table.relations)}")
        return check_relations(ctx)

    monkeypatch.setattr(verify, "ExchangeTable", KeptTable)
    monkeypatch.setattr(verify, "check_exchange_relations", counting_relations)
    for module in (verify, tube_module):
        monkeypatch.setattr(module, "mutate_rigid", counting_mutate)
        monkeypatch.setattr(module, "minimal_approximation", counting_approximation)
    for workers in (1, 2):
        calls.clear()
        log.write_text("")
        assert verify.run_suite(n, oracle=False, workers=workers).ok
        table = tables[-1]
        per_edge = Counter((id(t), k) for t, k in calls)
        # every directed edge once, on the enumerated object, in this process
        # before the fork, and no other mutation
        assert [per_edge.get((id(t), k)) for t in table.objects for k in range(1, n + 1)] == \
            [1] * (n * len(table.objects))
        assert len(calls) == mutations == n * len(table.objects)
        ran = Counter(line.split()[0] for line in log.read_text().splitlines())
        # summed over every process: two approximations per directed edge, and
        # two per representative for the long-summand lemmas
        assert (ran["mutate"], ran["approximate"]) == (mutations, approximations)
        # every distinct relation, on every representative
        assert ran[f"relations:{({3: 22, 4: 60}[n])}"] == {3: 5, 4: 14}[n]
    _no_child_left()


def _filled_table(n):
    """An exchange table over every maximal rigid object at rank n, as
    ``run_suite`` builds it."""
    return verify.ExchangeTable(enumerate_maximal_rigid(n, Tube(n)))


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
    target, old = next((t, d.old) for t in ts for d in _triangles(t) if d.right_middle)

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
    for workers in (1, 2):
        lines = [f[len(prefix):] for f in verify.run_suite(3, oracle=False, workers=workers).failures
                 if f.startswith(prefix)]
        own = [line for line in lines if line not in expected]
        assert set(lines) - set(own) == expected
        assert len(own) == 1 and own[0].startswith(f"{target}: exchange-matrix formulas disagree: ")
    _no_child_left()

    # the same lines from the neighbours' contexts on a table built by hand
    table = verify.ExchangeTable(ts)
    lines = [line for t, _ in neighbours
             for line in verify.check_b_matrix_compatibility(verify.SuiteContext(t, table))]
    assert len(lines) == 3 and set(lines) == expected


def test_a_closed_form_hom_basis_that_drops_a_shift_fails_the_tube_invariants(monkeypatch):
    assert verify.check_tube_invariants(Tube(3)) == []
    real = Tube._hom_shifts
    # every Hom basis, and every dimension read from the shifts, loses its first shift
    monkeypatch.setattr(Tube, "_hom_shifts", lambda self, x, y: real(self, x, y)[1:])
    failures = verify.check_tube_invariants(Tube(3))
    dims = [f for f in failures if f.startswith("hom dimension not translation invariant at ")]
    bases = [f for f in failures if f.startswith("hom basis differs from a direct solve at ")]
    assert dims and bases and len(dims) + len(bases) == len(failures)


def test_a_closed_form_hom_basis_with_one_wrong_entry_fails_the_tube_invariants(monkeypatch):
    tube = Tube(3)
    x = y = tube.tau(Indec(1, 3))
    real = Tube.hom_basis

    def one_wrong_entry(self, src, tgt):
        basis = real(self, src, tgt)
        if (src, tgt) != (x, y):
            return basis
        first = basis[0]
        v = next(v for v, m in enumerate(first) if m.nrows and m.ncols)
        rows = [list(r) for r in first[v].rows]
        rows[0][0] += 1
        return [first[:v] + (ExactMatrix(rows),) + first[v + 1:]] + basis[1:]

    # the dimensions come from the shifts, so only the map-by-map comparison sees it
    monkeypatch.setattr(Tube, "hom_basis", one_wrong_entry)
    failures = verify.check_tube_invariants(tube)
    assert failures and set(failures) == {f"hom basis differs from a direct solve at {x},{y}"}


def test_a_closed_form_ext_space_that_drops_a_diagonal_fails_the_tube_invariants(monkeypatch):
    tube = Tube(3)
    x, y = Indec(2, 1), Indec(1, 1)  # Ext^1((2,1), tau (2,1)) has the one diagonal 0
    assert tube.ext_space(x, y).dim == 1
    real = tube_module.ExtSpace.__init__

    def dropping(self, tube, src, tgt):
        real(self, tube, src, tgt)
        if (src, tgt) == (x, y):
            self.members, self.reps, self.diagonals = (), (), ()

    monkeypatch.setattr(tube_module.ExtSpace, "__init__", dropping)
    # the dimension is read nowhere else on these objects, so only the
    # comparison with the cokernel sees it
    assert verify.check_tube_invariants(Tube(3)) == [
        f"ext space differs from the cokernel at {x},{y}"]


def test_a_moved_structure_constant_fails_the_tube_invariants(monkeypatch):
    assert verify.check_tube_invariants(Tube(3)) == []
    real = verify.basis_product

    def moved(tube, x, y, z, i, j):
        pos = real(tube, x, y, z, i, j)
        return None if pos is None else (pos + 1) % tube.hom_c_dim(x, z)

    monkeypatch.setattr(verify, "basis_product", moved)
    failures = verify.check_tube_invariants(Tube(3))
    assert failures and all(f.startswith("structure constant differs from composition at ")
                            for f in failures)


def test_a_forged_mutation_fails_the_exchange_graph(monkeypatch):
    ts = enumerate_maximal_rigid(2, Tube(2))
    target = ts[0]
    real = tube_module.mutate_rigid(target, 1).mutated
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
    real = tube_module.mutate_rigid(target, 1).mutated
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
    table = _filled_table(3)
    tube, ts = table.objects[0].tube, table.objects
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


# -- every exchange relation, from the recorded graph ------------------------------


@lru_cache(maxsize=None)
def _recorded(n):
    """``_filled_table(n)``, shared: a test that changes its table, or
    forges a mutation, makes its own."""
    return _filled_table(n)


def _relation(old, new, right, left):
    """A relation keyed as ``ExchangeTable.relations`` keys it."""
    return (*sorted((old, new)), *sorted((tuple(sorted(right)), tuple(sorted(left)))))


def _relation_families(tube):
    """The long, length-n and short relation families, once written out by
    hand in the character map, as (old, new, right middle, left middle)."""
    n, p = tube.n, tube.indec
    x1 = tube.tau(Indec(1, n))
    families = [(x1, p(1, n), (), (p(1, n - 1),) * 2),
                (x1, p(n, n), (), (p(n + 1, n - 1),) * 2)]
    families += [(p(c, n), p(c + 1, n), (), (p(c + 1, n - 1),) * 2) for c in range(1, n)]
    families += [(p(a, b), p(a + 1, b), (), (() if b == 1 else (p(a + 1, b - 1),)) + (p(a, b + 1),))
                 for b in range(1, n) for a in range(1, n + 2)]
    return [_relation(*r) for r in families]


@pytest.mark.parametrize("n, relations, families", [(2, 6, 6), (3, 22, 12), (4, 60, 20),
                                                     (5, 135, 30)])
def test_the_recorded_relations_hold_the_hand_written_families(n, relations, families):
    recorded = _recorded(n).relations
    assert len(recorded) == len(set(recorded)) == relations
    hand_written = _relation_families(Tube(n))
    assert len(set(hand_written)) == families
    assert set(hand_written) <= set(recorded)


@pytest.mark.parametrize("n", [2, 3])
def test_every_recorded_exchange_relation_holds(monkeypatch, n):
    # at rank two on every object, as on every mutation edge before; at rank
    # three on the representatives, as in the suite
    table = _recorded(n)
    ts = table.objects if n == 2 else tau_orbit_representatives(table.objects[0].tube)
    if n == 2:
        # the boundary collapse is stated for the long summand at (1, n)
        monkeypatch.setattr(CCMap, "verify_exchange_relations", lambda cm: [])
    assert len(ts) == {2: 6, 3: 5}[n]
    assert [line for t in ts for line in verify.check_exchange_relations(_context(t))] == []


def test_a_forged_triangle_fails_the_exchange_relations_on_every_representative(monkeypatch):
    tube = Tube(3)
    ts = enumerate_maximal_rigid(3, tube)
    reps = tau_orbit_representatives(tube)
    # a triangle with a nonempty right middle term, on an object that is not
    # a representative (so every representative keeps its B_T); drop one summand
    target, forged = next((t, data) for t in ts if t.long != Indec(1, 3)
                          for data in _triangles(t) if data.right_middle)

    def drop_one(t, k, data):
        if t.as_set() == target.as_set() and data.old == forged.old:
            return data._replace(right_middle=data.right_middle[:-1],
                                 right_maps=data.right_maps[:-1])
        return data

    _forge(monkeypatch, drop_one)
    a, b = sorted((forged.old, forged.new))
    name = "exchange relations and walk"
    expected = [f"{name}: {t}: exchange relation fails on the pair {a}, {b}" for t in reps]
    for workers in (1, 2):
        report = verify.run_suite(3, oracle=False, workers=workers)
        assert (name, False, len(reps)) in report.lines
        assert [f for f in report.failures if f.startswith(f"{name}: ")] == expected
    _no_child_left()


def test_a_rigid_object_exchanged_by_no_relation_fails_the_coverage():
    table = _filled_table(2)
    x = table.objects[0].summands[-1]
    assert verify.check_exchange_coverage(table) == []
    table.relations = [r for r in table.relations if x not in r[:2]]
    assert verify.check_exchange_coverage(table) == [
        f"no recorded exchange relation exchanges {x}"]


def test_characters_with_no_relation_to_check_fail():
    table = _filled_table(2)
    tube = table.objects[0].tube
    t = _representative(tube)
    table.relations = []  # nothing recorded
    assert verify.check_exchange_coverage(table) == [
        "no recorded exchange relation exchanges "
        + ", ".join(map(str, tube_module.all_rigid_indecs(tube)))]
    assert verify.check_exchange_relations(verify.SuiteContext(t, table)) == [
        f"{t}: no exchange relation checked"]


def test_a_context_is_on_an_object_of_its_table():
    table = _recorded(3)
    t = table.objects[1]
    with pytest.raises(TubeError, match="not an object of the exchange table"):
        verify.SuiteContext(t.reordered(t.summands[:0:-1]), table)
    with pytest.raises(TubeError, match="not an object of the exchange table"):
        verify.SuiteContext(t, verify.ExchangeTable(table.objects[:1]))


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


def test_a_worker_sends_only_failure_lines(monkeypatch):
    # no character (nor any other Laurent polynomial) crosses a pipe: the
    # split suite passes with LaurentPoly unpicklable
    monkeypatch.setattr(LaurentPoly, "__reduce_ex__", _raise(TypeError("pickled a character")))
    with pytest.raises(TypeError, match="pickled a character"):
        pickle.dumps(LaurentPoly.one(2))
    rows = []
    map_groups = verify._map_groups

    def keeping(work, groups, workers):
        out = map_groups(work, groups, workers)
        rows.extend(out)
        return out

    monkeypatch.setattr(verify, "_map_groups", keeping)
    assert verify.run_suite(3, workers=2).ok
    # per object, its index and each check's failure lines or None
    assert sorted(i for i, _ in rows) == list(range(20))
    assert all(lines is None or lines == [] for _, found in rows for lines in found)
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_forged_chi_table_fails_the_oracle_and_the_recursion(monkeypatch, workers):
    # on F(2,3) over (1,3)+(1,2)+(2,1), B_T e is one vector for e = (0, 2, 2)
    # and (1, 2, 0); moving one count between them keeps every character,
    # so only the checks that read the table itself can see it
    from clustertube import grassmann

    frame = (Indec(1, 3), Indec(1, 2), Indec(2, 1))
    real_table = grassmann._chi_table

    def forged(m):
        table = real_table(m)
        if m.algebra.t.summands == frame and m.provenance == (Indec(2, 3),):
            assert table.entries[(0, 2, 2)] == table.entries[(1, 2, 0)] == 1
            entries = dict(table.entries)
            entries[(0, 2, 2)] = 2
            del entries[(1, 2, 0)]
            return grassmann.ChiTable(entries)
        return table

    monkeypatch.setattr(grassmann, "_chi_table", forged)
    report = verify.run_suite(3, workers=workers)
    t = MaximalRigid(Tube(3), frame)
    assert report.failures == [
        f"AR recursion: {t}: recursion fails on the sequence ending at (2,3)",
        f"AR recursion: {t}: recursion fails on the sequence ending at (3,3)",
        f"finite-field chi oracle: {t}: chi mismatch at (2,3), e=(0, 2, 2): 2 vs 1",
        f"finite-field chi oracle: {t}: chi mismatch at (2,3), e=(1, 2, 0): 0 vs 1",
    ]
    _no_child_left()


def _made_groups(monkeypatch):
    """The groups of each later ``run_suite``, in queue order, recorded as
    it makes them: worker k runs group k first."""
    made = []
    frame_groups = verify._frame_groups

    def recording(ts, weights):
        groups = frame_groups(ts, weights)
        made.append(groups)
        return groups

    monkeypatch.setattr(verify, "_frame_groups", recording)
    return made


def _forged_on_first_groups(monkeypatch, names, n, action, workers=(1,)):
    """Replace each check ``verify.<name>`` of ``names`` by one that calls
    ``action(ctx)`` on the objects of the group each worker in ``workers``
    runs first (0 is this process), and runs the real check elsewhere.
    Returns the groups each later ``run_suite`` makes."""
    ts = enumerate_maximal_rigid(n, Tube(n))
    made = _made_groups(monkeypatch)

    def forge(check):
        def forged(ctx):
            targets = {ts[i].summands for k in workers for i in made[-1][k]}
            return action(ctx) if ctx.t.summands in targets else check(ctx)
        return forged

    for name in names:
        monkeypatch.setattr(verify, name, forge(getattr(verify, name)))
    return made


def test_failure_lines_from_a_worker_keep_their_order(monkeypatch, tmp_path):
    # the first groups of this process and of the forked worker, fixed before
    # the fork: at rank two they are the only groups
    ts = enumerate_maximal_rigid(2, Tube(2))
    log = tmp_path / "pids"

    def fail(ctx):
        with open(log, "a") as fh:
            fh.write(f"{ctx.t} {os.getpid()}\n")
        return [f"{ctx.t}: forged one", f"{ctx.t}: forged two"]

    made = _forged_on_first_groups(monkeypatch, ("check_denominators", "check_index_coindex"),
                                   2, fail, workers=(0, 1))
    one = verify.run_suite(2, workers=1)
    log.unlink()
    two = verify.run_suite(2, workers=2)
    first, second = made[-1]
    assert sorted(first + second) == list(range(len(ts)))
    pids = dict(line.rsplit(" ", 1) for line in log.read_text().splitlines())
    assert {pids[str(ts[i])] for i in first} == {str(os.getpid())}
    assert len({pids[str(ts[i])] for i in second}) == 1
    assert pids[str(ts[second[0]])] != str(os.getpid())
    expected = [f"{name}: {t}: forged {which}"
                for name in ("denominator vectors", "index and coindex laws")
                for t in ts for which in ("one", "two")]
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
    def undecided(ctx):
        raise OracleError("oracle inconclusive")

    monkeypatch.setattr(verify, "_worker_count", lambda groups: 2)
    _forged_on_first_groups(monkeypatch, ("check_chi_oracle",), 2, _in_worker(os.getpid(), undecided))
    assert run(["verify", "--n", "2"]) == 1
    assert capsys.readouterr().err == "error: oracle inconclusive\n"
    _no_child_left()


def test_an_uncaught_error_in_a_worker_keeps_its_class(monkeypatch):
    def broken(ctx):
        raise ConsistencyError("forged fault")

    _forged_on_first_groups(monkeypatch, ("check_ar_recursion",), 2, _in_worker(os.getpid(), broken))
    with pytest.raises(ConsistencyError) as caught:
        verify.run_suite(2, workers=2)
    assert type(caught.value) is ConsistencyError and str(caught.value) == "forged fault"
    # the worker's own traceback comes along as the cause
    assert "forged fault" in str(caught.value.__cause__)
    _no_child_left()


def test_an_error_that_cannot_be_pickled_keeps_its_traceback(monkeypatch):
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def broken(ctx):
        raise LocalError("not picklable")

    _forged_on_first_groups(monkeypatch, ("check_ar_recursion",), 2, _in_worker(os.getpid(), broken))
    with pytest.raises(RuntimeError, match="cannot be pickled") as caught:
        verify.run_suite(2, workers=2)
    assert "LocalError: not picklable" in str(caught.value)
    _no_child_left()


def test_a_worker_that_exits_without_a_result_is_an_error(monkeypatch):
    def leave(ctx):
        os._exit(0)

    _forged_on_first_groups(monkeypatch, ("check_ar_recursion",), 2, _in_worker(os.getpid(), leave))
    with pytest.raises(RuntimeError, match="exited without a result"):
        verify.run_suite(2, workers=2)
    _no_child_left()


def test_an_error_in_this_process_kills_the_worker(monkeypatch):
    parent = os.getpid()

    def hang_or_fail(ctx):
        if os.getpid() == parent:
            raise ConsistencyError("forged fault")
        time.sleep(60)
        return []

    _forged_on_first_groups(monkeypatch, ("check_ar_recursion",), 2, hang_or_fail, workers=(0, 1))
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


def test_one_worker_needs_no_fork_and_no_pipe(monkeypatch):
    # where the worker count is 1 for want of os.fork, os.set_blocking may be
    # missing too (on Windows before Python 3.12): one worker uses neither,
    # and runs the groups in their order
    one = verify.run_suite(2, oracle=False, workers=1)
    for name in ("fork", "pipe", "set_blocking"):
        monkeypatch.delattr(os, name, raising=False)
    ran = []

    def work(group):
        ran.append(list(group))
        return [i * 10 for i in group]

    assert verify._map_groups(work, [[2, 3], [0], [1]], 1) == [20, 30, 0, 10]
    assert ran == [[2, 3], [0], [1]]
    report = verify.run_suite(2, oracle=False)
    assert (report.render(), report.failures) == (one.render(), one.failures)


def test_groups_are_frames_heaviest_first():
    ts = enumerate_maximal_rigid(3, Tube(3))
    # ties keep the order of the groups' first members
    assert verify._frame_groups(ts, [1] * 20) == [
        [0, 5, 12, 19], [3, 8, 14, 15], [2, 7, 13], [4, 9, 17], [1, 6], [10, 18], [11], [16]]
    weights = [1] * 20
    weights[16] = 9
    assert verify._frame_groups(ts, weights)[:2] == [[16], [0, 5, 12, 19]]
    assert verify._frame(ts[5]) == ts[0].summands


@pytest.mark.parametrize("n, classes", [(2, 2), (3, 8), (4, 30), (5, 112)])
def test_the_frames_are_the_content_classes_of_the_algebras(n, classes):
    ts = enumerate_maximal_rigid(n, Tube(n))
    algebras = (verify.build_endomorphism_algebra(t) for t in ts)
    numbers = [(amod._algebra_class(a), amod._injectives_class(a)) for a in algebras]
    groups = verify._frame_groups(ts, [1] * len(ts))
    assert len(groups) == classes
    assert [len({numbers[i] for i in group}) for group in groups] == [1] * classes
    assert len({numbers[group[0]] for group in groups}) == classes


def test_a_group_never_leaves_the_process_that_claimed_it(monkeypatch, tmp_path):
    ts = enumerate_maximal_rigid(3, Tube(3))
    log = tmp_path / "pids"
    check = verify.check_structure

    def logging(ctx, associativity=False):
        with open(log, "a") as fh:
            fh.write(f"{ts.index(ctx.t)} {os.getpid()}\n")
        return check(ctx, associativity)

    made = _made_groups(monkeypatch)
    monkeypatch.setattr(verify, "check_structure", logging)
    assert verify.run_suite(3, oracle=False, workers=2).ok
    ran = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    pid = dict(ran)
    groups = made[-1]
    assert sorted(pid) == list(range(20))
    assert [len({pid[i] for i in group}) for group in groups] == [1] * len(groups)
    # each process starts with its own first group, in index order
    firsts = {}
    for i, p in ran:
        firsts.setdefault(p, []).append(i)
    assert firsts[os.getpid()][:len(groups[0])] == groups[0]
    assert [order[:len(groups[1])] for p, order in firsts.items() if p != os.getpid()] == [
        groups[1]]
    _no_child_left()


def test_the_queue_takes_what_the_pipe_holds_and_returns_the_rest():
    r, w = os.pipe()
    try:
        rest = verify._fill_queue(w, range(100_000))  # 400 kB, more than a pipe holds
        os.close(w)
        w = None
        queued = []
        while data := os.read(r, 4096):
            queued += [int.from_bytes(data[k:k + 4], "little") for k in range(0, len(data), 4)]
    finally:
        if w is not None:
            os.close(w)
        os.close(r)
    assert rest and queued + rest == list(range(100_000))


def test_groups_the_pipe_cannot_take_run_in_this_process(monkeypatch):
    one = verify.run_suite(3, oracle=False, workers=1)
    monkeypatch.setattr(verify, "_fill_queue", lambda fd, numbers: list(numbers))
    split = verify.run_suite(3, oracle=False, workers=2)
    assert (split.render(), split.failures) == (one.render(), one.failures)
    _no_child_left()


# -- the module memo across the objects of one End(T) class -------------------------


def _counting_copresentations(monkeypatch, log):
    copresent = amod.injective_copresentation

    def counting(m):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return copresent(m)

    monkeypatch.setattr(amod, "injective_copresentation", counting)


@pytest.mark.parametrize("n, most", [(3, 1300), (4, 2900)])
def test_products_of_basis_morphisms_come_from_the_table(monkeypatch, n, most):
    # each product of two basis morphisms is composed once, for the tube's
    # table of structure constants (554 at n = 3), and the associativity
    # check composes on its three objects (420 at n = 3)
    calls = []
    compose = tube_module.CHom.compose

    def counting(self, other):
        calls.append(None)
        return compose(self, other)

    monkeypatch.setattr(tube_module.CHom, "compose", counting)
    assert verify.run_suite(n, workers=1).ok  # one worker: the counter sees every call
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("workers", [1, 2])
def test_each_coindex_is_computed_once_per_class(monkeypatch, tmp_path, workers):
    # without the memo the suite makes 220 copresentations; 88 of them have
    # distinct inputs (End(T) class, F(X))
    log = tmp_path / "calls"
    _counting_copresentations(monkeypatch, log)
    assert verify.run_suite(3, workers=workers).ok
    pids = log.read_text().split()
    assert len(pids) == 88
    assert len(set(pids)) == workers
    _no_child_left()


def test_a_forged_functor_image_misses_the_memo_and_fails_only_its_object(monkeypatch):
    # ts[5] shares its frame, and so its End(T) class, with ts[0], which runs
    # first; one entry of its projective F(T_1) is forged
    ts = enumerate_maximal_rigid(3, Tube(3))
    target = ts[5]
    build = verify.build_endomorphism_algebra
    numbers = {}

    def forging(t):
        algebra = build(t)
        if t == target:
            p1 = apply_F(algebra, t.summands[0])
            mats = list(p1.mats)
            rows = [list(row) for row in mats[1].rows]
            assert rows[0][0] != 0
            rows[0][0] = 0
            mats[1] = ExactMatrix(rows, ncols=mats[1].ncols)
            algebra._module_cache[(t.summands[0],)] = amod.AModule(
                algebra, p1.dims, mats, provenance=p1.provenance)
        numbers[t.summands] = amod._algebra_class(algebra)
        return algebra

    monkeypatch.setattr(verify, "build_endomorphism_algebra", forging)
    report = verify.run_suite(3, oracle=False, workers=1)
    assert not report.ok
    assert {f.split(": ")[1] for f in report.failures} == {str(target)}
    group = next(g for g in verify._frame_groups(ts, [1] * 20) if 5 in g)
    assert numbers[target.summands] not in {numbers[ts[i].summands] for i in group if i != 5}
    assert len({numbers[ts[i].summands] for i in group if i != 5}) == 1
