"""Rank-level verification suites tying all the modules together.

Each check returns a list of failure strings (empty means pass); the suite
runner aggregates them into a deterministic report.  Scopes follow the
desk-scale programme: everything is quantified over all maximal rigid
objects where feasible and over translation-orbit representatives where the
translation equivariance makes that exhaustive.
"""
from __future__ import annotations

import os
import sys
import threading
from functools import cached_property
from itertools import product
from math import comb
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from .cluster import ClusterError, ExchangeMatrix, mutate_matrix
from .endo import build_endomorphism_algebra, gabriel_quiver, validate_Qn
from .tube import (
    CHom,
    ConsistencyError,
    ExchangeData,
    Indec,
    MaximalRigid,
    Tube,
    TubeError,
    all_rigid_indecs,
    b_matrix,
    b_matrix_multiplicities,
    enumerate_maximal_rigid,
    in_pr_T,
    in_pr_sigma_T,
    minimal_approximation,
    mutate_rigid,
)
from .amod import (
    apply_F,
    coindex,
    index,
    injective,
    is_locally_free,
    is_tau_rigid,
    map_F,
    projective,
    rank_vector,
)
from .ccmap import CCMap
from .grassmann import (
    ar_sequences_ending_at_tau_rigid,
    chi_lf,
    chi_lf_oracle_fq,
    verify_ar_recursion,
)

# What a check reports as a failure line; any other exception is a bug in the
# check itself and propagates.
CHECK_ERRORS = (ConsistencyError, TubeError, ClusterError)


def tau_orbit_representatives(tube: Tube) -> List[MaximalRigid]:
    """One maximal rigid object per translation orbit: long summand at 1."""
    return [t for t in enumerate_maximal_rigid(tube.n, tube) if t.long == Indec(1, tube.n)]


def _stack_chom(tube: Tube, middle: Sequence[Indec], comps: Sequence[CHom], target: Indec,
                into_target: bool) -> CHom:
    """Assemble component morphisms into one block morphism."""
    src, tgt = (tuple(middle), (target,)) if into_target else ((target,), tuple(middle))
    out = CHom.zero(tube, src, tgt)
    for i, comp in enumerate(comps):
        key = (i, 0) if into_target else (0, i)
        if (0, 0) in comp.t:
            out.t[key] = comp.t[(0, 0)]
        if (0, 0) in comp.d:
            out.d[key] = comp.d[(0, 0)]
    return out


def _irreducible_maps(tube: Tube, x: Indec, middle: Sequence[Indec], into_x: bool) -> List[CHom]:
    """The irreducible tube maps y -> x (``into_x``) or x -> y, one for each
    y in ``middle``: the single basis element of its Hom space."""
    comps = []
    for y in middle:
        src, tgt = (y, x) if into_x else (x, y)
        basis = tube.hom_basis(src, tgt)
        if len(basis) != 1:
            raise ConsistencyError(f"Hom({src}, {tgt}) in the tube has dimension {len(basis)}, not 1")
        comps.append(CHom.t_single(tube, src, tgt, basis[0]))
    return comps


# -- the exchange table and the per-object context ---------------------------------


def _exchange_triangles(t: MaximalRigid) -> Tuple[ExchangeData, ...]:
    return tuple(mutate_rigid(t, k) for k in range(1, t.tube.n + 1))


class ExchangeTable:
    """The exchange graph of a list of maximal rigid objects, as recorded.

    A vertex is an object of ``objects``, found by its set of summands.
    ``add(t, triangles)`` records, from t's exchange triangles
    ``mutate_rigid(t, k)``, k = 1..n, where each mutation lands
    (``neighbours``: a vertex or ``None`` per position), each mutated
    object's summand order (``orders``) and t's multiplicity matrix with
    t's summand order (``matrices``).  The triangles are not kept.
    """

    def __init__(self, objects: Sequence[MaximalRigid]):
        self.objects: Tuple[MaximalRigid, ...] = tuple(objects)
        self._index = {t.as_set(): i for i, t in enumerate(self.objects)}
        self.neighbours: Dict[int, Tuple[Optional[int], ...]] = {}
        self.orders: Dict[int, Tuple[Tuple[Indec, ...], ...]] = {}
        self.matrices: Dict[int, Tuple[Tuple[Indec, ...], tuple]] = {}

    def vertex(self, t: MaximalRigid) -> Optional[int]:
        """The vertex with t's summands, or ``None``."""
        return self._index.get(t.as_set())

    def add(self, t: MaximalRigid, triangles: Sequence[ExchangeData]) -> None:
        i = self._index[t.as_set()]
        self.neighbours[i] = tuple(self.vertex(data.mutated) for data in triangles)
        self.orders[i] = tuple(data.mutated.summands for data in triangles)
        self.matrices[i] = (t.summands, b_matrix_multiplicities(t, triangles))


class SuiteContext:
    """What the checks of one maximal rigid object T share.

    ``algebra`` is End(T), built once, and with it the functor-image memo
    of the module layer.  ``triangles`` are T's exchange triangles
    ``mutate_rigid(t, k)`` for k = 1..n, and ``cc_map`` is the character map
    on End(T) and B_T; each is computed on first use and kept.
    ``run_suite`` holds one context at a time and drops it before the next
    T, so at most one End(T) is alive.
    """

    def __init__(self, t: MaximalRigid):
        self.t = t
        self.tube = t.tube
        self.algebra = build_endomorphism_algebra(t, check=False)
        self.b_failure: Optional[str] = None

    @cached_property
    def triangles(self) -> Tuple[ExchangeData, ...]:
        return _exchange_triangles(self.t)

    @cached_property
    def cc_map(self) -> Optional[CCMap]:
        """The character map, with B_T cross-validated once by its three
        formulas; ``None`` if they disagree, with ``b_failure`` saying why."""
        try:
            b = b_matrix(self.t, cross_validate=True, algebra=self.algebra,
                         triangles=self.triangles)
        except CHECK_ERRORS as exc:  # failed checks carry the details
            self.b_failure = f"{self.t}: {exc}"
            return None
        return CCMap(self.t, algebra=self.algebra, b=b)

    def no_b_matrix(self) -> List[str]:
        """The one failure line of a check that needs B_T when it has none."""
        return [f"{self.t}: no exchange matrix, its formulas disagree"]


# -- individual checks -----------------------------------------------------------
#
# Each check covers one maximal rigid object, given by its context, except
# ``check_tube_invariants``, which covers the tube, and the two checks that
# read an ``ExchangeTable``, which cover the recorded graph.


def check_b_matrix_compatibility(ctx: SuiteContext) -> List[str]:
    """The three formulas for B_T agree.  Their other half, mu_k(B_T) =
    B_{mu_k T}, is ``check_matrix_mutation`` over the recorded edges."""
    return [ctx.b_failure] if ctx.cc_map is None else []


def check_matrix_mutation(table: ExchangeTable, disagree: Collection[int] = ()) -> List[str]:
    """mu_k(B_T) = B_{mu_k T} on every recorded edge (T, k) that stays in
    the table: B_T is T's recorded multiplicity matrix, B_{mu_k T} the
    neighbour's, relabelled into the order of ``mutate_rigid(t, k).mutated``.
    A vertex in ``disagree`` (its three formulas disagree) has no B_T and
    is compared only as a neighbour."""
    failures = []
    # in vertex order, whatever order the entries were recorded in
    for i, around in sorted(table.neighbours.items()):
        if i in disagree:
            continue
        b = ExchangeMatrix(table.matrices[i][1])
        for k, (j, order) in enumerate(zip(around, table.orders[i]), 1):
            if j is None:
                continue
            labels, m = table.matrices[j]
            pos = [labels.index(s) for s in order]
            if mutate_matrix(b, k).b != tuple(tuple(m[r][c] for c in pos) for r in pos):
                failures.append(f"{table.objects[i]}: matrix mutation mismatch in direction {k}")
    return failures


def check_structure(ctx: SuiteContext, associativity: bool = False) -> List[str]:
    """Quiver shape, unique loop and defining relations, and associativity
    of the multiplication table if asked."""
    t, tube, algebra = ctx.t, ctx.tube, ctx.algebra
    failures = []
    try:
        algebra.verify_relations()
    except CHECK_ERRORS as exc:
        failures.append(f"{t}: {exc}")
    q = gabriel_quiver(algebra)
    if len(q.loops()) != 1:
        failures.append(f"{t}: loop count {len(q.loops())}")
    if not validate_Qn(q):
        failures.append(f"{t}: quiver outside the admissible class")
    expected_dim = sum(
        tube.hom_c_dim(a, b) for a in t.summands for b in t.summands
    )
    if algebra.dim != expected_dim:
        failures.append(f"{t}: algebra dimension {algebra.dim} != {expected_dim}")
    if associativity:
        try:
            algebra.verify_associativity()
        except CHECK_ERRORS as exc:
            failures.append(f"{t}: {exc}")
    return failures


def _cc_report(ctx: SuiteContext, report) -> List[str]:
    """The failure lines of one of ``CCMap``'s verification reports."""
    cm = ctx.cc_map
    if cm is None:
        return ctx.no_b_matrix()
    return [f"{ctx.t}: {f}" for f in report(cm)]


def check_bijection(ctx: SuiteContext) -> List[str]:
    return _cc_report(ctx, CCMap.verify_bijection)


def check_denominators(ctx: SuiteContext) -> List[str]:
    return _cc_report(ctx, CCMap.verify_denominators)


def check_exchange_relations(ctx: SuiteContext) -> List[str]:
    return _cc_report(ctx, CCMap.verify_exchange_relations)


def check_index_coindex(ctx: SuiteContext) -> List[str]:
    """Index/coindex laws: the matrix identity, suspension antisymmetry,
    additivity along exchange and AR triangles, and the maximal locally
    free submodules and factors of projectives and injectives."""
    t, tube, algebra = ctx.t, ctx.tube, ctx.algebra
    if ctx.cc_map is None:
        return ctx.no_b_matrix()
    b = ctx.cc_map.b
    failures = []
    n = tube.n
    sigma_t = {tube.tau(s) for s in t.summands}
    for x in all_rigid_indecs(tube):
        co = coindex(algebra, x)
        ix = index(algebra, x)
        mod = apply_F(algebra, x)
        rank = rank_vector(mod) if not mod.is_zero() else (0,) * n
        expected = tuple(
            sum(b.b[i][j] * rank[j] for j in range(n)) for i in range(n)
        )
        if tuple(c - i for c, i in zip(co, ix)) != expected:
            failures.append(f"{t}: coindex-index identity fails on {x}")
        if index(algebra, x) != tuple(-c for c in coindex(algebra, tube.tau(x))):
            failures.append(f"{t}: index vs suspended coindex fails on {x}")
    # additivity along exchange triangles, conditioned on the functor
    # image of the approximation being surjective resp. injective (the
    # surjective clause can only fire on AR triangles, handled below:
    # the identity of the replaced summand never factors through a
    # radical approximation)
    injective_fired = 0
    for k, data in enumerate(ctx.triangles, 1):
        if data.right_middle:
            g = _stack_chom(tube, data.right_middle, data.right_maps, data.old, True)
            f_right = map_F(algebra, g)
            if f_right.is_surjective():
                lhs = index(algebra, data.right_middle)
                rhs = tuple(
                    a + c for a, c in zip(index(algebra, data.new), index(algebra, data.old))
                )
                if lhs != rhs:
                    failures.append(f"{t}: index additivity fails at direction {k}")
        if data.left_middle:
            g = _stack_chom(tube, data.left_middle, data.left_maps, data.old, False)
            f_left = map_F(algebra, g)
            if f_left.is_injective():
                injective_fired += 1
                lhs = coindex(algebra, data.left_middle)
                rhs = tuple(
                    a + c
                    for a, c in zip(coindex(algebra, data.old), coindex(algebra, data.new))
                )
                if lhs != rhs:
                    failures.append(f"{t}: coindex additivity fails at direction {k}")
    if injective_fired == 0 and any(data.left_middle for data in ctx.triangles):
        failures.append(f"{t}: coindex additivity hypothesis never fired")
    # AR triangles: additivity off the shifted summands, the locally
    # free submodule/factor descriptions at them
    for x in all_rigid_indecs(tube):
        middle_objs = [tube.indec(x.a - 1, x.b + 1)]
        if x.b > 1:
            middle_objs.append(tube.indec(x.a, x.b - 1))
        if not all(in_pr_T(t, y) and in_pr_sigma_T(t, y) for y in middle_objs):
            continue
        sigma_x = tube.tau(x)
        if x not in sigma_t and sigma_x not in sigma_t:
            lhs_i = index(algebra, tuple(middle_objs))
            rhs_i = tuple(
                a + c for a, c in zip(index(algebra, x), index(algebra, sigma_x))
            )
            lhs_c = coindex(algebra, tuple(middle_objs))
            rhs_c = tuple(
                a + c for a, c in zip(coindex(algebra, x), coindex(algebra, sigma_x))
            )
            if lhs_i != rhs_i or lhs_c != rhs_c:
                failures.append(f"{t}: AR additivity fails at {x}")
        elif x in sigma_t:
            k = next(i for i, s in enumerate(t.summands) if tube.tau(s) == x)
            if k == 0:
                continue
            mid = apply_F(algebra, tuple(middle_objs))
            inj = injective(algebra, k + 1)
            if not is_locally_free(mid):
                failures.append(f"{t}: injective factor not locally free at {k+1}")
                continue
            expected_dims = tuple(
                d - int(v == k) for v, d in enumerate(inj.dims)
            )
            if mid.dims != expected_dims:
                failures.append(f"{t}: injective factor dimensions off at {k+1}")
            g = _stack_chom(tube, middle_objs, _irreducible_maps(tube, sigma_x, middle_objs, False),
                            sigma_x, False)
            onto = map_F(algebra, g)
            if not (onto.commutes() and onto.is_surjective()):
                failures.append(f"{t}: no surjection onto the factor at {k+1}")
            expected_co = tuple(-b.b[i][k] for i in range(n))
            if coindex(algebra, tuple(middle_objs)) != expected_co:
                failures.append(f"{t}: factor coindex off at {k+1}")
        elif sigma_x in sigma_t:
            k = next(i for i, s in enumerate(t.summands) if s == x)
            if k == 0:
                continue
            mid = apply_F(algebra, tuple(middle_objs))
            proj = projective(algebra, k + 1)
            if not is_locally_free(mid):
                failures.append(f"{t}: projective submodule not locally free at {k+1}")
                continue
            expected_dims = tuple(
                d - int(v == k) for v, d in enumerate(proj.dims)
            )
            if mid.dims != expected_dims:
                failures.append(f"{t}: projective submodule dimensions off at {k+1}")
            g = _stack_chom(tube, middle_objs, _irreducible_maps(tube, x, middle_objs, True), x, True)
            into = map_F(algebra, g)
            if not (into.commutes() and into.is_injective()):
                failures.append(f"{t}: no embedding of the submodule at {k+1}")
            lhs = coindex(algebra, t.summands[k])
            rhs = tuple(
                a + c
                for a, c in zip(
                    coindex(algebra, tuple(middle_objs)),
                    coindex(algebra, tube.tau(t.summands[k], 2)),
                )
            )
            if lhs != rhs:
                failures.append(f"{t}: submodule coindex identity off at {k+1}")
    return failures


def check_long_summand_lemmas(ctx: SuiteContext) -> List[str]:
    """At the long summand: the doubled wing neighbours are the maximal
    locally free submodule of the projective and factor of the injective."""
    t, tube, algebra = ctx.t, ctx.tube, ctx.algebra
    failures = []
    n = tube.n
    p1 = projective(algebra, 1)
    i1 = injective(algebra, 1)
    sub = apply_F(algebra, (Indec(1, n - 1), Indec(1, n - 1)))
    fac = apply_F(algebra, (tube.indec(n + 1, n - 1), tube.indec(n + 1, n - 1)))
    for mod, name in ((sub, "submodule"), (fac, "factor")):
        if not is_locally_free(mod):
            failures.append(f"{t}: long-summand {name} not locally free")
    lv = 0
    expected_sub = tuple(d - 2 * int(v == lv) for v, d in enumerate(p1.dims))
    expected_fac = tuple(d - 2 * int(v == lv) for v, d in enumerate(i1.dims))
    if sub.dims != expected_sub:
        failures.append(f"{t}: long-summand submodule dimensions off")
    if fac.dims != expected_fac:
        failures.append(f"{t}: long-summand factor dimensions off")
    # the embedding is the minimal right approximation of T_1 = (1, n) by
    # its wing neighbour, the quotient the minimal left approximation of
    # the injective's object (n, n); each has exactly two copies in its middle
    for z, u, right, failure in (
        (Indec(1, n), Indec(1, n - 1), True, "submodule does not embed"),
        (tube.indec(n, n), tube.indec(n + 1, n - 1), False, "factor is not a quotient"),
    ):
        approx = minimal_approximation(tube, z, [u], "right" if right else "left")
        if len(approx.middle) != 2:
            failures.append(f"{t}: long-summand {failure}: "
                            f"the approximation by {u} has multiplicity {len(approx.middle)}, not 2")
            continue
        f = map_F(algebra, _stack_chom(tube, approx.middle, approx.components, z, right))
        if not (f.commutes() and (f.is_injective() if right else f.is_surjective())):
            failures.append(f"{t}: long-summand {failure}")
    return failures


def check_ar_recursion(ctx: SuiteContext) -> List[str]:
    t = ctx.t
    failures = []
    count = 0
    for l_mod, m_mod, n_mod, end in ar_sequences_ending_at_tau_rigid(ctx.algebra):
        if not is_tau_rigid(n_mod):
            failures.append(f"{t}: end term at {end} is not rigid in the module sense")
            continue
        if not verify_ar_recursion(l_mod, m_mod, n_mod):
            failures.append(f"{t}: recursion fails on the sequence ending at {end}")
        count += 1
    if count == 0:
        failures.append(f"{t}: no AR sequences found")
    return failures


def check_chi_oracle(ctx: SuiteContext) -> List[str]:
    t = ctx.t
    failures = []
    for x in all_rigid_indecs(ctx.tube):
        mod = apply_F(ctx.algebra, x)
        if mod.is_zero():
            continue
        rank = rank_vector(mod)
        for e in product(*[range(r + 1) for r in rank]):
            direct = chi_lf(mod, e)
            oracle = chi_lf_oracle_fq(mod, e)
            if direct != oracle:
                failures.append(f"{t}: chi mismatch at {x}, e={e}: {direct} vs {oracle}")
    return failures


def check_tube_invariants(tube: Tube) -> List[str]:
    """Cheap structural invariants of the morphism calculus."""
    failures = []
    n = tube.n
    rigids = all_rigid_indecs(tube)
    for x in rigids[: 2 * n]:
        for y in rigids[: 2 * n]:
            if tube.hom_c_dim(x, y) != tube.hom_c_dim(tube.tau(x), tube.tau(y)):
                failures.append(f"hom dimension not translation invariant at {x},{y}")
            if tube.ext1_c_dim(x, y) != tube.ext1_c_dim(y, x):
                failures.append(f"symmetry of extensions fails at {x},{y}")
    return failures


def check_exchange_graph(tube: Tube, table: ExchangeTable) -> List[str]:
    """The exchange graph of the maximal rigid objects, as the table
    recorded it, is the type-C_n exchange graph (Buan-Marsh-Vatne, Math. Z.
    265, 2010): C(2n, n) vertices; every mutation lands on one of them, and
    each vertex has n distinct neighbours; mutating mu_k T at the new
    summand gives T back; and it is connected."""
    n, ts, edges = tube.n, table.objects, table.neighbours
    failures = []
    if len(ts) != comb(2 * n, n):
        failures.append(f"exchange graph has {len(ts)} vertices, "
                        f"not C(2n, n) = {comb(2 * n, n)}")
    for i, t in enumerate(ts):
        failures += [f"mutation leaves the enumerated set at {t}, {k}"
                     for k, j in enumerate(edges.get(i, ()), 1) if j is None]
        around = [j for j in dict.fromkeys(edges.get(i, ())) if j is not None and j != i]
        if len(around) != n:
            failures.append(f"exchange graph: {t} has {len(around)} distinct neighbours, not {n}")
        for j in around:
            u = ts[j]
            new = u.as_set() - t.as_set()
            back = edges.get(j)
            if len(new) != 1 or back is None or back[u.summands.index(*new)] != i:
                failures.append(f"exchange graph: mutating {u} at its new summand "
                                f"does not give {t} back")
    reached = {0} if ts else set()
    todo = list(reached)
    while todo:
        for j in edges.get(todo.pop(), ()):
            if j is not None and j not in reached:
                reached.add(j)
                todo.append(j)
    if len(reached) != len(ts):
        failures.append(f"exchange graph is not connected: {len(reached)} of {len(ts)} "
                        f"objects reachable from {ts[0]}")
    return failures


class SuiteReport:
    def __init__(self):
        self.lines: List[Tuple[str, bool, int]] = []
        self.failures: List[str] = []

    def add(self, name: str, failures: List[str]):
        self.lines.append((name, not failures, len(failures)))
        self.failures.extend(f"{name}: {f}" for f in failures)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.lines)

    def render(self) -> str:
        out = []
        for name, passed, nfail in self.lines:
            status = "PASS" if passed else f"FAIL ({nfail})"
            out.append(f"{status:10s} {name}")
        out.append(("ALL PASS" if self.ok else "FAILURES PRESENT"))
        return "\n".join(out)


# -- splitting the per-object loop between processes --------------------------------


def _worker_count(objects: int) -> int:
    """How many processes share the per-object loop: one per CPU this
    process may run on, at most one per object.  One where ``os.fork`` or
    ``os.sched_getaffinity`` is missing (Windows, macOS), or where other
    threads run, since a fork copies only the calling thread."""
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not forkable or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), objects))


def _deal(weights: Sequence[int], workers: int) -> List[List[int]]:
    """Split the indices of ``weights`` into ``workers`` shares: in index
    order, each goes to the first share with the least weight so far."""
    shares: List[List[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i, weight in enumerate(weights):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += weight
    return shares


def _serve_share(work: Callable[[Sequence[int]], list], share: Sequence[int], fd: int) -> None:
    """In a forked child: write the pickled outcome of ``work(share)`` to
    ``fd`` and leave the process, never returning into the caller's frames.

    The outcome is ``("rows", rows)``, or ``("raise", exc, text)`` with
    whatever ``work`` raised and its traceback text.  An exception that
    does not survive pickling is sent as ``("lost", text)``.  Nothing is
    caught: the exception in flight is read in the ``finally`` that ends
    the process, and the parent raises it again."""
    import pickle
    import traceback

    outcome = None
    try:
        outcome = ("rows", work(share))
    finally:
        try:
            if outcome is None:
                exc = sys.exc_info()[1]
                text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
                try:
                    pickle.loads(pickle.dumps(exc))
                    outcome = ("raise", exc, text)
                except (pickle.PickleError, TypeError, AttributeError):
                    outcome = ("lost", text)
            data = pickle.dumps(outcome)
            with os.fdopen(fd, "wb") as out:
                out.write(data)
        finally:
            os._exit(0)


def _map_shares(work: Callable[[Sequence[int]], list], shares: Sequence[Sequence[int]]) -> list:
    """The rows of ``work(share)`` for every share, in share order.

    The first share runs in this process, each other one in a forked child
    that sends its rows back through a pipe (``_serve_share``).  A child's
    exception is raised here again with its class and message; one that
    could not be pickled, or a child that sent nothing, raises
    ``RuntimeError``.  Every child is reaped on every path, and killed
    first if its rows were not read.  With one share there is no fork."""
    if len(shares) == 1:
        return work(shares[0])
    import pickle
    import signal

    children = []  # (share number, pid, read end of its pipe)
    read = set()
    try:
        for number, share in enumerate(shares[1:], 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _serve_share(work, share, w)
            os.close(w)
            children.append((number, pid, os.fdopen(r, "rb")))
        rows = work(shares[0])
        for number, pid, pipe in children:
            data = pipe.read()
            read.add(pid)
            if not data:
                raise RuntimeError(f"the worker on share {number} of the objects "
                                   f"exited without a result")
            kind, *outcome = pickle.loads(data)
            if kind == "raise":
                exc, text = outcome
                raise exc from RuntimeError(f"raised in the worker on share {number}:\n{text}")
            if kind == "lost":
                raise RuntimeError(f"the worker on share {number} raised an exception "
                                   f"that cannot be pickled:\n{outcome[0]}")
            rows += outcome[0]
        return rows
    finally:
        for number, pid, pipe in children:
            pipe.close()
            if pid not in read:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_suite(n: int, oracle: bool = True, workers: Optional[int] = None) -> SuiteReport:
    """The full invariant suite for one tube rank.

    Scopes: everything runs over all maximal rigid objects for n <= 3; for
    n = 4 the character and module checks run over translation-orbit
    representatives (translation is an autoequivalence, so this is
    exhaustive up to relabelling) while matrix and structure checks stay
    exhaustive; n = 5 runs the structure checks only.

    One loop over the maximal rigid objects: each T gets one context,
    every check whose scope holds T runs on it, and the context is dropped
    before the next T.  A scheduled check that visits no object fails.

    The loop is split between ``workers`` processes, by default one per
    CPU this process may run on and at most one per object (one without
    ``os.fork`` or with other threads running; see ``_worker_count``).
    The objects are dealt in enumeration order, each to the share with
    the fewest scheduled checks so far (``_deal``).  This process runs
    the first share itself, after the work every T shares (the
    enumeration, the table and the tube checks, which warm the tube's
    caches), and each other share runs in a forked child.  Each process
    holds at most one End(T) at a time.  The per-object results are merged
    in enumeration order, so the report and its failure lines do not
    depend on the worker count.

    The suite owns one ``ExchangeTable`` over the enumerated objects, held
    only while it runs.  Each context computes its triangles on the
    enumerated T, so ``mutate_rigid`` runs once per directed edge (T, k), and
    records them in the table as the per-object part of "tube invariants",
    at every rank.  After the loop, "tube invariants" certifies the recorded
    exchange graph, and, where the matrix check is scheduled, "matrix
    formulas and mutation" checks mu_k(B_T) = B_{mu_k T} on every recorded
    edge.
    """
    tube = Tube(n)
    ts_all = enumerate_maximal_rigid(n, tube)
    reps = {t.summands for t in tau_orbit_representatives(tube)}
    table = ExchangeTable(ts_all)
    disagree = set()  # the vertices whose three B_T formulas disagree
    associative = {t.summands for t in ts_all[:3]}

    def record(ctx: SuiteContext) -> List[str]:
        table.add(ctx.t, ctx.triangles)
        return []

    def every(t: MaximalRigid) -> bool:
        return True

    def is_rep(t: MaximalRigid) -> bool:
        return t.summands in reps

    characters = every if n <= 3 else is_rep
    # (report line, check on one context, scope), in report order
    schedule = [
        ("tube invariants", record, every),
        ("quiver shape and relations",
         lambda ctx: check_structure(ctx, associativity=ctx.t.summands in associative), every),
    ]
    if n <= 4:
        schedule += [
            ("matrix formulas and mutation", check_b_matrix_compatibility, every),
            ("character bijection", check_bijection, characters),
            ("denominator vectors", check_denominators, characters),
            ("exchange relations and walk", check_exchange_relations, is_rep),
            ("index and coindex laws", check_index_coindex, characters),
            ("long-summand lemmas", check_long_summand_lemmas, is_rep),
            ("AR recursion", check_ar_recursion, is_rep),
        ]
    if n <= 3 and oracle:
        schedule.append(("finite-field chi oracle", check_chi_oracle, every if n == 2 else is_rep))

    def run_share(share: Sequence[int]) -> list:
        """Per object of ``share``: its index, each scheduled check's
        failure lines (``None`` out of scope), whether its B_T formulas
        disagree, and its table entry."""
        rows = []
        for i in share:
            t = ts_all[i]
            ctx = SuiteContext(t)
            found = [check(ctx) if scope(t) else None for _, check, scope in schedule]
            rows.append((i, found, ctx.b_failure is not None,
                         (table.neighbours[i], table.orders[i], table.matrices[i])))
            del ctx
        return rows

    failures = {name: [] for name, _, _ in schedule}
    visited = dict.fromkeys(failures, 0)
    failures["tube invariants"] = check_tube_invariants(tube)
    if workers is None:
        workers = _worker_count(len(ts_all))
    shares = _deal([sum(1 for _, _, scope in schedule if scope(t)) for t in ts_all], workers)
    for i, found, b_failed, entry in sorted(_map_shares(run_share, shares), key=lambda row: row[0]):
        for (name, _, _), lines in zip(schedule, found):
            if lines is not None:
                visited[name] += 1
                failures[name].extend(lines)
        if b_failed:
            disagree.add(i)
        table.neighbours[i], table.orders[i], table.matrices[i] = entry
    failures["tube invariants"].extend(check_exchange_graph(tube, table))
    if n <= 4:
        failures["matrix formulas and mutation"].extend(check_matrix_mutation(table, disagree))
    report = SuiteReport()
    for name in failures:
        report.add(name, failures[name] if visited[name] else ["visited no objects"])
    return report
