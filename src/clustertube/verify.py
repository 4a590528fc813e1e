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
from functools import cached_property, reduce
from itertools import product
from math import comb
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cluster import ClusterError, mutate_matrix
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
    basis_product,
    chom_coords,
    enumerate_maximal_rigid,
    hom_c_basis,
    in_pr_T,
    in_pr_sigma_T,
    minimal_approximation,
    mutate_rigid,
    unit_coords,
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
    _sigma_summand_index,
)
from .ccmap import CCMap
from .laurent import LaurentPoly
from .linalg import QuotientSpace, intertwiner_basis
from .grassmann import (
    ar_sequences_ending_at_tau_rigid,
    chi_lf_oracle_fq,
    chi_table,
    verify_ar_recursion,
)

# What a check reports as a failure line; any other exception is a bug in the
# check itself and propagates.
CHECK_ERRORS = (ConsistencyError, TubeError, ClusterError)


def is_orbit_representative(t: MaximalRigid) -> bool:
    """Whether t represents its translation orbit: its long summand is at 1."""
    return t.long == Indec(1, t.tube.n)


def _induced(algebra, middle: Sequence[Indec], comps: Sequence[CHom], target: Indec,
             into_target: bool):
    """``map_F`` of the morphism with the components middle_i -> target
    (``into_target``) or target -> middle_i, each block taken in
    hom_c_basis coordinates."""
    tube = algebra.tube
    src, tgt = (tuple(middle), (target,)) if into_target else ((target,), tuple(middle))
    return map_F(algebra, src, tgt, {((i, 0) if into_target else (0, i)): chom_coords(tube, comp)
                                     for i, comp in enumerate(comps)})


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


# An exchange relation X_old X_new = prod X_right + prod X_left, as
# (old, new, right middle, left middle)
Relation = Tuple[Indec, Indec, Tuple[Indec, ...], Tuple[Indec, ...]]


class ExchangeTable:
    """The exchange graph of a list of maximal rigid objects, built once.

    A vertex is an object of ``objects``, found by its set of summands.
    Building the table runs ``mutate_rigid(t, k)``, k = 1..n, once for each
    object t and keeps the triangles (``triangles``, per vertex).  From them
    it records where each mutation lands (``neighbours``: a vertex or
    ``None`` per position), each vertex's multiplicity matrix in its own
    summand order (``matrices``), and every distinct exchange relation
    (``relations``, sorted): keyed by its unordered pair and its unordered
    pair of sorted middle terms, so that an edge and its reverse give one
    relation.  Nothing is added to a built table.
    """

    def __init__(self, objects: Sequence[MaximalRigid]):
        self.objects: Tuple[MaximalRigid, ...] = tuple(objects)
        self._index = {t.as_set(): i for i, t in enumerate(self.objects)}
        self.triangles: Tuple[Tuple[ExchangeData, ...], ...] = tuple(
            tuple(mutate_rigid(t, k) for k in range(1, t.tube.n + 1)) for t in self.objects)
        self.neighbours: Dict[int, Tuple[Optional[int], ...]] = {
            i: tuple(self.vertex(data.mutated) for data in around)
            for i, around in enumerate(self.triangles)}
        self.matrices = tuple(b_matrix_multiplicities(t, around)
                              for t, around in zip(self.objects, self.triangles))
        self.relations: List[Relation] = sorted(
            {(*sorted((d.old, d.new)), *sorted((tuple(sorted(d.right_middle)),
                                                 tuple(sorted(d.left_middle)))))
             for around in self.triangles for d in around})

    def vertex(self, t: MaximalRigid) -> Optional[int]:
        """The vertex with t's summands, or ``None``."""
        return self._index.get(t.as_set())


class SuiteContext:
    """What the checks of one maximal rigid object T share.

    T is an object of ``table``, in the table's summand order, and
    ``triangles`` are its exchange triangles as the table keeps them.
    ``algebra`` is End(T), built once, and with it the functor-image memo
    of the module layer; ``cc_map``, the character map on End(T) and B_T,
    is computed on first use and kept.  ``run_suite`` holds one context at
    a time and drops it before the next T, so at most one End(T) is alive.
    """

    def __init__(self, t: MaximalRigid, table: ExchangeTable):
        self.vertex = table.vertex(t)
        if self.vertex is None or table.objects[self.vertex] != t:
            raise TubeError(f"{t} is not an object of the exchange table")
        self.t = t
        self.tube = t.tube
        self.table = table
        self.triangles = table.triangles[self.vertex]
        self.algebra = build_endomorphism_algebra(t)
        self.b_failure: Optional[str] = None

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
# ``check_tube_invariants``, ``check_exchange_graph`` and
# ``check_exchange_coverage``, which cover the tube and its exchange table.


def check_b_matrix_compatibility(ctx: SuiteContext) -> List[str]:
    """The three formulas for B_T agree, and mu_k(B_T) = B_{mu_k T} on each
    edge (T, k) that stays in the table: B_{mu_k T} is the neighbour's
    recorded multiplicity matrix, relabelled into the order of
    ``mutate_rigid(t, k).mutated``."""
    if ctx.cc_map is None:
        return [ctx.b_failure]
    table, failures = ctx.table, []
    for k, (j, data) in enumerate(zip(table.neighbours[ctx.vertex], ctx.triangles), 1):
        if j is None:
            continue
        labels, m = table.objects[j].summands, table.matrices[j]
        pos = [labels.index(s) for s in data.mutated.summands]
        if mutate_matrix(ctx.cc_map.b, k).b != tuple(tuple(m[r][c] for c in pos) for r in pos):
            failures.append(f"{ctx.t}: matrix mutation mismatch in direction {k}")
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
    """The boundary collapse, and X_old X_new = prod X_right + prod X_left
    on T's characters for every distinct relation the table records
    (``ExchangeTable.relations``, in order); fails if there is none."""
    t, cm = ctx.t, ctx.cc_map
    if cm is None:
        return ctx.no_b_matrix()
    failures = [f"{t}: {f}" for f in cm.verify_exchange_relations()]
    relations = ctx.table.relations
    if not relations:
        failures.append(f"{t}: no exchange relation checked")
    polys = {x: cm.cc(x).poly for x in all_rigid_indecs(ctx.tube)}
    one = LaurentPoly.one(ctx.tube.n)
    for old, new, right, left in relations:
        if polys[old] * polys[new] != (reduce(mul, (polys[x] for x in right), one)
                                       + reduce(mul, (polys[x] for x in left), one)):
            failures.append(f"{t}: exchange relation fails on the pair {old}, {new}")
    return failures


def check_exchange_coverage(table: ExchangeTable) -> List[str]:
    """Every rigid indecomposable is exchanged by some recorded relation."""
    exchanged = {x for old, new, _, _ in table.relations for x in (old, new)}
    missing = [x for x in all_rigid_indecs(table.objects[0].tube) if x not in exchanged]
    return ["no recorded exchange relation exchanges " + ", ".join(map(str, missing))
            ] if missing else []


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
    sigma = _sigma_summand_index(algebra)
    for x in all_rigid_indecs(tube):
        co = coindex(algebra, x)
        ix = index(algebra, x)
        rank = rank_vector(apply_F(algebra, x))
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
            f_right = _induced(algebra, data.right_middle, data.right_maps, data.old, True)
            if f_right.is_surjective():
                lhs = index(algebra, data.right_middle)
                rhs = tuple(
                    a + c for a, c in zip(index(algebra, data.new), index(algebra, data.old))
                )
                if lhs != rhs:
                    failures.append(f"{t}: index additivity fails at direction {k}")
        if data.left_middle:
            f_left = _induced(algebra, data.left_middle, data.left_maps, data.old, False)
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
        middle_objs = tube.ar_middle(x)
        if not all(in_pr_T(t, y) and in_pr_sigma_T(t, y) for y in middle_objs):
            continue
        sigma_x = tube.tau(x)
        if x not in sigma and sigma_x not in sigma:
            lhs_i = index(algebra, middle_objs)
            rhs_i = tuple(
                a + c for a, c in zip(index(algebra, x), index(algebra, sigma_x))
            )
            lhs_c = coindex(algebra, middle_objs)
            rhs_c = tuple(
                a + c for a, c in zip(coindex(algebra, x), coindex(algebra, sigma_x))
            )
            if lhs_i != rhs_i or lhs_c != rhs_c:
                failures.append(f"{t}: AR additivity fails at {x}")
        elif x in sigma:
            k = sigma[x]
            if k == 0:
                continue
            mid = apply_F(algebra, middle_objs)
            inj = injective(algebra, k + 1)
            if not is_locally_free(mid):
                failures.append(f"{t}: injective factor not locally free at {k+1}")
                continue
            expected_dims = tuple(
                d - int(v == k) for v, d in enumerate(inj.dims)
            )
            if mid.dims != expected_dims:
                failures.append(f"{t}: injective factor dimensions off at {k+1}")
            onto = _induced(algebra, middle_objs,
                            _irreducible_maps(tube, sigma_x, middle_objs, False), sigma_x, False)
            if not (onto.commutes() and onto.is_surjective()):
                failures.append(f"{t}: no surjection onto the factor at {k+1}")
            expected_co = tuple(-b.b[i][k] for i in range(n))
            if coindex(algebra, middle_objs) != expected_co:
                failures.append(f"{t}: factor coindex off at {k+1}")
        elif sigma_x in sigma:
            k = sigma[sigma_x]
            if k == 0:
                continue
            mid = apply_F(algebra, middle_objs)
            proj = projective(algebra, k + 1)
            if not is_locally_free(mid):
                failures.append(f"{t}: projective submodule not locally free at {k+1}")
                continue
            expected_dims = tuple(
                d - int(v == k) for v, d in enumerate(proj.dims)
            )
            if mid.dims != expected_dims:
                failures.append(f"{t}: projective submodule dimensions off at {k+1}")
            into = _induced(algebra, middle_objs,
                            _irreducible_maps(tube, x, middle_objs, True), x, True)
            if not (into.commutes() and into.is_injective()):
                failures.append(f"{t}: no embedding of the submodule at {k+1}")
            lhs = coindex(algebra, t.summands[k])
            rhs = tuple(
                a + c
                for a, c in zip(
                    coindex(algebra, middle_objs),
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
        f = _induced(algebra, approx.middle, approx.components, z, right)
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
    """Every entry of the chi table of each functor image, the table the
    characters sum, against the finite-field oracle; an entry missing from
    the table counts as 0."""
    t = ctx.t
    failures = []
    for x in all_rigid_indecs(ctx.tube):
        mod = apply_F(ctx.algebra, x)
        if mod.is_zero():
            continue
        entries = chi_table(mod).entries
        for e in product(*[range(r + 1) for r in rank_vector(mod)]):
            direct = entries.get(e, 0)
            oracle = chi_lf_oracle_fq(mod, e)
            if direct != oracle:
                failures.append(f"{t}: chi mismatch at {x}, e={e}: {direct} vs {oracle}")
    return failures


def _direct_hom_basis(tube: Tube, x: Indec, y: Indec) -> list:
    """The basis of Hom(x, y) from its own intertwiner solve, never from the
    shift maps that ``Tube.hom_basis`` builds in closed form."""
    return intertwiner_basis(tube.indec_dims(x), tube.indec_dims(y), tube.hom_equations(x, y))


def _ext_differs(tube: Tube, x: Indec, y: Indec) -> bool:
    """Whether the closed-form ``tube.ext_space(x, y)`` differs from the
    row-reduced cokernel of the differential, in its dimension, its
    representatives or the projection of one ambient unit."""
    space = tube.ext_space(x, y)
    total, spanning = tube.ext_differential(x, y)
    direct = QuotientSpace(total, spanning)
    if (space.total, space.dim, space.reps) != (total, direct.dim, direct.nonpivots):
        return True
    units = ([int(k == e) for k in range(total)] for e in range(total))
    return any(space.project(u) != direct.project(u) for u in units)


def check_tube_invariants(tube: Tube) -> List[str]:
    """Cheap structural invariants of the morphism calculus.  For each pair
    (x, y), the closed-form bases of Hom(tau x, tau y) and
    Hom(tau y, tau^3 x) must equal direct solves map by map, so a missing
    shift or one wrong entry shows; hom_c_dim(x, y), read from the shifts
    alone, must equal dim Hom_C(tau x, tau y) from those solves; and the
    closed-form Ext^1(x, y) and shift stratum of Hom_C(x, y) must equal the
    row-reduced cokernels of their differentials.  On each triple of those
    objects, every structure constant read by ``basis_product``, as the unit
    vector at its position, must equal the coordinates of the composed
    basis morphisms."""
    failures = []
    n = tube.n
    rigids = all_rigid_indecs(tube)[: 2 * n]
    for x in rigids:
        tx = tube.tau(x)
        for y in rigids:
            ty = tube.tau(y)
            direct = 0
            for src, tgt in ((tx, ty), (ty, tube.tau(tx, 2))):
                basis = _direct_hom_basis(tube, src, tgt)
                if tube.hom_basis(src, tgt) != basis:
                    failures.append(f"hom basis differs from a direct solve at {src},{tgt}")
                direct += len(basis)
            if tube.hom_c_dim(x, y) != direct:
                failures.append(f"hom dimension not translation invariant at {x},{y}")
            if tube.ext1_c_dim(x, y) != tube.ext1_c_dim(y, x):
                failures.append(f"symmetry of extensions fails at {x},{y}")
            for tgt in (y, tube.tau(y, -1)):
                if _ext_differs(tube, x, tgt):
                    failures.append(f"ext space differs from the cokernel at {x},{tgt}")
    for x, y, z in product(rigids, repeat=3):
        dim = len(hom_c_basis(tube, x, z))
        for i, u in enumerate(hom_c_basis(tube, y, z)):
            for j, v in enumerate(hom_c_basis(tube, x, y)):
                expected = unit_coords(basis_product(tube, x, y, z, i, j), dim)
                if chom_coords(tube, u.compose(v)) != expected:
                    failures.append(f"structure constant differs from composition "
                                    f"at {x},{y},{z}, {i},{j}")
    return failures


def check_exchange_graph(tube: Tube, table: ExchangeTable) -> List[str]:
    """Necessary conditions for the exchange graph of the maximal rigid
    objects, as the table recorded it, to be the type-C_n exchange graph
    (Buan-Marsh-Vatne, Math. Z. 265, 2010): it has C(2n, n) vertices;
    every mutation lands on one of them, and each vertex has n distinct
    neighbours; mutating mu_k T at the new summand gives T back, so
    mutation is an involution; and it is connected.  They do not prove
    that the graph is isomorphic to the type-C_n one."""
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


def _worker_count(groups: int) -> int:
    """How many processes share the per-object loop: one per CPU this
    process may run on, at most one per group of objects.  One where
    ``os.fork`` or ``os.sched_getaffinity`` is missing (Windows, macOS), or
    where other threads run, since a fork copies only the calling thread."""
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not forkable or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), groups))


def _frame(t: MaximalRigid) -> Tuple[Indec, ...]:
    """T translated so that its long summand sits at a = 1, summand order
    kept.  Objects with one frame have End(T) of equal content."""
    return t.shifted(t.long.a - 1).summands


def _frame_groups(ts: Sequence[MaximalRigid], weights: Sequence[int]) -> List[List[int]]:
    """The indices of ``ts`` grouped by frame, each group in index order;
    the heaviest group (by the sum of its members' ``weights``) first, and
    groups of equal weight in the order of their first members."""
    groups: Dict[Tuple[Indec, ...], List[int]] = {}
    for i, t in enumerate(ts):
        groups.setdefault(_frame(t), []).append(i)
    return sorted(groups.values(), key=lambda group: -sum(weights[i] for i in group))


def _fill_queue(fd: int, numbers: Sequence[int]) -> List[int]:
    """Write each of ``numbers`` to the pipe ``fd`` as 4 bytes, as long as
    the pipe takes them without blocking; return the numbers left over."""
    os.set_blocking(fd, False)
    for k, number in enumerate(numbers):
        try:
            os.write(fd, number.to_bytes(4, "little"))
        except BlockingIOError:
            return list(numbers[k:])
    return []


def _claim_groups(work: Callable[[Sequence[int]], list], groups: Sequence[Sequence[int]],
                  first: int, queue: int) -> list:
    """The rows of ``work`` on group ``first`` (if there is one), then on
    each group claimed from the pipe ``queue`` until it is empty.  Every
    group number is in the pipe before any process reads it, and a read of
    4 bytes from a pipe is not interleaved with another, so each read
    claims one whole group."""
    rows = work(groups[first]) if first < len(groups) else []
    while True:
        data = os.read(queue, 4)
        if not data:
            return rows
        rows += work(groups[int.from_bytes(data, "little")])


def _serve(job: Callable[[], list], fd: int) -> None:
    """In a forked child: write the pickled outcome of ``job()`` to ``fd``
    and leave the process, never returning into the caller's frames.

    The outcome is ``("rows", rows)``, or ``("raise", exc, text)`` with
    whatever ``job`` raised and its traceback text.  An exception that
    does not survive pickling is sent as ``("lost", text)``.  Nothing is
    caught: the exception in flight is read in the ``finally`` that ends
    the process, and the parent raises it again."""
    import pickle
    import traceback

    outcome = None
    try:
        outcome = ("rows", job())
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


def _map_groups(work: Callable[[Sequence[int]], list], groups: Sequence[Sequence[int]],
                workers: int) -> list:
    """The rows of ``work(objects)`` over the objects of every group, split
    between ``workers`` processes, in no fixed order.

    With one worker this process runs the groups in their order, and
    opens no pipe and forks nothing, so it needs neither ``os.fork`` nor
    ``os.set_blocking``.  Otherwise process k (this one is 0, each other a
    forked child) first runs group k, fixed before the fork.  The numbers
    of the other groups go into one pipe, in the order of ``groups``, and
    each process claims its next group from it until it is empty
    (``_claim_groups``).  A group never leaves the process that claimed it.
    Groups the pipe cannot take without blocking run in this process after
    the queue is empty.

    A child sends its rows back through a pipe of its own (``_serve``).  A
    child's exception is raised here again with its class and message; one
    that could not be pickled, or a child that sent nothing, raises
    ``RuntimeError``.  Every child is reaped on every path, and killed
    first if its rows were not read."""
    if workers == 1:
        return [row for group in groups for row in work(group)]
    import pickle
    import signal

    queue, queue_in = os.pipe()
    children = []  # (worker number, pid, read end of its pipe)
    read = set()
    try:
        tail = _fill_queue(queue_in, range(workers, len(groups)))
        for number in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                os.close(queue_in)
                _serve(lambda: _claim_groups(work, groups, number, queue), w)
            os.close(w)
            children.append((number, pid, os.fdopen(r, "rb")))
        os.close(queue_in)
        queue_in = None
        rows = _claim_groups(work, groups, 0, queue)
        for k in tail:
            rows += work(groups[k])
        for number, pid, pipe in children:
            data = pipe.read()
            read.add(pid)
            if not data:
                raise RuntimeError(f"worker {number} exited without a result")
            kind, *outcome = pickle.loads(data)
            if kind == "raise":
                exc, text = outcome
                raise exc from RuntimeError(f"raised in worker {number}:\n{text}")
            if kind == "lost":
                raise RuntimeError(f"worker {number} raised an exception "
                                   f"that cannot be pickled:\n{outcome[0]}")
            rows += outcome[0]
        return rows
    finally:
        if queue_in is not None:
            os.close(queue_in)
        os.close(queue)
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

    First the work every T shares: the enumeration, one ``ExchangeTable``
    over the enumerated objects (``mutate_rigid`` runs once per directed
    edge (T, k)), and the tube-level checks.  "tube invariants" checks the
    morphism calculus and necessary conditions for the table's graph to be
    the type-C_n exchange graph; where the character checks are scheduled,
    "exchange relations and walk" first checks that every rigid
    indecomposable is exchanged by some recorded relation.  This work warms the tube's caches.

    Then one loop over the maximal rigid objects: each T gets one context
    on the table, every check whose scope holds T runs on it, and the
    context is dropped before the next T.  A scheduled check that visits no
    object fails.  Every per-object check reads the table and writes
    nothing to it: "matrix formulas and mutation" checks mu_k(B_T) =
    B_{mu_k T} on T's own edges, and "exchange relations and walk" checks
    every distinct recorded relation on a representative's characters.

    The objects are grouped by frame (``_frame_groups``): objects with one
    frame have End(T) of equal content, so the tube's module memo computes
    each module-layer result once per group, and lives for one group.  The
    loop is split between ``workers`` processes, by default one per CPU this
    process may run on and at most one per group (one without ``os.fork`` or
    with other threads running; see ``_worker_count``).  The processes claim whole
    groups, the heaviest (most scheduled checks) first, so no process
    repeats another's work (``_map_groups``); one worker runs the groups
    in that order, without a fork.  This process takes part after the shared
    work, and each other process is a forked child that inherits the table.
    A child sends back, per T, only its index and each scheduled check's
    failure lines.  Each process holds at most one End(T) at a time.  The
    per-object results are merged in enumeration order, so the report and
    its failure lines do not depend on the worker count.
    """
    tube = Tube(n)
    ts_all = enumerate_maximal_rigid(n, tube)
    table = ExchangeTable(ts_all)
    associative = {t.summands for t in ts_all[:3]}

    def every(t: MaximalRigid) -> bool:
        return True

    characters = every if n <= 3 else is_orbit_representative
    # (report line, check on one context, scope), in report order
    schedule = [
        ("quiver shape and relations",
         lambda ctx: check_structure(ctx, associativity=ctx.t.summands in associative), every),
    ]
    if n <= 4:
        schedule += [
            ("matrix formulas and mutation", check_b_matrix_compatibility, every),
            ("character bijection", check_bijection, characters),
            ("denominator vectors", check_denominators, characters),
            ("exchange relations and walk", check_exchange_relations, is_orbit_representative),
            ("index and coindex laws", check_index_coindex, characters),
            ("long-summand lemmas", check_long_summand_lemmas, is_orbit_representative),
            ("AR recursion", check_ar_recursion, is_orbit_representative),
        ]
    if n <= 3 and oracle:
        schedule.append(("finite-field chi oracle", check_chi_oracle,
                         every if n == 2 else is_orbit_representative))

    def run_objects(objects: Sequence[int]) -> list:
        """Per object of ``objects``, one frame group: its index and each
        scheduled check's failure lines (``None`` out of scope).  The tube
        then gets a new module memo, since no later group reads this one's."""
        rows = []
        for i in objects:
            ctx = SuiteContext(ts_all[i], table)
            rows.append((i, [check(ctx) if scope(ctx.t) else None for _, check, scope in schedule]))
            del ctx
        tube._module_memo = {}
        return rows

    report = SuiteReport()
    report.add("tube invariants", check_tube_invariants(tube) + check_exchange_graph(tube, table))
    failures = {name: [] for name, _, _ in schedule}
    visited = dict.fromkeys(failures, 0)
    if "exchange relations and walk" in failures:
        failures["exchange relations and walk"] = check_exchange_coverage(table)
    groups = _frame_groups(ts_all, [sum(1 for _, _, scope in schedule if scope(t))
                                    for t in ts_all])
    if workers is None:
        workers = _worker_count(len(groups))
    for _, found in sorted(_map_groups(run_objects, groups, workers), key=lambda row: row[0]):
        for (name, _, _), lines in zip(schedule, found):
            if lines is not None:
                visited[name] += 1
                failures[name].extend(lines)
    for name in failures:
        report.add(name, failures[name] if visited[name] else ["visited no objects"])
    return report
