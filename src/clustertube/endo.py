"""Endomorphism algebras of maximal rigid objects and their Gabriel quivers.

The algebra is stored concretely: an ordered basis of cluster-tube
morphisms between the summands, a structure-constant table read from the
tube's table of products of basis morphisms (``tube.basis_product``), and a
chosen set of radical generators (the arrows).  The
quiver-shape conditions satisfied by these algebras, together with the
defining relations (square of the loop, length-two paths inside oriented
three-cycles), are validated rather than assumed.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import SpanSolver, independent_units
from .tube import (
    CHom,
    ConsistencyError,
    MaximalRigid,
    Tube,
    _radical_indices,
    basis_product,
    chom_coords,
    hom_c_basis,
)


class Arrow(NamedTuple):
    """A chosen irreducible morphism T_src -> T_tgt (vertices 1-based): the
    basis element ``rep`` at position ``pos`` of the algebra's basis."""

    idx: int
    src: int
    tgt: int
    rep: CHom
    pos: int

    @property
    def is_loop(self) -> bool:
        return self.src == self.tgt


class Quiver:
    """The Gabriel quiver: arrow list plus the distinguished loop."""

    __slots__ = ("n", "arrows")

    def __init__(self, n: int, arrows: Sequence[Tuple[int, int]]):
        self.n = n
        self.arrows = tuple(arrows)

    def loops(self) -> List[Tuple[int, int]]:
        return [a for a in self.arrows if a[0] == a[1]]

    def arrow_count(self, i: int, j: int) -> int:
        return sum(1 for a in self.arrows if a == (i, j))

    def neighbors(self, v: int) -> set:
        out = set()
        for s, t in self.arrows:
            if s == t:
                continue
            if s == v:
                out.add(t)
            if t == v:
                out.add(s)
        return out


class FinDimAlgebra:
    """End(T) for a basic maximal rigid object T, with multiplication table."""

    def __init__(self, t: MaximalRigid):
        self.t = t
        self.tube: Tube = t.tube
        self.n = self.tube.n
        # ordered basis of Hom(T_i, T_j), tube stratum before shift stratum
        self.basis: List[Tuple[int, int, CHom]] = []
        self.block_offset: Dict[Tuple[int, int], int] = {}
        self.block_dim: Dict[Tuple[int, int], int] = {}
        for i in range(self.n):
            for j in range(self.n):
                homs = hom_c_basis(self.tube, t.summands[i], t.summands[j])
                self.block_offset[(i, j)] = len(self.basis)
                self.block_dim[(i, j)] = len(homs)
                for h in homs:
                    self.basis.append((i, j, h))
        self.dim = len(self.basis)
        self.mult: Dict[Tuple[int, int], tuple] = {}
        self._build_mult_table()
        self._identity_coords: Dict[int, tuple] = {}
        for i in range(self.n):
            ident = CHom.identity(self.tube, (t.summands[i],))
            self._identity_coords[i] = chom_coords(self.tube, ident)
        self.arrows: List[Arrow] = []
        self._loop: Optional[Arrow] = None
        self._rad2_span: Dict[Tuple[int, int], list] = {}
        self._choose_arrows()
        # the arrows never change, so the relations are found once
        self._three_cycles = self._find_three_cycles()
        self._relation_pairs: Optional[List[Tuple[Arrow, Arrow]]] = None
        # per block: the path labels (None for the identity) and the solver
        # for coordinates in their span
        self._path_span: Dict[Tuple[int, int], Tuple[list, SpanSolver]] = {}
        self._path_vectors: Dict[Tuple[int, int], tuple] = {}
        self._build_paths()
        # What the module layer (clustertube.amod) keeps on this algebra, for
        # as long as it lives: functor images Hom(T, X) by summand tuple of
        # X, index and coindex vectors by name and summand tuple of X, the
        # positions of the shifted summands tau T_i, the socle data of the
        # injectives, the simples by vertex, the tube's module memo this
        # algebra is numbered in, and the numbers of this algebra's content
        # and of its injectives' content in it.
        self._module_cache: Dict[tuple, object] = {}
        self._vectors: Dict[tuple, tuple] = {}
        self._sigma_index: Optional[dict] = None
        self._socle_data: Optional[list] = None
        self._simples: Dict[int, object] = {}
        self._memo: Optional[dict] = None
        self._memo_class: Optional[int] = None
        self._memo_injectives: Optional[int] = None

    # -- multiplication ------------------------------------------------------

    def _build_mult_table(self):
        """mult[(u, v)] = coordinates of f o g, for basis elements f at u and
        g at v, read from the tube's table of structure constants."""
        s = self.t.summands
        for (i, j), off_u in self.block_offset.items():
            for a in range(self.block_dim[(i, j)]):
                for k in range(self.n):
                    # f . g = f o g : T_k -> T_i -> T_j
                    off_v = self.block_offset[(k, i)]
                    for b in range(self.block_dim[(k, i)]):
                        self.mult[(off_u + a, off_v + b)] = basis_product(
                            self.tube, s[k], s[i], s[j], a, b)

    def verify_associativity(self):
        """The table holds f o g for every composable basis pair, and
        (f o g) o h = f o (g o h) on all composable basis triples: both by
        composing the morphisms themselves, so the tube's table of structure
        constants is checked, not read.  Each pair is composed once."""
        composed = {}
        for u, (i, j, f) in enumerate(self.basis):
            for v, (k, l, g) in enumerate(self.basis):
                if l == i:
                    fg = composed[(u, v)] = f.compose(g)
                    if chom_coords(self.tube, fg) != self.mult[(u, v)]:
                        raise ConsistencyError(f"multiplication table is wrong on basis pair {u},{v}")
        for (u, v), fg in composed.items():
            f = self.basis[u][2]
            k = self.basis[v][0]
            for w, (r, s, h) in enumerate(self.basis):
                if s != k:
                    continue
                left = fg.compose(h)
                right = f.compose(composed[(v, w)])
                if chom_coords(self.tube, left) != chom_coords(self.tube, right):
                    raise ConsistencyError(
                        f"associativity fails on basis triple {u},{v},{w}"
                    )

    # -- radical and arrows ----------------------------------------------------

    def radical_indices(self, i: int, j: int) -> List[int]:
        """Basis indices spanning rad(T_i, T_j)."""
        s, off = self.t.summands, self.block_offset[(i, j)]
        return [off + k for k in _radical_indices(self.tube, s[i], s[j])]

    def _rad_square_span(self, i: int, j: int) -> list:
        """Coordinate vectors spanning rad^2(T_i, T_j)."""
        key = (i, j)
        if key in self._rad2_span:
            return self._rad2_span[key]
        dim = self.block_dim[key]
        vectors = []
        for m in range(self.n):
            for u in self.radical_indices(m, j):
                for v in self.radical_indices(i, m):
                    coords = self.mult[(u, v)]
                    if any(coords):
                        vectors.append(list(coords))
        self._rad2_span[key] = vectors
        return vectors

    def _choose_arrows(self):
        """Lift a basis of rad/rad^2: one arrow per new class, preferring
        tube-stratum basis vectors (they come first in the block order)."""
        for i in range(self.n):
            for j in range(self.n):
                off = self.block_offset[(i, j)]
                local = [u - off for u in self.radical_indices(i, j)]
                for k in independent_units(self._rad_square_span(i, j), local, self.block_dim[(i, j)]):
                    self.arrows.append(
                        Arrow(len(self.arrows), i + 1, j + 1, self.basis[off + k][2], off + k))

    def quiver(self) -> Quiver:
        return Quiver(self.n, [(a.src, a.tgt) for a in self.arrows])

    def loop_arrow(self) -> Arrow:
        """The unique loop, found once; without one every call raises."""
        if self._loop is None:
            loops = [a for a in self.arrows if a.is_loop]
            if len(loops) != 1:
                raise ConsistencyError(f"expected a unique loop, found {len(loops)}")
            self._loop = loops[0]
        return self._loop

    # -- relations -------------------------------------------------------------

    def _find_three_cycles(self) -> List[Tuple[Arrow, Arrow, Arrow]]:
        """Oriented three-cycles (alpha, beta, gamma) through distinct vertices."""
        cycles = []
        for a in self.arrows:
            for b in self.arrows:
                for c in self.arrows:
                    if a.is_loop or b.is_loop or c.is_loop:
                        continue
                    if (
                        a.tgt == b.src
                        and b.tgt == c.src
                        and c.tgt == a.src
                        and len({a.src, b.src, c.src}) == 3
                        and a.idx <= b.idx
                        and a.idx <= c.idx
                    ):
                        cycles.append((a, b, c))
        return cycles

    def relation_pairs(self) -> List[Tuple[Arrow, Arrow]]:
        """Pairs (first, second) whose length-two path second o first vanishes."""
        if self._relation_pairs is None:
            loop = self.loop_arrow()
            pairs = [(loop, loop)]
            for a, b, c in self._three_cycles:
                pairs.extend([(a, b), (b, c), (c, a)])
            self._relation_pairs = pairs
        return self._relation_pairs

    def verify_relations(self):
        """Square of the loop and all length-two paths in three-cycles vanish."""
        for first, second in self.relation_pairs():
            if any(self.mult[(second.pos, first.pos)]):
                raise ConsistencyError(
                    f"relation fails: path {first.src}->{first.tgt}->{second.tgt}"
                )

    # -- paths (for module actions) ---------------------------------------------

    def _build_paths(self):
        """Spanning paths of every block, used to act on abstract modules.

        Each entry is (arrow index sequence, coordinate vector); the identity
        is handled separately.  Together with the idempotents these span the
        whole algebra because the arrows generate the radical.
        """
        paths: Dict[Tuple[int, int], List[Tuple[tuple, tuple]]] = {}
        frontier: List[Tuple[tuple, int, int, tuple]] = []
        for a in self.arrows:
            coords = self._unit(a.src - 1, a.tgt - 1, a.pos)
            paths.setdefault((a.src - 1, a.tgt - 1), []).append(((a.idx,), coords))
            frontier.append(((a.idx,), a.src - 1, a.tgt - 1, coords))
        max_len = self.dim + 1
        length = 1
        while frontier and length < max_len:
            new_frontier = []
            for path, i, j, val in frontier:
                off = self.block_offset[(i, j)]
                for a in self.arrows:
                    if a.src - 1 != j:
                        continue
                    # a o val, by the structure constants
                    coords = [0] * self.block_dim[(i, a.tgt - 1)]
                    for b, c in enumerate(val):
                        if c:
                            for r, x in enumerate(self.mult[(a.pos, off + b)]):
                                if x:
                                    coords[r] += c * x
                    if not any(coords):
                        continue
                    coords = tuple(coords)
                    npath = path + (a.idx,)
                    paths.setdefault((i, a.tgt - 1), []).append((npath, coords))
                    new_frontier.append((npath, i, a.tgt - 1, coords))
            frontier = new_frontier
            length += 1
        # sanity: identity + paths span the algebra blockwise
        for i in range(self.n):
            for j in range(self.n):
                dim = self.block_dim[(i, j)]
                labels = [p for p, _ in paths.get((i, j), [])]
                vecs = [c for _, c in paths.get((i, j), [])]
                if i == j:
                    labels.append(None)
                    vecs.append(self._identity_coords[i])
                solver = SpanSolver(vecs, dim)
                if solver.rank != dim:
                    raise ConsistencyError(
                        f"paths do not span Hom(T_{i+1}, T_{j+1})"
                    )
                self._path_span[(i, j)] = (labels, solver)
                self._path_vectors[(i, j)] = tuple(vecs)

    def path_span(self, i: int, j: int) -> Tuple[list, SpanSolver]:
        """The labels of the spanning paths from vertex i to vertex j
        (0-based), then ``None`` for the identity when i == j, with the
        solver for coordinates in their span."""
        return self._path_span[(i, j)]

    def _unit(self, i: int, j: int, pos: int) -> tuple:
        """The coordinates in Hom(T_i, T_j) of the basis element at ``pos``."""
        off = self.block_offset[(i, j)]
        return tuple(int(off + k == pos) for k in range(self.block_dim[(i, j)]))

    def identity_coords(self, i: int) -> tuple:
        return self._identity_coords[i]

    def structure_content(self) -> tuple:
        """Everything the module layer reads off this algebra itself: the
        block dimensions, the multiplication table, the arrows with their
        coordinates, the identities and the spanning paths of each block.
        Equal for End(T) and End(tau T), whose bases correspond."""
        return (
            self.dim,
            tuple(self.block_dim.items()),
            tuple(self.mult.items()),
            tuple((a.src, a.tgt, self._unit(a.src - 1, a.tgt - 1, a.pos)) for a in self.arrows),
            tuple(self._identity_coords.items()),
            tuple((block, tuple(labels), self._path_vectors[block])
                  for block, (labels, _) in self._path_span.items()),
        )


def build_endomorphism_algebra(t: MaximalRigid) -> FinDimAlgebra:
    """Construct End(T), unchecked: ``verify.check_structure`` calls its
    ``verify_relations`` and ``verify_associativity``."""
    return FinDimAlgebra(t)


def gabriel_quiver(algebra: FinDimAlgebra) -> Quiver:
    return algebra.quiver()


def b_matrix_from_quiver(algebra: FinDimAlgebra) -> Tuple[Tuple[int, ...], ...]:
    """Exchange matrix from arrow counts; the loop-vertex column is doubled."""
    q = algebra.quiver()
    loop_vertices = {s for s, t in q.arrows if s == t}
    if loop_vertices != {1}:
        raise ConsistencyError(f"expected the unique loop at vertex 1, got {loop_vertices}")
    return b_matrix_from_form(algebra.n, lambda i, j: q.arrow_count(i + 1, j + 1))


def b_matrix_from_form(n: int, form) -> Tuple[Tuple[int, ...], ...]:
    """The matrix form(i, j) - form(j, i) off the diagonal (0-based vertices),
    with the column of the loop vertex 0 doubled."""
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                anti = form(i, j) - form(j, i)
                b[i][j] = 2 * anti if j == 0 else anti
    return tuple(tuple(row) for row in b)


# -- quiver-shape validation ---------------------------------------------------


def _directed_three_cycles(q: Quiver) -> List[frozenset]:
    cycles = []
    edges = [(s, t) for s, t in q.arrows if s != t]
    for a in edges:
        for b in edges:
            for c in edges:
                if a[1] == b[0] and b[1] == c[0] and c[1] == a[0]:
                    verts = {a[0], b[0], c[0]}
                    if len(verts) == 3:
                        cyc = frozenset([a, b, c])
                        if cyc not in cycles:
                            cycles.append(cyc)
    return cycles


def _undirected_cycles(q: Quiver) -> List[list]:
    """Simple cycles of the underlying graph, as edge lists (loops excluded)."""
    edges = [(idx, s, t) for idx, (s, t) in enumerate(q.arrows) if s != t]
    cycles = []
    seen = set()

    def walk(start: int, current: int, used: List[int], verts: List[int]):
        for idx, s, t in edges:
            if idx in used:
                continue
            if current not in (s, t):
                continue
            nxt = t if current == s else s
            if nxt == start and len(used) >= 1:
                key = frozenset(used + [idx])
                if key not in seen:
                    seen.add(key)
                    cycles.append(used + [idx])
            elif nxt not in verts:
                walk(start, nxt, used + [idx], verts + [nxt])

    for v in range(1, q.n + 1):
        walk(v, v, [], [v])
    return cycles


def validate_Qn(q: Quiver) -> bool:
    """Check the quiver-shape conditions for endomorphism quivers.

    (a) every minimal cycle of the underlying graph is an oriented 3-cycle;
    (b) at most four neighbors per vertex;
    (c) a four-neighbor vertex sits on exactly two 3-cycles through disjoint
        arrow pairs;
    (d) a three-neighbor vertex has two arrows on one 3-cycle and one on none;
    (e) a unique loop, based at a vertex with one neighbor, or with two
        neighbors and lying on a 3-cycle.
    """
    loops = q.loops()
    non_loop = [(s, t) for s, t in q.arrows if s != t]
    three_cycles = _directed_three_cycles(q)

    def edge_on_cycle(e):
        return any(e in c for c in three_cycles)

    # (a): cycles of length 2 are forbidden; longer minimal cycles must be
    # oriented 3-cycles.  Since every simple cycle contains a minimal one, it
    # is enough that all chordless cycles are directed 3-cycles.
    for i in range(1, q.n + 1):
        for j in range(1, q.n + 1):
            if i == j:
                continue
            if q.arrow_count(i, j) + q.arrow_count(j, i) > 1:
                return False
    for cycle in _undirected_cycles(q):
        if len(cycle) == 3:
            verts = set()
            for idx in cycle:
                verts.update(q.arrows[idx])
            if frozenset(q.arrows[idx] for idx in cycle) not in three_cycles:
                return False
        else:
            # a longer simple cycle is allowed only if it has a chord,
            # i.e. it is not minimal
            verts = set()
            for idx in cycle:
                verts.update(q.arrows[idx])
            chord = False
            cycle_edges = {frozenset(q.arrows[idx]) for idx in cycle}
            for s, t in non_loop:
                if s in verts and t in verts and frozenset((s, t)) not in cycle_edges:
                    chord = True
                    break
            if not chord:
                return False
    # (b), (c), (d)
    for v in range(1, q.n + 1):
        nbrs = q.neighbors(v)
        incident = [(s, t) for s, t in non_loop if v in (s, t)]
        on_cycle = [e for e in incident if edge_on_cycle(e)]
        if len(nbrs) > 4:
            return False
        if len(nbrs) == 4:
            cycles_at_v = [c for c in three_cycles if any(v in e for e in c)]
            if len(cycles_at_v) != 2 or len(on_cycle) != 4:
                return False
        if len(nbrs) == 3:
            cycles_at_v = [c for c in three_cycles if any(v in e for e in c)]
            if len(cycles_at_v) != 1 or len(on_cycle) != 2:
                return False
    # (e)
    if len(loops) != 1:
        return False
    loop_vertex = loops[0][0]
    nbrs = q.neighbors(loop_vertex)
    if len(nbrs) == 1:
        return True
    if len(nbrs) == 2:
        return any(any(loop_vertex in e for e in c) for c in three_cycles)
    return False
