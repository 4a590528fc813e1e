"""The module category of the endomorphism algebra of a maximal rigid object.

Right modules are stored as representations of the opposite Gabriel quiver:
one exact matrix per arrow ``alpha: i -> j``, acting from the vertex-j space
to the vertex-i space (preimage of precomposition under the functor
``Hom(T, -)``).  On top of the plain representation calculus the module
implements projective covers and injective envelopes, the Auslander-Reiten
translate through the Nakayama functor, the locally free structure at the
loop vertex, and the index/coindex of tube objects.  An algebra element acts
through basis positions: each position of End(T) has one path of arrows
(``FinDimAlgebra.paths``), and each product of basis morphisms is one
position or zero (``tube.basis_product``), so no action or induced map
solves a linear system or composes morphisms.
"""
from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    ExactMatrix,
    QuotientSpace,
    SpanSolver,
    block_diagonal,
    intertwiner_basis,
    intertwiner_dim,
    kernel_basis,
    rank as mat_rank,
)
from .endo import FinDimAlgebra, b_matrix_from_form
from .tube import (
    ConsistencyError,
    Indec,
    Tube,
    TubeError,
    basis_product,
    hom_c_basis,
    in_pr_T,
    in_pr_sigma_T,
    unit_coords,
)


class DomainError(TubeError):
    """Input outside the mathematical domain of an operation."""


class AModule:
    """A finite-dimensional right module as a quiver representation.

    ``mats[k]`` is the action of the k-th Gabriel arrow ``alpha: i -> j``,
    a matrix from the vertex-j space to the vertex-i space.  Modules coming
    from the functor ``Hom(T, -)`` carry their provenance: the summands of
    the tube object, whose Hom bases make up each vertex space in order.

    The private slots keep invariants computed on first use: the projective
    cover and its kernel, the module's part of a memo key (``_content``) and
    whether it is locally free here; the string normal form with its profile
    counts, and the arrow matrices and the subspaces the point count reads,
    in ``clustertube.grassmann``.
    """

    __slots__ = ("algebra", "dims", "mats", "provenance",
                 "_cover", "_syzygy", "_key", "_free", "_strings", "_points")

    def __init__(
        self,
        algebra: FinDimAlgebra,
        dims: Sequence[int],
        mats: Sequence[ExactMatrix],
        provenance: Optional[Tuple[Indec, ...]] = None,
        check: bool = True,
    ):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.n:
            raise DomainError("dimension vector length mismatch")
        mats = tuple(mats)
        if len(mats) != len(algebra.arrows):
            raise DomainError("one matrix per arrow is required")
        for a in algebra.arrows:
            m = mats[a.idx]
            if (m.nrows, m.ncols) != (self.dims[a.src - 1], self.dims[a.tgt - 1]):
                raise DomainError(f"arrow matrix shape mismatch at {a.src}->{a.tgt}")
        self.mats = mats
        self.provenance = provenance
        self._cover = None
        self._syzygy = None
        self._key = None
        self._free = None
        self._strings = None
        self._points = None
        if check:
            self._check_relations()

    def _check_relations(self):
        for first, second in self.algebra.relation_pairs():
            prod = self.mats[first.idx].mul(self.mats[second.idx])
            if not prod.is_zero():
                raise ConsistencyError(
                    f"module violates the relation through {first.src}->{second.tgt}"
                )

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def same_data(self, other: "AModule") -> bool:
        return self.dims == other.dims and self.mats == other.mats


class ModMap:
    """A homomorphism of modules, stored as one matrix per vertex."""

    __slots__ = ("src", "tgt", "mats")

    def __init__(self, src: AModule, tgt: AModule, mats: Sequence[ExactMatrix]):
        self.src = src
        self.tgt = tgt
        self.mats = tuple(mats)
        for v in range(src.algebra.n):
            if (self.mats[v].nrows, self.mats[v].ncols) != (tgt.dims[v], src.dims[v]):
                raise DomainError("vertex map shape mismatch")

    def commutes(self) -> bool:
        for a in self.src.algebra.arrows:
            left = self.mats[a.src - 1].mul(self.src.mats[a.idx])
            right = self.tgt.mats[a.idx].mul(self.mats[a.tgt - 1])
            if left != right:
                return False
        return True

    def compose(self, other: "ModMap") -> "ModMap":
        if other.tgt is not self.src and not other.tgt.same_data(self.src):
            raise DomainError("module maps not composable")
        return ModMap(
            other.src, self.tgt, [a.mul(b) for a, b in zip(self.mats, other.mats)]
        )

    def is_injective(self) -> bool:
        return all(mat_rank(m) == m.ncols for m in self.mats)

    def is_surjective(self) -> bool:
        return all(mat_rank(m) == m.nrows for m in self.mats)

    def kernel(self) -> Tuple[AModule, "ModMap"]:
        """The kernel submodule together with its inclusion."""
        alg = self.src.algebra
        bases = [kernel_basis(m) for m in self.mats]
        dims = [len(b) for b in bases]
        solvers = [SpanSolver(b, m.ncols) for b, m in zip(bases, self.mats)]
        mats = []
        for a in alg.arrows:
            cols = []
            for w in bases[a.tgt - 1]:
                img = self.src.mats[a.idx].apply(w)
                coords = solvers[a.src - 1].coords(img)
                if coords is None:
                    raise ConsistencyError("kernel is not arrow-stable")
                cols.append(coords)
            mats.append(ExactMatrix.from_columns(cols, dims[a.src - 1]))
        ker = AModule(alg, dims, mats, check=False)
        incl = ModMap(
            ker,
            self.src,
            [
                ExactMatrix.from_columns(bases[v], self.src.dims[v])
                for v in range(alg.n)
            ],
        )
        return ker, incl

    def cokernel(self) -> Tuple[AModule, "ModMap"]:
        """The cokernel module together with the projection."""
        alg = self.src.algebra
        quotients = []
        for v in range(alg.n):
            image_cols = [self.mats[v].column(j) for j in range(self.mats[v].ncols)]
            quotients.append(QuotientSpace(self.tgt.dims[v], image_cols))
        dims = [q.dim for q in quotients]
        mats = []
        for a in alg.arrows:
            qs, qt = quotients[a.src - 1], quotients[a.tgt - 1]
            cols = []
            for c in range(qt.dim):
                rep = qt.lift([int(i == c) for i in range(qt.dim)])
                cols.append(qs.project(self.tgt.mats[a.idx].apply(rep)))
            mats.append(ExactMatrix.from_columns(cols, dims[a.src - 1]))
        cok = AModule(alg, dims, mats, check=False)
        proj_mats = []
        for v in range(alg.n):
            cols = [
                quotients[v].project(
                    [int(i == j) for i in range(self.tgt.dims[v])]
                )
                for j in range(self.tgt.dims[v])
            ]
            proj_mats.append(ExactMatrix.from_columns(cols, dims[v]))
        return cok, ModMap(self.tgt, cok, proj_mats)


def zero_module(algebra: FinDimAlgebra) -> AModule:
    return AModule(
        algebra,
        [0] * algebra.n,
        [ExactMatrix.zero(0, 0) for _ in algebra.arrows],
        provenance=(),
        check=False,
    )


def direct_sum(modules: Sequence[AModule]) -> AModule:
    """Block-diagonal direct sum; provenance concatenates."""
    modules = list(modules)
    if not modules:
        raise DomainError("empty direct sum needs an algebra; use zero_module")
    alg = modules[0].algebra
    dims = [sum(m.dims[v] for m in modules) for v in range(alg.n)]
    mats = [block_diagonal([m.mats[a.idx] for m in modules]) for a in alg.arrows]
    prov = None
    if all(m.provenance is not None for m in modules):
        prov = tuple(x for m in modules for x in m.provenance)
    return AModule(alg, dims, mats, provenance=prov, check=False)


# -- the module memo -------------------------------------------------------------
#
# The tube keeps one memo of the module layer's pure results (``Tube._module_memo``).
# A result is keyed by the exact content of what it is computed from: the
# content class of End(T) (``_algebra_class``), the content of each module it
# reads (``_content``), and for the coindex that of the injectives
# (``_injectives_class``).  Translation is an autoequivalence of the tube, so
# End(tau T) has the same content as End(T) and shares its results.  ``verify``
# gives the tube a new memo after each frame group; the class numbers restart
# there, so each End(T) keeps the memo it was numbered in (``_memo``).


def _content(m: AModule) -> tuple:
    """The module's part of a memo key: its dimension vector and arrow
    matrices, computed once and kept on the module."""
    if m._key is None:
        m._key = (m.dims, tuple(mat.rows for mat in m.mats))
    return m._key


def _memo(algebra: FinDimAlgebra) -> dict:
    """The tube's memo when the algebra first asks, kept on the algebra: its
    numbers hold in that memo only (``verify`` renews the tube's per group)."""
    if algebra._memo is None:
        algebra._memo = algebra.tube._module_memo
    return algebra._memo


def _number(algebra: FinDimAlgebra, content: tuple) -> int:
    """The number of ``content`` in the algebra's memo: equal contents get
    one number, and no two contents share one."""
    memo = _memo(algebra)
    return memo.setdefault(content, len(memo))


def _algebra_class(algebra: FinDimAlgebra) -> int:
    """The number of the algebra's content class in the tube's memo.

    The content is ``structure_content()`` with the contents of the
    projectives: everything the memoised functions read off End(T) except
    the injectives, which only the coindex reads.  It is hashed once per
    algebra, which keeps the number."""
    if algebra._memo_class is None:
        algebra._memo_class = _number(algebra, (
            "algebra", algebra.structure_content(),
            tuple(_content(projective(algebra, i)) for i in range(1, algebra.n + 1))))
    return algebra._memo_class


def _injectives_class(algebra: FinDimAlgebra) -> int:
    """The number of the contents of the algebra's injectives in the
    tube's memo, kept on the algebra."""
    if algebra._memo_injectives is None:
        algebra._memo_injectives = _number(algebra, (
            "injectives",
            tuple(_content(injective(algebra, i)) for i in range(1, algebra.n + 1))))
    return algebra._memo_injectives


def _memoised(algebra: FinDimAlgebra, key: tuple, compute: Callable[[], object]):
    """``compute()``, kept in the algebra's memo (``_memo``) under its
    content class and ``key``: the result's name and the ``_content`` of
    every module it reads.  A result is stored only when ``compute``
    returns, so no failure is ever kept; callers must not mutate it."""
    memo = _memo(algebra)
    full = (_algebra_class(algebra),) + key
    value = memo.get(full)
    if value is None:
        value = memo[full] = compute()
    return value


# -- the functor Hom(T, -) ----------------------------------------------------


def _normalize_object(tube: Tube, x) -> Tuple[Indec, ...]:
    if x is None:
        return ()
    if isinstance(x, Indec):
        return (x,)
    if isinstance(x, tuple) and len(x) == 2 and all(isinstance(k, int) for k in x):
        return (tube.indec(*x),)
    return tuple(tube.indec(*s) for s in x)


def apply_F(algebra: FinDimAlgebra, x) -> AModule:
    """The module Hom(T, X) of a finitely presented object X.

    The vertex-i space carries the ordered basis of Hom(T_i, X), tube
    stratum before shift stratum within each summand of X; arrows act by
    precomposition with the chosen irreducible morphisms, read from the
    tube's table of structure constants.  The image of a sum of several
    summands is the direct sum of their images.

    The result is memoised on ``algebra`` by the summand tuple of X, so
    equal inputs (``x``, ``(x,)`` or ``(a, b)``) return the same shared
    module for as long as the algebra lives; callers must not mutate it.
    An image is stored only after its summands passed the domain check, so
    the check runs on a miss only.
    """
    tube = algebra.tube
    summands = _normalize_object(tube, x)
    cached = algebra._module_cache.get(summands)
    if cached is not None:
        return cached
    if not summands:
        module = zero_module(algebra)
    elif len(summands) > 1:
        module = direct_sum([apply_F(algebra, s) for s in summands])
    else:
        (s,) = summands
        t = algebra.t
        if not in_pr_T(t, s):
            raise DomainError(f"{s} is not finitely presented by {t}")
        dims = [len(hom_c_basis(tube, ti, s)) for ti in t.summands]
        mats = []
        for a in algebra.arrows:
            i, j = a.src - 1, a.tgt - 1
            # column m: the coordinates of m o a in Hom(T_i, s)
            local = a.pos - algebra.block_offset[(i, j)]
            ti, tj = t.summands[i], t.summands[j]
            mats.append(ExactMatrix.from_columns(
                [unit_coords(basis_product(tube, ti, tj, s, m, local), dims[i])
                 for m in range(dims[j])], dims[i]))
        module = AModule(algebra, dims, mats, provenance=summands)
    algebra._module_cache[summands] = module
    return module


def map_F(algebra: FinDimAlgebra, src_objs: Sequence[Indec], tgt_objs: Sequence[Indec],
          blocks: Dict[Tuple[int, int], tuple]) -> ModMap:
    """The induced map Hom(T, X) -> Hom(T, Y) of the morphism g: X -> Y
    whose block g_st: X_s -> Y_t has the hom_c_basis coordinates
    ``blocks[s, t]`` (a missing block is zero), for X and Y the sums of
    ``src_objs`` and ``tgt_objs``.

    The image of a basis morphism h: T_i -> X_s is the sum of the
    positions of the products u o h (``basis_product``) weighted by the
    coordinates of each block, as composition is bilinear."""
    tube = algebra.tube
    src, tgt = apply_F(algebra, tuple(src_objs)), apply_F(algebra, tuple(tgt_objs))
    mats = []
    for i, ti in enumerate(algebra.t.summands):
        heights = [len(hom_c_basis(tube, ti, y)) for y in tgt.provenance]
        cols = []
        for s_idx, x in enumerate(src.provenance):
            for h in range(len(hom_c_basis(tube, ti, x))):
                col = []
                for t_idx, y in enumerate(tgt.provenance):
                    part = [0] * heights[t_idx]
                    for u, c in enumerate(blocks.get((s_idx, t_idx), ())):
                        r = basis_product(tube, ti, x, y, u, h) if c else None
                        if r is not None:
                            part[r] += c
                    col += part
                cols.append(col)
        mats.append(ExactMatrix.from_columns(cols, tgt.dims[i]))
    return ModMap(src, tgt, mats)


def simple(algebra: FinDimAlgebra, i: int) -> AModule:
    """The simple module at vertex i (1-based).

    Built once per vertex and kept on ``algebra``, so its projective cover
    is computed once; callers must not mutate it."""
    cached = algebra._simples.get(i)
    if cached is None:
        dims = [int(v == i - 1) for v in range(algebra.n)]
        mats = [
            ExactMatrix.zero(dims[a.src - 1], dims[a.tgt - 1]) for a in algebra.arrows
        ]
        cached = algebra._simples[i] = AModule(algebra, dims, mats, check=False)
    return cached


def projective(algebra: FinDimAlgebra, i: int) -> AModule:
    return apply_F(algebra, algebra.t.summands[i - 1])


def injective(algebra: FinDimAlgebra, i: int) -> AModule:
    tube = algebra.tube
    return apply_F(algebra, tube.tau(algebra.t.summands[i - 1], 2))


# -- hom and ext ---------------------------------------------------------------


def hom_A_basis(m: AModule, n_mod: AModule) -> List[ModMap]:
    # phi_i o M(alpha) = N(alpha) o phi_j for every arrow alpha: i -> j
    arrows = [(a.tgt - 1, a.src - 1, m.mats[a.idx], n_mod.mats[a.idx]) for a in m.algebra.arrows]
    return [ModMap(m, n_mod, mats) for mats in intertwiner_basis(m.dims, n_mod.dims, arrows)]


def hom_A_dim(m: AModule, n_mod: AModule) -> int:
    """dim Hom(M, N), by one rank of the equations ``hom_A_basis`` solves."""
    arrows = [(a.tgt - 1, a.src - 1, m.mats[a.idx], n_mod.mats[a.idx]) for a in m.algebra.arrows]
    return intertwiner_dim(m.dims, n_mod.dims, arrows)


def radical_dims(m: AModule) -> List[List[tuple]]:
    """Spanning vectors of rad M = sum of arrow images, per vertex."""
    alg = m.algebra
    spans: List[List[tuple]] = [[] for _ in range(alg.n)]
    for a in alg.arrows:
        mat = m.mats[a.idx]
        for j in range(mat.ncols):
            col = mat.column(j)
            if any(col):
                spans[a.src - 1].append(col)
    return spans


def socle_basis(m: AModule) -> List[List[tuple]]:
    """Basis of the socle per vertex: the joint kernel of outgoing actions."""
    alg = m.algebra
    out = []
    for v in range(alg.n):
        rows = []
        for a in alg.arrows:
            if a.tgt - 1 != v:
                continue
            rows.extend(m.mats[a.idx].rows)
        if rows:
            out.append(kernel_basis(ExactMatrix(rows, ncols=m.dims[v])))
        else:
            out.append(
                [
                    tuple(int(i == k) for i in range(m.dims[v]))
                    for k in range(m.dims[v])
                ]
            )
    return out


def act_element(m: AModule, src_vertex: int, tgt_vertex: int, pos: int, vec) -> tuple:
    """Act with the basis element at position ``pos`` of Hom(T_src, T_tgt)
    (0-based vertices) on vec in M_tgt: along the arrow matrices of its
    path, last arrow first, or as the identity."""
    vec = tuple(vec)
    for arrow_idx in reversed(m.algebra.paths[(src_vertex, tgt_vertex)][pos] or ()):
        vec = m.mats[arrow_idx].apply(vec)
    return vec


class CoverData(NamedTuple):
    vertices: Tuple[int, ...]  # 1-based vertex of each projective summand
    cover: ModMap


def projective_cover(m: AModule) -> CoverData:
    """Projective cover built from a deterministic lift of the top."""
    alg = m.algebra
    rad = radical_dims(m)
    gens: List[Tuple[int, tuple]] = []  # (vertex 0-based, generator vector)
    for v in range(alg.n):
        q = QuotientSpace(m.dims[v], rad[v])
        for c in q.nonpivots:
            gens.append((v, tuple(int(i == c) for i in range(m.dims[v]))))
    summands = [projective(alg, v + 1) for v, _ in gens]
    p0 = direct_sum(summands) if summands else zero_module(alg)
    mats = []
    for u in range(alg.n):
        cols = []
        for (v, gen), proj_mod in zip(gens, summands):
            # basis of (P_v)_u is the morphism-space basis of Hom(T_u, T_v)
            for r in range(proj_mod.dims[u]):
                cols.append(act_element(m, u, v, r, gen))
        mats.append(ExactMatrix.from_columns(cols, m.dims[u]))
    cover = ModMap(p0, m, mats)
    if not cover.commutes():
        raise ConsistencyError("projective cover does not commute")
    if not cover.is_surjective():
        raise ConsistencyError("projective cover is not surjective")
    return CoverData(tuple(v + 1 for v, _ in gens), cover)


def _cover(m: AModule) -> CoverData:
    if m._cover is None:
        m._cover = projective_cover(m)
    return m._cover


def _syzygy(m: AModule) -> Tuple[AModule, ModMap]:
    """The kernel of the projective cover P0 -> M with its inclusion into
    P0, computed once and kept on the module."""
    if m._syzygy is None:
        m._syzygy = _cover(m).cover.kernel()
    return m._syzygy


class PresentationData(NamedTuple):
    p1_vertices: Tuple[int, ...]
    p0_vertices: Tuple[int, ...]
    psi: ModMap  # P1 -> P0
    entries: Tuple[Tuple[tuple, ...], ...]  # entries[s][t]: coords of the map P_{u_t} -> P_{v_s}


def minimal_projective_presentation(m: AModule) -> PresentationData:
    alg = m.algebra
    cov = _cover(m)
    ker, incl = _syzygy(m)
    cov1 = _cover(ker)
    psi = incl.compose(cov1.cover)
    p0_vertices = cov.vertices
    p1_vertices = cov1.vertices
    # read off the algebra-element entries from the generator images
    entries: List[List[tuple]] = []
    # offsets of each projective block inside P0/P1 vertex spaces
    p0_mods = [projective(alg, v) for v in p0_vertices]
    p1_mods = [projective(alg, v) for v in p1_vertices]
    for s, vs in enumerate(p0_vertices):
        row = []
        for t_idx, ut in enumerate(p1_vertices):
            u0 = ut - 1
            # generator of the t-th block sits at vertex ut
            gen_offset = sum(pm.dims[u0] for pm in p1_mods[:t_idx])
            gen_vec = [0] * sum(pm.dims[u0] for pm in p1_mods)
            gen_vec[gen_offset + alg.identity_pos[u0]] = 1
            img = psi.mats[u0].apply(gen_vec)
            block_offset = sum(pm.dims[u0] for pm in p0_mods[:s])
            block_dim = p0_mods[s].dims[u0]
            row.append(tuple(img[block_offset : block_offset + block_dim]))
        entries.append(row)
    return PresentationData(tuple(p1_vertices), tuple(p0_vertices), psi, tuple(tuple(r) for r in entries))


def tau_A(m: AModule) -> AModule:
    """Auslander-Reiten translate via the Nakayama functor on a minimal
    projective presentation; projective modules are sent to zero.

    Each nonzero entry of the presentation P1 -> P0, an algebra element
    P_{u_t} -> P_{v_s}, gives one block map I_{u_t} -> I_{v_s}: one
    ``map_F`` of the element's tau^2-translate tau^2 T_{u_t} -> tau^2 T_{v_s},
    which has the element's coordinates, as translation relabels the bases.
    nu(psi) at vertex u is the block matrix of those maps' vertex-u
    matrices, zero at zero entries."""
    alg = m.algebra
    if m.is_zero():
        return zero_module(alg)
    pres = minimal_projective_presentation(m)
    if not pres.p1_vertices:
        return zero_module(alg)
    i0_mods = [injective(alg, v) for v in pres.p0_vertices]
    i1_mods = [injective(alg, v) for v in pres.p1_vertices]
    blocks = {}
    for s_idx, i0m in enumerate(i0_mods):
        for t_idx, i1m in enumerate(i1_mods):
            coords = pres.entries[s_idx][t_idx]
            if any(coords):
                blocks[s_idx, t_idx] = map_F(
                    alg, i1m.provenance, i0m.provenance, {(0, 0): coords}).mats
    nu_i1 = direct_sum(i1_mods)
    nu_i0 = direct_sum(i0_mods)
    mats = []
    for u in range(alg.n):
        rows = []
        for s_idx, i0m in enumerate(i0_mods):
            for k in range(i0m.dims[u]):
                row = []
                for t_idx, i1m in enumerate(i1_mods):
                    block = blocks.get((s_idx, t_idx))
                    row.extend(block[u].rows[k] if block else (0,) * i1m.dims[u])
                rows.append(row)
        mats.append(ExactMatrix(rows, ncols=nu_i1.dims[u]))
    nu_psi = ModMap(nu_i1, nu_i0, mats)
    if not nu_psi.commutes():
        raise ConsistencyError("Nakayama image of the presentation does not commute")
    ker, _ = nu_psi.kernel()
    return ker


def is_tau_rigid(m: AModule) -> bool:
    t = tau_A(m)
    if t.is_zero() or m.is_zero():
        return True
    return hom_A_dim(m, t) == 0


# -- locally free structure ----------------------------------------------------


def loop_vertex(algebra: FinDimAlgebra) -> int:
    return algebra.loop_arrow().src


def is_locally_free(m: AModule) -> bool:
    """Free over the local algebra at the loop vertex (elsewhere automatic).

    Decided once and kept on the module."""
    if m._free is None:
        loop = m.algebra.loop_arrow()
        d = m.dims[loop.src - 1]
        m._free = d % 2 == 0 and mat_rank(m.mats[loop.idx]) == d // 2
    return m._free


def rank_vector(m: AModule) -> tuple:
    if not is_locally_free(m):
        raise DomainError("rank vector is defined for locally free modules only")
    lv = loop_vertex(m.algebra) - 1
    return tuple(
        d // 2 if v == lv else d for v, d in enumerate(m.dims)
    )


def euler_leq1(m: AModule, n_mod: AModule) -> int:
    """Truncated Euler form: dim Hom(M, N) - dim Ext^1(M, N).

    Read off the long exact sequence
    0 -> Hom(M, N) -> Hom(P0, N) -> Hom(OmegaM, N) -> Ext^1(M, N) -> 0
    of the projective cover 0 -> OmegaM -> P0 -> M -> 0 (Ext^1(P0, N) = 0):
    it equals dim Hom(P0, N) - dim Hom(OmegaM, N), one Hom solve against
    the syzygy kept on M."""
    if m.is_zero() or n_mod.is_zero():
        return 0
    ker, _ = _syzygy(m)
    hom_p0 = sum(n_mod.dims[v - 1] for v in _cover(m).vertices)
    return hom_p0 - hom_A_dim(ker, n_mod)


def b_matrix_from_euler_form(algebra: FinDimAlgebra) -> Tuple[Tuple[int, ...], ...]:
    """Exchange matrix from the antisymmetrized truncated Euler form on the
    simples; the loop-vertex column is doubled."""
    n = algebra.n

    def form():
        simples = [simple(algebra, i + 1) for i in range(n)]
        return tuple(tuple(euler_leq1(simples[i], simples[j]) for j in range(n))
                     for i in range(n))

    leq1 = _memoised(algebra, ("euler form",), form)
    return b_matrix_from_form(n, lambda i, j: leq1[i][j])


# -- injective copresentation and index/coindex ---------------------------------


def _socle_generator_data(algebra: FinDimAlgebra):
    """Per injective I_j: the socle vector used as the embedding target.

    Built once per algebra and stored on it."""
    if algebra._socle_data is not None:
        return algebra._socle_data
    data = []
    for j in range(1, algebra.n + 1):
        inj = injective(algebra, j)
        soc = socle_basis(inj)
        for v in range(algebra.n):
            expect = 1 if v == j - 1 else 0
            if len(soc[v]) != expect:
                raise ConsistencyError(f"injective at {j} has unexpected socle")
        data.append((inj, soc[j - 1][0]))
    algebra._socle_data = data
    return data


def injective_copresentation(m: AModule) -> Tuple[tuple, tuple]:
    """Multiplicity vectors (a, b) of a minimal copresentation
    0 -> M -> sum I_i^{a_i} -> sum I_i^{b_i}."""
    alg = m.algebra
    if m.is_zero():
        return (0,) * alg.n, (0,) * alg.n
    soc = socle_basis(m)
    a = tuple(len(soc[v]) for v in range(alg.n))
    soc_data = _socle_generator_data(alg)
    env_summands: List[AModule] = []
    env_maps: List[ModMap] = []
    for v in range(alg.n):
        if not soc[v]:
            continue
        inj, gen = soc_data[v]
        hom_basis_v = hom_A_basis(m, inj)
        # each basis map as the concatenation of its images of all socle
        # vectors of m; the map sending socle vector r to gen and every
        # other socle vector to 0 solves for one right-hand side
        images = [
            [x for w in range(alg.n) for s2 in soc[w] for x in phi.mats[w].apply(s2)]
            for phi in hom_basis_v
        ]
        dim = sum(inj.dims[w] * len(soc[w]) for w in range(alg.n))
        solver = SpanSolver(images, dim)
        offset = sum(inj.dims[w] * len(soc[w]) for w in range(v))
        for r in range(len(soc[v])):
            rhs = [0] * dim
            start = offset + r * inj.dims[v]
            rhs[start : start + inj.dims[v]] = gen
            sol = solver.coords(rhs)
            if sol is None:
                raise ConsistencyError("socle embedding into injectives failed")
            mats = [ExactMatrix.zero(inj.dims[w], m.dims[w]) for w in range(alg.n)]
            for cf, base in zip(sol, hom_basis_v):
                if not cf:
                    continue
                scaled = [bm.scale(cf) for bm in base.mats]
                mats = [acc.add(sm) for acc, sm in zip(mats, scaled)]
            env_summands.append(inj)
            env_maps.append(ModMap(m, inj, mats))
    e0 = direct_sum(env_summands) if env_summands else zero_module(alg)
    # stack the component maps
    mats = []
    for w in range(alg.n):
        rows: List[list] = []
        for comp in env_maps:
            rows.extend(list(r) for r in comp.mats[w].rows)
        mats.append(ExactMatrix(rows, ncols=m.dims[w]) if rows else ExactMatrix.zero(0, m.dims[w]))
    emb = ModMap(m, e0, mats)
    if not emb.commutes():
        raise ConsistencyError("injective envelope map does not commute")
    if not emb.is_injective():
        raise ConsistencyError("injective envelope map is not injective")
    cok, _ = emb.cokernel()
    soc_c = socle_basis(cok)
    b = tuple(len(soc_c[v]) for v in range(alg.n))
    return a, b


def i_vector(m: AModule) -> tuple:
    a, b = injective_copresentation(m)
    return tuple(x - y for x, y in zip(a, b))


def _sigma_summand_index(algebra: FinDimAlgebra) -> Dict[Indec, int]:
    """The position i of each shifted summand tau T_i of T, found once and
    kept on the algebra."""
    if algebra._sigma_index is None:
        tube = algebra.tube
        algebra._sigma_index = {tube.tau(s): i for i, s in enumerate(algebra.t.summands)}
    return algebra._sigma_index


def _summed(algebra: FinDimAlgebra, name: str, x, vector: Callable[[Indec], tuple]) -> tuple:
    """The sum over the summands s of X of ``vector(s)``, where a shifted
    summand tau T_i counts -e_i instead.

    Kept on the algebra under ``name`` and the summand tuple of X, and only
    once every summand's vector was computed, so ``vector`` (and the domain
    check it runs) sees a summand tuple once per algebra and no failure is
    ever stored."""
    summands = _normalize_object(algebra.tube, x)
    key = (name, summands)
    total = algebra._vectors.get(key)
    if total is None:
        sigma = _sigma_summand_index(algebra)
        acc = [0] * algebra.n
        for s in summands:
            idx = sigma.get(s)
            if idx is not None:
                acc[idx] -= 1
            else:
                acc = [a + b for a, b in zip(acc, vector(s))]
        total = algebra._vectors[key] = tuple(acc)
    return total


def _coindex_vector(algebra: FinDimAlgebra, s: Indec, mod: AModule) -> tuple:
    """The coindex of the indecomposable s with functor image ``mod``, by
    both routes, which must agree."""
    via_injectives = i_vector(mod)
    via_euler = tuple(euler_leq1(simple(algebra, i + 1), mod) for i in range(algebra.n))
    if via_injectives != via_euler:
        raise ConsistencyError(
            f"coindex routes disagree on {s}: {via_injectives} vs {via_euler}"
        )
    return via_injectives


def coindex(algebra: FinDimAlgebra, x) -> tuple:
    """Coindex of a tube object, in the basis of the summands of T.

    Computed through the minimal injective copresentation of Hom(T, X) and
    independently through the truncated Euler form against the simples; the
    two routes must agree.

    The vector of each indecomposable summand is kept in the tube's module
    memo under its functor image, and only after the two routes agreed;
    the domain check runs once per summand tuple and algebra (``_summed``).
    """
    t = algebra.t

    def vector(s: Indec) -> tuple:
        if not (in_pr_T(t, s) and in_pr_sigma_T(t, s)):
            raise DomainError(f"{s} is outside the coindex domain")
        mod = apply_F(algebra, s)
        return _memoised(algebra, ("coindex", _injectives_class(algebra), _content(mod)),
                         lambda: _coindex_vector(algebra, s, mod))

    return _summed(algebra, "coindex", x, vector)


def index(algebra: FinDimAlgebra, x) -> tuple:
    """Index of a tube object, via the truncated Euler form.

    The vector of each indecomposable summand is kept in the tube's module
    memo under its functor image; the domain check runs once per summand
    tuple and algebra (``_summed``).
    """
    n = algebra.n

    def vector(s: Indec) -> tuple:
        if not in_pr_T(algebra.t, s):
            raise DomainError(f"{s} is outside the index domain")
        mod = apply_F(algebra, s)
        return _memoised(algebra, ("index", _content(mod)), lambda: tuple(
            euler_leq1(mod, simple(algebra, i + 1)) for i in range(n)))

    return _summed(algebra, "index", x, vector)
