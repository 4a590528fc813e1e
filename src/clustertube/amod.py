"""The module category of the endomorphism algebra of a maximal rigid object.

Right modules are stored as representations of the opposite Gabriel quiver:
one exact matrix per arrow ``alpha: i -> j``, acting from the vertex-j space
to the vertex-i space (preimage of precomposition under the functor
``Hom(T, -)``).  On top of the plain representation calculus the module
implements projective covers and injective envelopes, the Auslander-Reiten
translate through the Nakayama functor, the locally free structure at the
loop vertex, and the index/coindex of tube objects.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    ExactMatrix,
    QuotientSpace,
    coords_in_span,
    kernel_basis,
    rank as mat_rank,
)
from .endo import FinDimAlgebra
from .tube import (
    CHom,
    ConsistencyError,
    Indec,
    Tube,
    TubeError,
    chom_coords,
    chom_from_coords,
    hom_c_basis,
    in_pr_T,
    in_pr_sigma_T,
    tau_chom,
)


class DomainError(TubeError):
    """Input outside the mathematical domain of an operation."""


VertexTag = Tuple[int, str, int]  # (summand index, 't' | 'd', local index)


class AModule:
    """A finite-dimensional right module as a quiver representation.

    ``mats[k]`` is the action of the k-th Gabriel arrow ``alpha: i -> j``,
    a matrix from the vertex-j space to the vertex-i space.  Modules coming
    from the functor ``Hom(T, -)`` carry their provenance: the tube object
    and, per vertex, tags recording the tube/shift stratum splitting of the
    basis, which later drives the string normal form.
    """

    __slots__ = ("algebra", "dims", "mats", "provenance", "vtags", "_cover")

    def __init__(
        self,
        algebra: FinDimAlgebra,
        dims: Sequence[int],
        mats: Sequence[ExactMatrix],
        provenance: Optional[Tuple[Indec, ...]] = None,
        vtags: Optional[Tuple[Tuple[VertexTag, ...], ...]] = None,
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
        self.vtags = vtags
        self._cover = None
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

    def dim_vector(self) -> tuple:
        return self.dims

    def same_data(self, other: "AModule") -> bool:
        return self.dims == other.dims and self.mats == other.mats

    def to_json(self) -> dict:
        out = {
            "dims": list(self.dims),
            "arrows": [
                {
                    "arrow": f"{a.src}->{a.tgt}",
                    "matrix": [[str(x) for x in row] for row in self.mats[a.idx].rows],
                }
                for a in self.algebra.arrows
            ],
        }
        if self.provenance is not None:
            out["object"] = [[x.a, x.b] for x in self.provenance]
        return out


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
        mats = []
        for a in alg.arrows:
            cols = []
            for w in bases[a.tgt - 1]:
                img = self.src.mats[a.idx].apply(w)
                coords = coords_in_span(bases[a.src - 1], img)
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
                rep = qt.lift([Fraction(int(i == c)) for i in range(qt.dim)])
                cols.append(qs.project(self.tgt.mats[a.idx].apply(rep)))
            mats.append(ExactMatrix.from_columns(cols, dims[a.src - 1]))
        cok = AModule(alg, dims, mats, check=False)
        proj_mats = []
        for v in range(alg.n):
            cols = [
                quotients[v].project(
                    [Fraction(int(i == j)) for i in range(self.tgt.dims[v])]
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
        vtags=tuple(() for _ in range(algebra.n)),
        check=False,
    )


def direct_sum(modules: Sequence[AModule]) -> AModule:
    """Block-diagonal direct sum; provenance and tags concatenate."""
    modules = list(modules)
    if not modules:
        raise DomainError("empty direct sum needs an algebra; use zero_module")
    alg = modules[0].algebra
    dims = [sum(m.dims[v] for m in modules) for v in range(alg.n)]
    mats = []
    for a in alg.arrows:
        rows: List[list] = [[Fraction(0)] * dims[a.tgt - 1] for _ in range(dims[a.src - 1])]
        roff = 0
        coff = 0
        for m in modules:
            block = m.mats[a.idx]
            for i in range(block.nrows):
                for j in range(block.ncols):
                    rows[roff + i][coff + j] = block.rows[i][j]
            roff += m.dims[a.src - 1]
            coff += m.dims[a.tgt - 1]
        mats.append(ExactMatrix(rows, ncols=dims[a.tgt - 1]))
    prov = None
    if all(m.provenance is not None for m in modules):
        prov = tuple(x for m in modules for x in m.provenance)
    vtags = None
    if all(m.vtags is not None for m in modules):
        vtags = []
        for v in range(alg.n):
            tags = []
            for s, m in enumerate(modules):
                for (si, kind, li) in m.vtags[v]:
                    tags.append((s, kind, li))
            vtags.append(tuple(tags))
        vtags = tuple(vtags)
    return AModule(alg, dims, mats, provenance=prov, vtags=vtags, check=False)


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
    precomposition with the chosen irreducible morphisms.

    The result is memoised on ``algebra`` by the summand tuple of X, so
    equal inputs (``x``, ``(x,)`` or ``(a, b)``) return the same shared
    module for as long as the algebra lives; callers must not mutate it.
    """
    tube = algebra.tube
    t = algebra.t
    summands = _normalize_object(tube, x)
    for s in summands:
        if not in_pr_T(t, s):
            raise DomainError(f"{s} is not finitely presented by {t}")
    cached = algebra._module_cache.get(summands)
    if cached is not None:
        return cached
    n = algebra.n
    bases: List[List[CHom]] = []
    vtags: List[Tuple[VertexTag, ...]] = []
    for i in range(n):
        basis_i: List[CHom] = []
        tags_i: List[VertexTag] = []
        for s_idx, s in enumerate(summands):
            homs = hom_c_basis(tube, t.summands[i], s)
            t_dim = tube.hom_tube_dim(t.summands[i], s)
            for r, h in enumerate(homs):
                basis_i.append(h)
                kind = "t" if r < t_dim else "d"
                tags_i.append((s_idx, kind, r if r < t_dim else r - t_dim))
        bases.append(basis_i)
        vtags.append(tuple(tags_i))
    dims = [len(b) for b in bases]
    mats = []
    for a in algebra.arrows:
        i, j = a.src - 1, a.tgt - 1
        cols = []
        for pos_j, m in enumerate(bases[j]):
            comp = m.compose(a.rep)  # T_i -> X_s
            target_summand = vtags[j][pos_j][0]
            coords = chom_coords(tube, comp)
            # scatter into the vertex-i coordinates: the block of this summand
            col = [Fraction(0)] * dims[i]
            pos = 0
            for r, (ts, kind, li) in enumerate(vtags[i]):
                if ts == target_summand:
                    col[r] = coords[pos]
                    pos += 1
            if pos != len(coords):
                raise ConsistencyError("block scatter mismatch in apply_F")
            cols.append(tuple(col))
        mats.append(ExactMatrix.from_columns(cols, dims[i]))
    module = AModule(
        algebra, dims, mats, provenance=summands, vtags=tuple(vtags)
    )
    algebra._module_cache[summands] = module
    return module


def map_F(algebra: FinDimAlgebra, g: CHom, src: Optional[AModule] = None,
          tgt: Optional[AModule] = None) -> ModMap:
    """The induced map Hom(T, src) -> Hom(T, tgt) of a tube morphism."""
    tube = algebra.tube
    src = src if src is not None else apply_F(algebra, g.src)
    tgt = tgt if tgt is not None else apply_F(algebra, g.tgt)
    if src.provenance != g.src or tgt.provenance != g.tgt:
        raise DomainError("module provenance does not match the morphism")
    mats = []
    for i in range(algebra.n):
        ti = algebra.t.summands[i]
        cols = []
        src_basis = []
        for s_idx, s in enumerate(g.src):
            for h in hom_c_basis(tube, ti, s):
                src_basis.append((s_idx, h))
        for s_idx, h in src_basis:
            # embed h as a morphism into the full sum, compose, then split
            col = [Fraction(0)] * tgt.dims[i]
            for t_idx, y in enumerate(g.tgt):
                block = g.block(s_idx, t_idx)
                comp = block.compose(h)
                coords = chom_coords(tube, comp)
                pos = 0
                for r, (ts, kind, li) in enumerate(tgt.vtags[i]):
                    if ts == t_idx:
                        col[r] += coords[pos]
                        pos += 1
            cols.append(tuple(col))
        mats.append(ExactMatrix.from_columns(cols, tgt.dims[i]))
    return ModMap(src, tgt, mats)


def simple(algebra: FinDimAlgebra, i: int) -> AModule:
    """The simple module at vertex i (1-based)."""
    dims = [int(v == i - 1) for v in range(algebra.n)]
    mats = [
        ExactMatrix.zero(dims[a.src - 1], dims[a.tgt - 1]) for a in algebra.arrows
    ]
    return AModule(algebra, dims, mats, check=False)


def projective(algebra: FinDimAlgebra, i: int) -> AModule:
    return apply_F(algebra, algebra.t.summands[i - 1])


def injective(algebra: FinDimAlgebra, i: int) -> AModule:
    tube = algebra.tube
    return apply_F(algebra, tube.tau(algebra.t.summands[i - 1], 2))


# -- hom and ext ---------------------------------------------------------------


def hom_A_basis(m: AModule, n_mod: AModule) -> List[ModMap]:
    alg = m.algebra
    shapes = [(n_mod.dims[v], m.dims[v]) for v in range(alg.n)]
    offsets = []
    total = 0
    for r, c in shapes:
        offsets.append(total)
        total += r * c
    if total == 0:
        return []

    def entry(v, i, j):
        return offsets[v] + i * shapes[v][1] + j

    rows = []
    for a in alg.arrows:
        i, j = a.src - 1, a.tgt - 1
        am, an = m.mats[a.idx], n_mod.mats[a.idx]
        # phi_i o am = an o phi_j, both maps M_j -> N_i
        for r in range(n_mod.dims[i]):
            for c in range(m.dims[j]):
                row = [Fraction(0)] * total
                for k in range(m.dims[i]):
                    if am.rows[k][c]:
                        row[entry(i, r, k)] += am.rows[k][c]
                for k in range(n_mod.dims[j]):
                    if an.rows[r][k]:
                        row[entry(j, k, c)] -= an.rows[r][k]
                if any(row):
                    rows.append(row)
    if rows:
        kernel = kernel_basis(ExactMatrix(rows, ncols=total))
    else:
        kernel = [
            tuple(Fraction(int(i == k)) for i in range(total)) for k in range(total)
        ]
    out = []
    for vec in kernel:
        mats = []
        for (r, c), off in zip(shapes, offsets):
            mats.append(
                ExactMatrix(
                    [list(vec[off + ri * c : off + (ri + 1) * c]) for ri in range(r)],
                    ncols=c,
                )
            )
        out.append(ModMap(m, n_mod, mats))
    return out


def hom_A_dim(m: AModule, n_mod: AModule) -> int:
    return len(hom_A_basis(m, n_mod))


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
                    tuple(Fraction(int(i == k)) for i in range(m.dims[v]))
                    for k in range(m.dims[v])
                ]
            )
    return out


def act_element(m: AModule, src_vertex: int, tgt_vertex: int, coords, vec) -> tuple:
    """Act with an algebra element of Hom(T_src, T_tgt) on vec in M_tgt.

    ``coords`` are the element's coordinates in the morphism-space basis;
    the action is evaluated by writing the element as identity-plus-paths
    and composing the arrow matrices along each path.
    """
    alg = m.algebra
    i, j = src_vertex, tgt_vertex  # 0-based
    paths = alg.paths(i, j)
    span = [list(c) for _, c in paths]
    labels: List[Optional[tuple]] = [p for p, _ in paths]
    if i == j:
        span.append(list(alg.identity_coords(i)))
        labels.append(None)
    combo = coords_in_span(span, coords)
    if combo is None:
        raise ConsistencyError("element is not in the path span")
    result = [Fraction(0)] * m.dims[i]
    for cf, label in zip(combo, labels):
        if not cf:
            continue
        if label is None:
            vec2 = tuple(vec)
        else:
            vec2 = tuple(vec)
            for arrow_idx in reversed(label):
                vec2 = m.mats[arrow_idx].apply(vec2)
        result = [x + cf * y for x, y in zip(result, vec2)]
    return tuple(result)


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
            gens.append((v, tuple(Fraction(int(i == c)) for i in range(m.dims[v]))))
    summands = [projective(alg, v + 1) for v, _ in gens]
    p0 = direct_sum(summands) if summands else zero_module(alg)
    mats = []
    for u in range(alg.n):
        cols = []
        for (v, gen), proj_mod in zip(gens, summands):
            # basis of (P_v)_u is the morphism-space basis of Hom(T_u, T_v)
            dim_block = proj_mod.dims[u]
            for r in range(dim_block):
                coords = tuple(
                    Fraction(int(s == r)) for s in range(dim_block)
                )
                cols.append(act_element(m, u, v, coords, gen))
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


class PresentationData(NamedTuple):
    p1_vertices: Tuple[int, ...]
    p0_vertices: Tuple[int, ...]
    psi: ModMap  # P1 -> P0
    entries: Tuple[Tuple[tuple, ...], ...]  # entries[s][t]: coords of the map P_{u_t} -> P_{v_s}


def minimal_projective_presentation(m: AModule) -> PresentationData:
    alg = m.algebra
    cov = _cover(m)
    ker, incl = cov.cover.kernel()
    cov1 = projective_cover(ker)
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
            gen_local = alg.identity_coords(u0)
            gen_vec = [Fraction(0)] * sum(pm.dims[u0] for pm in p1_mods)
            for r, x in enumerate(gen_local):
                gen_vec[gen_offset + r] = x
            img = psi.mats[u0].apply(gen_vec)
            block_offset = sum(pm.dims[u0] for pm in p0_mods[:s])
            block_dim = p0_mods[s].dims[u0]
            row.append(tuple(img[block_offset : block_offset + block_dim]))
        entries.append(row)
    return PresentationData(tuple(p1_vertices), tuple(p0_vertices), psi, tuple(tuple(r) for r in entries))


def ext1_A_dim(m: AModule, n_mod: AModule) -> int:
    """dim Ext^1(M, N) from a projective cover P0 -> M with kernel K:
    dim Hom(K, N) - dim Hom(P0, N) + dim Hom(M, N)."""
    if m.is_zero() or n_mod.is_zero():
        return 0
    cov = _cover(m)
    ker, _ = cov.cover.kernel()
    hom_k = hom_A_dim(ker, n_mod)
    hom_p0 = sum(n_mod.dims[v - 1] for v in cov.vertices)
    return hom_k - hom_p0 + hom_A_dim(m, n_mod)


def tau_A(m: AModule) -> AModule:
    """Auslander-Reiten translate via the Nakayama functor on a minimal
    projective presentation; projective modules are sent to zero."""
    alg = m.algebra
    if m.is_zero():
        return zero_module(alg)
    pres = minimal_projective_presentation(m)
    if not pres.p1_vertices:
        return zero_module(alg)
    tube = alg.tube
    i0_mods = [injective(alg, v) for v in pres.p0_vertices]
    i1_mods = [injective(alg, v) for v in pres.p1_vertices]
    nu_i1 = direct_sum(i1_mods)
    nu_i0 = direct_sum(i0_mods) if i0_mods else zero_module(alg)
    mats = []
    for u in range(alg.n):
        cols = []
        col_offset_total = nu_i0.dims[u]
        for t_idx, ut in enumerate(pres.p1_vertices):
            src_mod = i1_mods[t_idx]
            for r in range(src_mod.dims[u]):
                col = [Fraction(0)] * col_offset_total
                basis_vec = [Fraction(int(s == r)) for s in range(src_mod.dims[u])]
                for s_idx, vs in enumerate(pres.p0_vertices):
                    coords = pres.entries[s_idx][t_idx]
                    if not any(coords):
                        continue
                    a_elem = chom_from_coords(
                        tube, alg.t.summands[ut - 1], alg.t.summands[vs - 1], coords
                    )
                    shifted = tau_chom(tube, a_elem, 2)
                    block_map = map_F(alg, shifted, src=src_mod, tgt=i0_mods[s_idx])
                    img = block_map.mats[u].apply(basis_vec)
                    off = sum(i0m.dims[u] for i0m in i0_mods[:s_idx])
                    for k, x in enumerate(img):
                        col[off + k] += x
                cols.append(tuple(col))
        mats.append(ExactMatrix.from_columns(cols, nu_i0.dims[u]))
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
    """Free over the local algebra at the loop vertex (elsewhere automatic)."""
    lv = loop_vertex(m.algebra) - 1
    loop = m.algebra.loop_arrow()
    d = m.dims[lv]
    if d % 2:
        return False
    return mat_rank(m.mats[loop.idx]) == d // 2


def rank_vector(m: AModule) -> tuple:
    if not is_locally_free(m):
        raise DomainError("rank vector is defined for locally free modules only")
    lv = loop_vertex(m.algebra) - 1
    return tuple(
        d // 2 if v == lv else d for v, d in enumerate(m.dims)
    )


def euler_leq1(m: AModule, n_mod: AModule) -> int:
    """Truncated Euler form: dim Hom(M, N) - dim Ext^1(M, N)."""
    return hom_A_dim(m, n_mod) - ext1_A_dim(m, n_mod)


def b_matrix_from_euler_form(algebra: FinDimAlgebra) -> Tuple[Tuple[int, ...], ...]:
    """Exchange matrix from the antisymmetrized truncated Euler form on the
    simples; the loop-vertex column is doubled."""
    n = algebra.n
    simples = [simple(algebra, i + 1) for i in range(n)]
    leq1 = [[euler_leq1(simples[i], simples[j]) for j in range(n)] for i in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            anti = leq1[i][j] - leq1[j][i]
            b[i][j] = 2 * anti if j == 0 else anti
    return tuple(tuple(row) for row in b)


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
        inj, gen = soc_data[v]
        hom_basis_v = hom_A_basis(m, inj)
        for r, s_vec in enumerate(soc[v]):
            # find phi with phi(s_vec) = gen and phi(other socle vectors) = 0
            conditions = []
            rhs = []
            for w in range(alg.n):
                for r2, s2 in enumerate(soc[w]):
                    hit = w == v and r2 == r
                    images = [phi.mats[w].apply(s2) for phi in hom_basis_v]
                    for coord in range(inj.dims[w]):
                        conditions.append([img[coord] for img in images])
                        rhs.append(gen[coord] if hit else Fraction(0))
            sol = coords_in_span([list(c) for c in zip(*conditions)], rhs) if conditions else None
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


def _sigma_summand_index(algebra: FinDimAlgebra, x: Indec) -> Optional[int]:
    tube = algebra.tube
    for i, s in enumerate(algebra.t.summands):
        if tube.tau(s) == x:
            return i
    return None


def coindex(algebra: FinDimAlgebra, x) -> tuple:
    """Coindex of a tube object, in the basis of the summands of T.

    Computed through the minimal injective copresentation of Hom(T, X) and
    independently through the truncated Euler form against the simples; the
    two routes must agree.

    The vector of each indecomposable summand is memoised on the tube by
    (T.summands, summand), and only after the two routes agreed; the domain
    check runs on every call.
    """
    tube = algebra.tube
    summands = _normalize_object(tube, x)
    n = algebra.n
    total = [0] * n
    for s in summands:
        idx = _sigma_summand_index(algebra, s)
        if idx is not None:
            total[idx] -= 1
            continue
        if not (in_pr_T(algebra.t, s) and in_pr_sigma_T(algebra.t, s)):
            raise DomainError(f"{s} is outside the coindex domain")
        key = (algebra.t.summands, s)
        vec = tube._coindex_cache.get(key)
        if vec is None:
            mod = apply_F(algebra, s)
            via_injectives = i_vector(mod)
            via_euler = tuple(
                euler_leq1(simple(algebra, i + 1), mod) for i in range(n)
            )
            if via_injectives != via_euler:
                raise ConsistencyError(
                    f"coindex routes disagree on {s}: {via_injectives} vs {via_euler}"
                )
            vec = tube._coindex_cache[key] = via_injectives
        total = [a + b for a, b in zip(total, vec)]
    return tuple(total)


def index(algebra: FinDimAlgebra, x) -> tuple:
    """Index of a tube object, via the truncated Euler form.

    The vector of each indecomposable summand is memoised on the tube by
    (T.summands, summand); the domain check runs on every call.
    """
    tube = algebra.tube
    summands = _normalize_object(tube, x)
    n = algebra.n
    total = [0] * n
    for s in summands:
        idx = _sigma_summand_index(algebra, s)
        if idx is not None:
            total[idx] -= 1
            continue
        if not in_pr_T(algebra.t, s):
            raise DomainError(f"{s} is outside the index domain")
        key = (algebra.t.summands, s)
        vec = tube._index_cache.get(key)
        if vec is None:
            mod = apply_F(algebra, s)
            vec = tube._index_cache[key] = tuple(
                euler_leq1(mod, simple(algebra, i + 1)) for i in range(n)
            )
        total = [a + b for a, b in zip(total, vec)]
    return tuple(total)
