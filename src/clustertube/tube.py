"""The cluster tube of rank n+1 and its morphism calculus.

Objects are the indecomposables ``(a, b)`` of a tube: nilpotent
representations of a cyclic quiver with ``n + 1`` vertices (arrows go from
vertex ``v`` to ``v - 1``), where ``a`` is the socle position and ``b`` the
length.  Morphisms in the orbit category split into two strata:

* tube morphisms, stored as explicit intertwiners of the representations;
* shift-stratum morphisms, stored as first-extension classes between a
  source object and the inverse translate of the target, in the fixed
  cokernel basis of the standard two-term complex.

Composition pushes and pulls extension classes along intertwiners, so the
whole calculus is exact rational linear algebra.  On top of it this module
enumerates rigid and maximal rigid objects, mutates them through exchange
triangles computed as minimal approximations, and assembles the associated
skew-symmetrizable matrix.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    ExactMatrix,
    QuotientSpace,
    coords_in_span,
    kernel_basis,
    span_rank,
)


class TubeError(ValueError):
    pass


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; signals a bug, not bad input."""


class Indec(NamedTuple):
    """Indecomposable tube object: socle position ``a`` (1-based) and length ``b``."""

    a: int
    b: int

    def __str__(self):
        return f"({self.a},{self.b})"


VertexMaps = Tuple[ExactMatrix, ...]  # one matrix per vertex, phi_v: X_v -> Y_v


class NilRep:
    """A nilpotent cyclic-quiver representation: dimensions and arrow maps."""

    __slots__ = ("dims", "maps")

    def __init__(self, dims: Sequence[int], maps: Sequence[ExactMatrix]):
        self.dims = tuple(dims)
        self.maps = tuple(maps)
        p = len(self.dims)
        for v in range(p):
            m = self.maps[v]
            if (m.nrows, m.ncols) != (self.dims[(v - 1) % p], self.dims[v]):
                raise TubeError("arrow map shape mismatch")


class ExtSpace:
    """Ext^1 between two tube objects via the standard two-term complex.

    The ambient space is the arrow-indexed block sum of Hom(X_v, Y_{v-1});
    the space itself is the quotient by the image of the differential, with
    the canonical representatives supplied by :class:`QuotientSpace`.
    """

    __slots__ = ("tube", "src", "tgt", "block_shapes", "offsets", "total", "quotient")

    def __init__(self, tube: "Tube", src: Indec, tgt: Indec):
        self.tube = tube
        self.src = src
        self.tgt = tgt
        p = tube.p
        xd = tube.indec_dims(src)
        yd = tube.indec_dims(tgt)
        shapes = []
        offsets = []
        total = 0
        for v in range(p):
            shape = (yd[(v - 1) % p], xd[v])
            shapes.append(shape)
            offsets.append(total)
            total += shape[0] * shape[1]
        self.block_shapes = tuple(shapes)
        self.offsets = tuple(offsets)
        self.total = total
        spanning = []
        xarr = [tube.arrow_matrix(src, v) for v in range(p)]
        yarr = [tube.arrow_matrix(tgt, v) for v in range(p)]
        for v in range(p):
            for r in range(yd[v]):
                for c in range(xd[v]):
                    unit = ExactMatrix(
                        [
                            [Fraction(int(i == r and j == c)) for j in range(xd[v])]
                            for i in range(yd[v])
                        ],
                        ncols=xd[v],
                    )
                    image = [ExactMatrix.zero(*self.block_shapes[w]) for w in range(p)]
                    w = (v + 1) % p
                    image[w] = image[w].add(unit.mul(xarr[w]))
                    image[v] = image[v].add(yarr[v].mul(unit).neg())
                    spanning.append(self.flatten(tuple(image)))
        self.quotient = QuotientSpace(total, spanning)

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def zero_blocks(self) -> Tuple[ExactMatrix, ...]:
        return tuple(ExactMatrix.zero(*s) for s in self.block_shapes)

    def flatten(self, blocks: Sequence[ExactMatrix]) -> tuple:
        flat: List[Fraction] = []
        for b in blocks:
            for row in b.rows:
                flat.extend(row)
        if len(flat) != self.total:
            raise TubeError("block flattening mismatch")
        return tuple(flat)

    def unflatten(self, flat: Sequence) -> Tuple[ExactMatrix, ...]:
        blocks = []
        for (r, c), off in zip(self.block_shapes, self.offsets):
            rows = [list(flat[off + i * c : off + (i + 1) * c]) for i in range(r)]
            blocks.append(ExactMatrix(rows, ncols=c))
        return tuple(blocks)

    def project(self, flat: Sequence) -> tuple:
        return self.quotient.project(flat)

    def lift(self, coords: Sequence) -> Tuple[ExactMatrix, ...]:
        return self.unflatten(self.quotient.lift(coords))


class Tube:
    """Computation context for one tube rank; caches all morphism spaces."""

    def __init__(self, n: int):
        if n < 2:
            raise TubeError("tube rank must be at least 3 (n >= 2)")
        self.n = n
        self.p = n + 1
        self._hom_cache: Dict[Tuple[Indec, Indec], List[VertexMaps]] = {}
        self._ext_cache: Dict[Tuple[Indec, Indec], ExtSpace] = {}
        self._dims_cache: Dict[Indec, tuple] = {}
        # index and coindex vectors of one indecomposable X with respect to a
        # maximal rigid T, keyed by (T.summands, X); filled by clustertube.amod
        self._index_cache: Dict[Tuple[Tuple[Indec, ...], Indec], tuple] = {}
        self._coindex_cache: Dict[Tuple[Tuple[Indec, ...], Indec], tuple] = {}

    # -- objects -----------------------------------------------------------

    def norm_pos(self, a: int) -> int:
        return (a - 1) % self.p + 1

    def indec(self, a: int, b: int) -> Indec:
        if b < 1:
            raise TubeError("length must be positive")
        return Indec(self.norm_pos(a), b)

    def tau(self, x: Indec, k: int = 1) -> Indec:
        return self.indec(x.a - k, x.b)

    def sigma(self, x: Indec) -> Indec:
        """Suspension; agrees with the translation on the cluster tube."""
        return self.tau(x)

    def indec_dims(self, x: Indec) -> tuple:
        cached = self._dims_cache.get(x)
        if cached is None:
            dims = [0] * self.p
            for j in range(x.b):
                dims[(x.a - 1 + j) % self.p] += 1
            cached = tuple(dims)
            self._dims_cache[x] = cached
        return cached

    def basis_positions(self, x: Indec, v: int) -> List[int]:
        """Socle-to-top indices j of the basis vectors of x sitting at vertex v (0-based)."""
        return [j for j in range(x.b) if (x.a - 1 + j) % self.p == v]

    def arrow_matrix(self, x: Indec, v: int) -> ExactMatrix:
        """The arrow map X_v -> X_{v-1}: basis vector j goes to j - 1."""
        src = self.basis_positions(x, v)
        tgt = self.basis_positions(x, (v - 1) % self.p)
        rows = [
            [Fraction(int(js == jt + 1)) for js in src]
            for jt in tgt
        ]
        return ExactMatrix(rows, ncols=len(src))

    def nilrep(self, x: Indec) -> NilRep:
        return NilRep(self.indec_dims(x), [self.arrow_matrix(x, v) for v in range(self.p)])

    def wing(self, top: Indec) -> List[Indec]:
        """All indecomposables in the triangle below ``top`` in the AR quiver."""
        out = []
        for i in range(top.b):
            for d in range(1, top.b - i + 1):
                out.append(self.indec(top.a + i, d))
        return out

    # -- tube morphisms ------------------------------------------------------

    def hom_basis(self, x: Indec, y: Indec) -> List[VertexMaps]:
        key = (x, y)
        cached = self._hom_cache.get(key)
        if cached is not None:
            return cached
        p = self.p
        xd = self.indec_dims(x)
        yd = self.indec_dims(y)
        shapes = [(yd[v], xd[v]) for v in range(p)]
        offsets = []
        total = 0
        for r, c in shapes:
            offsets.append(total)
            total += r * c
        if total == 0:
            self._hom_cache[key] = []
            return []
        xarr = [self.arrow_matrix(x, v) for v in range(p)]
        yarr = [self.arrow_matrix(y, v) for v in range(p)]

        def entry_index(v, i, j):
            return offsets[v] + i * shapes[v][1] + j

        rows = []
        for v in range(p):
            w = (v - 1) % p
            # phi_w X_v = Y_v phi_v, one equation per (i, j)
            for i in range(yd[w]):
                for j in range(xd[v]):
                    row = [Fraction(0)] * total
                    for k in range(xd[w]):
                        coeff = xarr[v].rows[k][j]
                        if coeff:
                            row[entry_index(w, i, k)] += coeff
                    for k in range(yd[v]):
                        coeff = yarr[v].rows[i][k]
                        if coeff:
                            row[entry_index(v, k, j)] -= coeff
                    if any(row):
                        rows.append(row)
        if rows:
            kernel = kernel_basis(ExactMatrix(rows, ncols=total))
        else:
            kernel = [
                tuple(Fraction(int(i == k)) for i in range(total)) for k in range(total)
            ]
        basis = []
        for vec in kernel:
            blocks = []
            for (r, c), off in zip(shapes, offsets):
                blocks.append(
                    ExactMatrix([list(vec[off + i * c : off + (i + 1) * c]) for i in range(r)], ncols=c)
                )
            basis.append(tuple(blocks))
        self._hom_cache[key] = basis
        return basis

    def hom_tube_dim(self, x: Indec, y: Indec) -> int:
        return len(self.hom_basis(x, y))

    def ext_space(self, x: Indec, y: Indec) -> ExtSpace:
        key = (x, y)
        cached = self._ext_cache.get(key)
        if cached is None:
            cached = ExtSpace(self, x, y)
            self._ext_cache[key] = cached
        return cached

    def ext1_tube_dim(self, x: Indec, y: Indec) -> int:
        return self.ext_space(x, y).dim

    def dmor_space(self, x: Indec, y: Indec) -> ExtSpace:
        """Shift-stratum morphisms x -> y, as Ext^1(x, tau^{-1} y)."""
        return self.ext_space(x, self.tau(y, -1))

    def dmor_dim(self, x: Indec, y: Indec) -> int:
        return self.dmor_space(x, y).dim

    def hom_c_dim(self, x: Indec, y: Indec) -> int:
        """Total morphism dimension in the cluster tube."""
        return self.hom_tube_dim(x, y) + self.hom_tube_dim(y, self.tau(x, 2))

    def ext1_c_dim(self, x: Indec, y: Indec) -> int:
        return self.hom_c_dim(x, self.tau(y))

    # -- vertex-map utilities ----------------------------------------------

    def zero_vmaps(self, x: Indec, y: Indec) -> VertexMaps:
        xd = self.indec_dims(x)
        yd = self.indec_dims(y)
        return tuple(ExactMatrix.zero(yd[v], xd[v]) for v in range(self.p))

    def identity_vmaps(self, x: Indec) -> VertexMaps:
        return tuple(ExactMatrix.identity(d) for d in self.indec_dims(x))

    def compose_vmaps(self, g: VertexMaps, f: VertexMaps) -> VertexMaps:
        return tuple(gm.mul(fm) for gm, fm in zip(g, f))

    def add_vmaps(self, a: VertexMaps, b: VertexMaps) -> VertexMaps:
        return tuple(am.add(bm) for am, bm in zip(a, b))

    def scale_vmaps(self, a: VertexMaps, c) -> VertexMaps:
        return tuple(am.scale(c) for am in a)

    def tau_vmaps(self, f: VertexMaps, k: int) -> VertexMaps:
        """Relabel an intertwiner along the rotation (tau^k f)_v = f_{v+k}."""
        p = self.p
        return tuple(f[(v + k) % p] for v in range(p))

    def vmaps_is_zero(self, f: VertexMaps) -> bool:
        return all(m.is_zero() for m in f)

    def flatten_vmaps(self, f: VertexMaps) -> tuple:
        flat: List[Fraction] = []
        for m in f:
            for row in m.rows:
                flat.extend(row)
        return tuple(flat)

    def hom_coords(self, x: Indec, y: Indec, f: VertexMaps) -> tuple:
        """Coordinates of a tube morphism in the cached basis of Hom(x, y)."""
        basis = self.hom_basis(x, y)
        flat = self.flatten_vmaps(f)
        if not basis:
            if any(flat):
                raise ConsistencyError("nonzero intertwiner outside the morphism space")
            return ()
        cols = [self.flatten_vmaps(b) for b in basis]
        coords = coords_in_span(cols, flat)
        if coords is None:
            raise ConsistencyError("intertwiner does not lie in the morphism space")
        return coords

    # -- extension-class push/pull -------------------------------------------

    def pull_class(self, x_new: Indec, x_old: Indec, y: Indec, coords, f: VertexMaps):
        """Precompose a shift-stratum class (x_old -> y) with f: x_new -> x_old."""
        space_old = self.dmor_space(x_old, y)
        space_new = self.dmor_space(x_new, y)
        blocks = space_old.lift(coords)
        new_blocks = tuple(psi.mul(f[v]) for v, psi in enumerate(blocks))
        return space_new.project(space_new.flatten(new_blocks))

    def push_class(self, x: Indec, y_old: Indec, y_new: Indec, coords, g: VertexMaps):
        """Postcompose a shift-stratum class (x -> y_old) with g: y_old -> y_new."""
        space_old = self.dmor_space(x, y_old)
        space_new = self.dmor_space(x, y_new)
        blocks = space_old.lift(coords)
        shifted = self.tau_vmaps(g, -1)  # map between the inverse translates
        p = self.p
        new_blocks = tuple(
            shifted[(v - 1) % p].mul(blocks[v]) for v in range(p)
        )
        return space_new.project(space_new.flatten(new_blocks))


class CHom:
    """A morphism between formal direct sums of indecomposables.

    Stored blockwise: ``t`` maps hold the tube-stratum intertwiners, ``d``
    coordinate vectors hold the shift-stratum classes.  Missing blocks are
    zero.  Composition follows the stratification: tube o tube stays in the
    tube stratum, mixed compositions push or pull extension classes, and the
    composition of two shift-stratum morphisms vanishes.
    """

    __slots__ = ("tube", "src", "tgt", "t", "d")

    def __init__(self, tube: Tube, src: Sequence[Indec], tgt: Sequence[Indec],
                 t: Optional[dict] = None, d: Optional[dict] = None):
        self.tube = tube
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.t = dict(t or {})
        self.d = dict(d or {})

    @classmethod
    def zero(cls, tube: Tube, src: Sequence[Indec], tgt: Sequence[Indec]) -> "CHom":
        return cls(tube, src, tgt)

    @classmethod
    def identity(cls, tube: Tube, obj: Sequence[Indec]) -> "CHom":
        t = {(i, i): tube.identity_vmaps(x) for i, x in enumerate(obj)}
        return cls(tube, obj, obj, t=t)

    @classmethod
    def t_single(cls, tube: Tube, src: Indec, tgt: Indec, vmaps: VertexMaps) -> "CHom":
        return cls(tube, (src,), (tgt,), t={(0, 0): vmaps})

    @classmethod
    def d_single(cls, tube: Tube, src: Indec, tgt: Indec, coords) -> "CHom":
        return cls(tube, (src,), (tgt,), d={(0, 0): tuple(coords)})

    def add(self, other: "CHom") -> "CHom":
        if self.src != other.src or self.tgt != other.tgt:
            raise TubeError("cannot add morphisms with different endpoints")
        t = dict(self.t)
        for key, vm in other.t.items():
            t[key] = self.tube.add_vmaps(t[key], vm) if key in t else vm
        d = dict(self.d)
        for key, coords in other.d.items():
            if key in d:
                d[key] = tuple(a + b for a, b in zip(d[key], coords))
            else:
                d[key] = coords
        return CHom(self.tube, self.src, self.tgt, t=t, d=d)

    def scale(self, c) -> "CHom":
        t = {k: self.tube.scale_vmaps(vm, c) for k, vm in self.t.items()}
        d = {k: tuple(Fraction(c) * x for x in coords) for k, coords in self.d.items()}
        return CHom(self.tube, self.src, self.tgt, t=t, d=d)

    def compose(self, other: "CHom") -> "CHom":
        """self o other (apply ``other`` first)."""
        if other.tgt != self.src:
            raise TubeError("morphisms are not composable")
        tube = self.tube
        t_acc: Dict[tuple, VertexMaps] = {}
        d_raw: Dict[tuple, list] = {}

        def add_t(i, k, vm):
            key = (i, k)
            t_acc[key] = tube.add_vmaps(t_acc[key], vm) if key in t_acc else vm

        def add_d_flat(i, k, flat):
            key = (i, k)
            if key in d_raw:
                d_raw[key] = [a + b for a, b in zip(d_raw[key], flat)]
            else:
                d_raw[key] = list(flat)

        for (i, j), f_vm in sorted(other.t.items()):
            for (j2, k), g_vm in sorted(self.t.items()):
                if j2 != j:
                    continue
                add_t(i, k, tube.compose_vmaps(g_vm, f_vm))
            for (j2, k), g_coords in sorted(self.d.items()):
                if j2 != j:
                    continue
                # shift-stratum after tube morphism: pull the class back
                space = tube.dmor_space(other.src[i], self.tgt[k])
                lifted = tube.dmor_space(self.src[j], self.tgt[k]).lift(g_coords)
                pulled = tuple(psi.mul(f_vm[v]) for v, psi in enumerate(lifted))
                add_d_flat(i, k, space.flatten(pulled))
        for (i, j), f_coords in sorted(other.d.items()):
            for (j2, k), g_vm in sorted(self.t.items()):
                if j2 != j:
                    continue
                # tube morphism after shift stratum: push the class forward
                src_obj = other.src[i]
                space_new = tube.dmor_space(src_obj, self.tgt[k])
                space_old = tube.dmor_space(src_obj, other.tgt[j])
                blocks = space_old.lift(f_coords)
                shifted = tube.tau_vmaps(g_vm, -1)
                p = tube.p
                pushed = tuple(shifted[(v - 1) % p].mul(blocks[v]) for v in range(p))
                add_d_flat(i, k, space_new.flatten(pushed))
        d_acc = {}
        for (i, k), flat in d_raw.items():
            space = tube.dmor_space(other.src[i], self.tgt[k])
            coords = space.project(flat)
            if any(coords):
                d_acc[(i, k)] = coords
        t_clean = {k: vm for k, vm in t_acc.items() if not tube.vmaps_is_zero(vm)}
        return CHom(tube, other.src, self.tgt, t=t_clean, d=d_acc)

    def t_part(self) -> "CHom":
        return CHom(self.tube, self.src, self.tgt, t=dict(self.t))

    def d_part(self) -> "CHom":
        return CHom(self.tube, self.src, self.tgt, d=dict(self.d))

    def is_zero(self) -> bool:
        tube = self.tube
        if any(not tube.vmaps_is_zero(vm) for vm in self.t.values()):
            return False
        return all(not any(c) for c in self.d.values())

    def block(self, i: int, k: int) -> "CHom":
        t = {}
        d = {}
        if (i, k) in self.t:
            t[(0, 0)] = self.t[(i, k)]
        if (i, k) in self.d:
            d[(0, 0)] = self.d[(i, k)]
        return CHom(self.tube, (self.src[i],), (self.tgt[k],), t=t, d=d)


def hom_c_basis(tube: Tube, x: Indec, y: Indec) -> List[CHom]:
    """Basis of the cluster-tube morphism space: tube stratum first."""
    out = [CHom.t_single(tube, x, y, vm) for vm in tube.hom_basis(x, y)]
    space = tube.dmor_space(x, y)
    for i in range(space.dim):
        coords = tuple(Fraction(int(j == i)) for j in range(space.dim))
        out.append(CHom.d_single(tube, x, y, coords))
    return out


def chom_coords(tube: Tube, f: CHom) -> tuple:
    """Coordinates of a single-block morphism in the hom_c_basis ordering."""
    if len(f.src) != 1 or len(f.tgt) != 1:
        raise TubeError("coordinates are defined for single-block morphisms")
    x, y = f.src[0], f.tgt[0]
    t_vm = f.t.get((0, 0))
    t_coords = tube.hom_coords(x, y, t_vm) if t_vm is not None else (Fraction(0),) * tube.hom_tube_dim(x, y)
    space = tube.dmor_space(x, y)
    d_coords = f.d.get((0, 0), (Fraction(0),) * space.dim)
    return tuple(t_coords) + tuple(d_coords)


def chom_from_coords(tube: Tube, x: Indec, y: Indec, coords: Sequence) -> CHom:
    """Rebuild a single-block morphism from hom_c_basis coordinates."""
    basis = hom_c_basis(tube, x, y)
    if len(coords) != len(basis):
        raise TubeError("coordinate length mismatch")
    out = CHom.zero(tube, (x,), (y,))
    for c, f in zip(coords, basis):
        if c:
            out = out.add(f.scale(c))
    return out


def tau_chom(tube: Tube, f: CHom, k: int) -> CHom:
    """Apply the rotation tau^k to a morphism.

    Tube-stratum intertwiners are relabelled; shift-stratum classes are
    lifted to representatives, cyclically relabelled block-wise and projected
    into the cokernel basis of the shifted extension space.
    """
    src = tuple(tube.tau(x, k) for x in f.src)
    tgt = tuple(tube.tau(y, k) for y in f.tgt)
    t = {key: tube.tau_vmaps(vm, k) for key, vm in f.t.items()}
    d = {}
    p = tube.p
    for (i, j), coords in f.d.items():
        old_space = tube.dmor_space(f.src[i], f.tgt[j])
        new_space = tube.dmor_space(src[i], tgt[j])
        blocks = old_space.lift(coords)
        shifted = tuple(blocks[(v + k) % p] for v in range(p))
        new_coords = new_space.project(new_space.flatten(shifted))
        if any(new_coords):
            d[(i, j)] = new_coords
    return CHom(tube, src, tgt, t=t, d=d)


def in_region_F(tube: Tube, x: Indec) -> bool:
    """Membership in the fundamental region for objects presented by a
    maximal rigid object whose long summand is (1, n)."""
    n = tube.n
    if x.b <= n:
        return True
    return n + 1 <= x.b <= 2 * n and x.a + x.b <= 2 * n + 1


def in_pr_T(t: "MaximalRigid", x: Indec) -> bool:
    shift = t.long.a - 1
    return in_region_F(t.tube, t.tube.tau(x, shift))


def in_pr_sigma_T(t: "MaximalRigid", x: Indec) -> bool:
    shift = t.long.a - 1
    return in_region_F(t.tube, t.tube.tau(t.tube.tau(x, shift), -1))


# -- rigid objects ----------------------------------------------------------


def is_rigid(tube: Tube, x: Indec) -> bool:
    """Length criterion, cross-checked against self-extension vanishing."""
    by_length = x.b <= tube.n
    by_ext = tube.ext1_c_dim(x, x) == 0
    if by_length != by_ext:
        raise ConsistencyError(f"rigidity criteria disagree on {x}")
    return by_length


def is_rigid_set(tube: Tube, objs: Sequence[Indec]) -> bool:
    objs = [tube.indec(*o) for o in objs]
    if len(set(objs)) != len(objs):
        return False
    for x in objs:
        if not is_rigid(tube, x):
            return False
    for i, x in enumerate(objs):
        for y in objs[i + 1 :]:
            if tube.ext1_c_dim(x, y) != 0 or tube.ext1_c_dim(y, x) != 0:
                return False
    return True


def all_rigid_indecs(tube: Tube) -> List[Indec]:
    return [Indec(a, b) for a in range(1, tube.p + 1) for b in range(1, tube.n + 1)]


class MaximalRigid:
    """A basic maximal rigid object, the unique length-n summand first.

    The order of the remaining summands is significant: it fixes the row and
    column labelling of the associated exchange matrix.
    """

    __slots__ = ("tube", "summands")

    def __init__(self, tube: Tube, summands: Sequence[Indec], validate: bool = True):
        summands = tuple(tube.indec(*s) for s in summands)
        if len(summands) != tube.n:
            raise TubeError(f"a maximal rigid object here has {tube.n} summands")
        longs = [s for s in summands if s.b == tube.n]
        if len(longs) != 1 or summands[0].b != tube.n:
            raise TubeError("need exactly one length-n summand, listed first")
        if validate and not is_rigid_set(tube, summands):
            raise TubeError("summands are not pairwise rigid")
        self.tube = tube
        self.summands = summands

    @property
    def long(self) -> Indec:
        return self.summands[0]

    def as_set(self) -> frozenset:
        return frozenset(self.summands)

    def canonical(self) -> "MaximalRigid":
        rest = sorted(self.summands[1:])
        return MaximalRigid(self.tube, (self.summands[0],) + tuple(rest), validate=False)

    def reordered(self, rest_order: Sequence[Indec]) -> "MaximalRigid":
        if frozenset(rest_order) != frozenset(self.summands[1:]):
            raise TubeError("reordering must permute the short summands")
        return MaximalRigid(self.tube, (self.long,) + tuple(rest_order), validate=False)

    def shifted(self, k: int) -> "MaximalRigid":
        """Apply tau^k to every summand, keeping the labelling."""
        return MaximalRigid(
            self.tube, tuple(self.tube.tau(s, k) for s in self.summands), validate=False
        )

    def __eq__(self, other):
        return isinstance(other, MaximalRigid) and self.summands == other.summands

    def __hash__(self):
        return hash(self.summands)

    def __repr__(self):
        return "MaximalRigid[" + " + ".join(str(s) for s in self.summands) + "]"

    def to_json(self) -> dict:
        return {"summands": [[s.a, s.b] for s in self.summands]}


def enumerate_maximal_rigid(n: int, tube: Optional[Tube] = None) -> List[MaximalRigid]:
    """All basic maximal rigid objects, one wing at a time.

    Every maximal rigid object consists of a unique length-n summand together
    with n-1 further summands inside its wing, so for each possible long
    summand we search pairwise-compatible completions in that wing.
    """
    tube = tube or Tube(n)
    out: List[MaximalRigid] = []
    for a in range(1, tube.p + 1):
        top = Indec(a, n)
        candidates = [x for x in tube.wing(top) if x != top]
        compatible = {
            x: {
                y
                for y in candidates
                if y != x and tube.ext1_c_dim(x, y) == 0 and tube.ext1_c_dim(y, x) == 0
            }
            for x in candidates
        }

        def extend(chosen: List[Indec], pool: List[Indec]):
            if len(chosen) == n - 1:
                out.append(
                    MaximalRigid(tube, (top,) + tuple(sorted(chosen)), validate=False)
                )
                return
            for idx, x in enumerate(pool):
                extend(chosen + [x], [y for y in pool[idx + 1 :] if y in compatible[x]])

        extend([], sorted(candidates))
    return out


# -- mutation and exchange triangles ----------------------------------------


class ApproxResult(NamedTuple):
    middle: Tuple[Indec, ...]
    components: Tuple[CHom, ...]  # per middle summand, the morphism to/from the target


class ExchangeData(NamedTuple):
    """Everything attached to one mutation of a maximal rigid object.

    ``right_middle`` sits in the triangle  new -> right_middle -> old,
    ``left_middle`` in the triangle  old -> left_middle -> new, where ``old``
    is the replaced summand and ``new`` its exchange partner.  ``right_maps``
    are the components right_middle_i -> old of the minimal right
    approximation, ``left_maps`` the components old -> left_middle_i.
    """

    mutated: "MaximalRigid"
    old: Indec
    new: Indec
    right_middle: Tuple[Indec, ...]
    right_maps: Tuple[CHom, ...]
    left_middle: Tuple[Indec, ...]
    left_maps: Tuple[CHom, ...]


def _radical_basis(tube: Tube, x: Indec, y: Indec) -> List[CHom]:
    """Basis of the radical of Hom(x, y) inside add(T)."""
    basis = hom_c_basis(tube, x, y)
    if x != y:
        return basis
    # For an indecomposable, the radical is spanned by the non-invertible
    # basis vectors; the tube stratum of End is the scalars, the shift
    # stratum is nilpotent.
    return [f for f in basis if not f.t]


def minimal_right_approximation(tube: Tube, others: Sequence[Indec], z: Indec) -> ApproxResult:
    """Minimal right approximation of z by sums of the given indecomposables.

    The multiplicity of each summand equals the dimension of its slot in the
    top of Hom(others, z) as a module over the endomorphism algebra of the
    sum of the others; the component maps lift a basis of that top.
    """
    others = list(others)
    middle: List[Indec] = []
    comps: List[CHom] = []
    for i, u in enumerate(others):
        basis = hom_c_basis(tube, u, z)
        if not basis:
            continue
        radical_images = []
        for j, w in enumerate(others):
            target_basis = hom_c_basis(tube, w, z)
            if not target_basis:
                continue
            for r in _radical_basis(tube, u, w):
                for h in target_basis:
                    radical_images.append(chom_coords(tube, h.compose(r)))
        dim = len(basis)
        # deterministic greedy lift of a basis of Hom(u, z) modulo the
        # radical part: keep the basis vectors whose classes are new
        span = [list(v) for v in radical_images]
        chosen: List[CHom] = []
        current_rank = span_rank(span)
        for idx in range(dim):
            unit = [Fraction(int(t == idx)) for t in range(dim)]
            new_rank = span_rank(span + [unit])
            if new_rank > current_rank:
                span.append(unit)
                current_rank = new_rank
                chosen.append(basis[idx])
        for f in chosen:
            middle.append(u)
            comps.append(f)
    return ApproxResult(tuple(middle), tuple(comps))


def minimal_left_approximation(tube: Tube, z: Indec, others: Sequence[Indec]) -> ApproxResult:
    """Minimal left approximation of z into sums of the given indecomposables."""
    others = list(others)
    middle: List[Indec] = []
    comps: List[CHom] = []
    for i, u in enumerate(others):
        basis = hom_c_basis(tube, z, u)
        if not basis:
            continue
        radical_images = []
        for j, w in enumerate(others):
            source_basis = hom_c_basis(tube, z, w)
            if not source_basis:
                continue
            for r in _radical_basis(tube, w, u):
                for h in source_basis:
                    radical_images.append(chom_coords(tube, r.compose(h)))
        dim = len(basis)
        span = [list(v) for v in radical_images]
        chosen: List[CHom] = []
        current_rank = span_rank(span)
        for idx in range(dim):
            unit = [Fraction(int(t == idx)) for t in range(dim)]
            new_rank = span_rank(span + [unit])
            if new_rank > current_rank:
                span.append(unit)
                current_rank = new_rank
                chosen.append(basis[idx])
        for f in chosen:
            middle.append(u)
            comps.append(f)
    return ApproxResult(tuple(middle), tuple(comps))


def completions(tube: Tube, others: Sequence[Indec]) -> List[Indec]:
    """Indecomposables completing the given almost complete object."""
    others = list(others)
    found = []
    for x in all_rigid_indecs(tube):
        if x in others:
            continue
        if all(
            tube.ext1_c_dim(x, y) == 0 and tube.ext1_c_dim(y, x) == 0 for y in others
        ):
            found.append(x)
    return found


def mutate_rigid(t: MaximalRigid, k: int) -> ExchangeData:
    """Replace the k-th summand (1-based) by its unique exchange partner."""
    tube = t.tube
    if not 1 <= k <= tube.n:
        raise TubeError(f"mutation index {k} out of range")
    old = t.summands[k - 1]
    others = [s for i, s in enumerate(t.summands) if i != k - 1]
    comps = completions(tube, others)
    if len(comps) != 2 or old not in comps:
        raise ConsistencyError(
            f"expected exactly two completions of {others}, found {comps}"
        )
    new = next(c for c in comps if c != old)
    right = minimal_right_approximation(tube, others, old)
    left = minimal_left_approximation(tube, old, others)
    summands = list(t.summands)
    summands[k - 1] = new
    if new.b == tube.n:
        order = [new] + [s for s in summands if s != new]
    else:
        order = summands
    mutated = MaximalRigid(tube, tuple(order), validate=False)
    return ExchangeData(
        mutated=mutated,
        old=old,
        new=new,
        right_middle=right.middle,
        right_maps=right.components,
        left_middle=left.middle,
        left_maps=left.components,
    )


def mutate_at(t: MaximalRigid, summand: Indec) -> ExchangeData:
    idx = t.summands.index(t.tube.indec(*summand))
    return mutate_rigid(t, idx + 1)


def b_matrix_multiplicities(t: MaximalRigid) -> Tuple[Tuple[int, ...], ...]:
    """Exchange matrix from exchange-triangle middle-term multiplicities."""
    tube = t.tube
    n = tube.n
    cols = []
    for j in range(1, n + 1):
        data = mutate_rigid(t, j)
        col = []
        for i in range(n):
            ti = t.summands[i]
            col.append(data.right_middle.count(ti) - data.left_middle.count(ti))
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def b_matrix(t: MaximalRigid, cross_validate: bool = True, algebra=None):
    """The skew-symmetrizable matrix attached to a maximal rigid object.

    Computed from exchange-triangle multiplicities and, unless disabled,
    cross-validated against the arrow-count rule on the endomorphism quiver
    and the antisymmetrized truncated Euler form on simples.
    """
    from .cluster import ExchangeMatrix

    mult = b_matrix_multiplicities(t)
    if cross_validate:
        from .endo import b_matrix_from_quiver, build_endomorphism_algebra
        from .amod import b_matrix_from_euler_form

        if algebra is None:
            algebra = build_endomorphism_algebra(t, check=False)
        arrows = b_matrix_from_quiver(algebra)
        euler = b_matrix_from_euler_form(algebra)
        if mult != arrows or mult != euler:
            raise ConsistencyError(
                "exchange-matrix formulas disagree: "
                f"multiplicities={mult}, arrows={arrows}, euler={euler}"
            )
    return ExchangeMatrix(mult)
